"""Weierstrass integration, periods, branch detection, meshes, exports."""

import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinorminimal import surface
from spinorminimal.acceptance import ACCEPTANCE_LATTICES
from spinorminimal.moduli import CONSTRUCTIONS

from spinorminimal.elliptic import Lattice, build_context
from spinorminimal.moduli import klein4_construct, sphere4_solve, sphere6_K_basis, torus4_construct
from spinorminimal.numkit import NonConvergenceError, QuadraturePath
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    basis_F_sphere,
    basis_F_torus_untwisted,
    is_infinity,
    polynomial_sphere_basis,
    section_combination,
)
from spinorminimal.surface import (
    ChartMap,
    GridSpec,
    SurfaceMesh,
    WeierstrassData,
    _chart_map,
    _masks,
    enneper_data,
    export_csv,
    export_obj,
    gauss_degree,
    gauss_map,
    integrate_position,
    integrate_surface,
    period_vector,
    quadrature_edges,
    quadrature_loop_residual,
    real_period,
)


def _octagon(center, radius):
    """The closed octagon inscribed in a circle, as eight segments."""
    z = center + radius * np.exp(2j * np.pi * np.arange(9) / 8)
    return [QuadraturePath.segment(a, b) for a, b in zip(z[:-1], z[1:])]


@pytest.fixture(scope="module")
def enneper_mesh():
    return integrate_surface(enneper_data(), GridSpec(nx=65, ny=65, extent=2.0), 0.0)


@pytest.fixture(scope="module")
def sphere4_data():
    fam = sphere4_solve()
    t1, t2 = fam.K_basis
    return fam, WeierstrassData(s1=t1, s2=t2)


class TestEnneper:
    def test_displacement(self, enneper_mesh):
        d = enneper_mesh.vertices[enneper_mesh.vertex_at(1.0)] \
            - enneper_mesh.vertices[enneper_mesh.vertex_at(0.0)]
        assert np.max(np.abs(d - np.array([2.0 / 3.0, 0.0, 1.0]))) < 1e-8

    def test_basepoint_at_origin(self, enneper_mesh):
        assert np.allclose(enneper_mesh.vertices[enneper_mesh.vertex_at(0.0)], 0.0)

    def test_loop_residuals(self, enneper_mesh):
        scale = enneper_mesh.metadata["mesh_scale"]
        grid = GridSpec(nx=65, ny=65, extent=2.0)
        data = enneper_data()
        assert quadrature_loop_residual(quadrature_edges(data, grid)) < 1e-7 * scale
        assert enneper_mesh.metadata["identity_residual_max"] < 1e-12

    def test_entire_loops_vanish(self):
        data = enneper_data()
        for loop in (_octagon(0.3, 0.9), _octagon(-1.0, 0.4)):
            periods = np.sum([period_vector(data, side) for side in loop], axis=0)
            assert np.linalg.norm(real_period(periods)) < 1e-10
            assert max(abs(x) for x in periods) < 1e-10

    def test_null_curve(self):
        data = enneper_data()
        rng = np.random.default_rng(2)
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        w = data.omega(z)
        assert np.max(np.abs(np.sum(w * w, axis=0))) < 1e-10 * max(
            1.0, float(np.max(np.abs(w)) ** 2))

    def test_no_branch_points(self):
        # g = z: degree 1, and Enneper's total curvature -4 pi
        assert gauss_degree(enneper_data()) == pytest.approx(1.0, abs=1e-6)

    def test_enneper_discrete_laplacian_at_rounding_level(self):
        # Enneper's X is a cubic harmonic polynomial, so the 5-point
        # Laplacian vanishes identically; only rounding noise remains
        data = enneper_data()
        mesh = integrate_surface(data, GridSpec(nx=33, ny=33, extent=1.0), 0.0)
        grid = {complex(u): v for u, v in zip(mesh.domain_uv, mesh.vertices)}
        h = 2.0 / 32
        worst = 0.0
        for u, v in grid.items():
            nb = [u + h, u - h, u + 1j * h, u - 1j * h]
            if all(any(abs(u2 - q) < 1e-12 for u2 in grid) for q in nb):
                s = sum(grid[min(grid, key=lambda x: abs(x - q))] for q in nb)
                worst = max(worst, np.linalg.norm(s - 4 * v))
        assert worst < 1e-12


class TestVertexAt:
    def test_every_vertex_is_found_at_its_chart_point(self, enneper_mesh, sphere4_mesh):
        # acceptance's Enneper row reads vertex_at(1.0) and vertex_at(0.0)
        uv = enneper_mesh.domain_uv
        assert [enneper_mesh.vertex_at(u) for u in uv] == list(range(len(uv)))
        assert uv[enneper_mesh.vertex_at(1.0)] == 1.0
        # a grid point inside an end's clearance is no vertex
        with pytest.raises(KeyError, match="no mesh vertex"):
            sphere4_mesh[2].vertex_at(0.0)

    def test_a_point_that_is_not_finite_is_no_vertex(self, enneper_mesh):
        # NaN compares false with every bound, so no snap may read it as
        # passing; a point far off the grid reads its clipped corner, and
        # none of them warns
        for u in (math.nan, complex(math.nan, 0.0), complex(math.inf, 0.0),
                  complex(-math.inf, 0.0), complex(0.0, math.inf), complex(math.inf, -math.inf),
                  complex(1e300, -1e300), complex(-3e300, 2e300)):
            with pytest.raises(KeyError, match="no mesh vertex"):
                enneper_mesh.vertex_at(u)
            with pytest.raises(ValueError, match="grid vertex"):
                integrate_surface(enneper_data(), GridSpec(5, 5), u)

    @pytest.mark.parametrize("k", [30, 40])
    def test_the_snap_scales_with_the_grid(self, k):
        # on Enneper grids of extent 2^k a vertex's chart point times
        # (1 + 1e-15), up to 5.96e-07 (2^30) and 6.1e-4 (2^40) away, is
        # that vertex, and so is a point 0.5 GRID_SNAP_TOL of a step off;
        # 2 GRID_SNAP_TOL or half a step off is none
        s = 2.0**k
        step = s / 2
        mesh = integrate_surface(enneper_data(), GridSpec(5, 5, extent=s), 0.0)
        for n, u in enumerate(mesh.domain_uv):
            assert mesh.vertex_at(u * (1 + 1e-15)) == n
            assert mesh.vertex_at(u + 0.5e-9 * step) == n
            for off in (2e-9 * step, 0.5 * step, 0.5j * step):
                with pytest.raises(KeyError, match="no mesh vertex"):
                    mesh.vertex_at(u + off)


@pytest.mark.parametrize("extent", [0.0, -2.0, math.inf, math.nan])
def test_a_grid_extent_must_be_positive_and_finite(extent):
    # as the CLI's --extent: 0 divided by zero in ChartMap.nearest, inf and
    # nan failed as a basepoint in an end clearance, and -2 mirrored the grid
    with pytest.raises(ValueError, match="extent must be positive and finite"):
        GridSpec(9, 9, extent)


def _normalized_laplacian_max(mesh, h, window):
    idx = {complex(u): k for k, u in enumerate(mesh.domain_uv)}
    worst = 0.0
    for u, k in idx.items():
        if not window(u):
            continue
        neighbor_ids = []
        for q in (u + h, u - h, u + 1j * h, u - 1j * h):
            hit = [kk for uu, kk in idx.items() if abs(uu - q) < 1e-9]
            if not hit:
                neighbor_ids = None
                break
            neighbor_ids.append(hit[0])
        if neighbor_ids is None:
            continue
        s = sum(mesh.vertices[kk] for kk in neighbor_ids)
        worst = max(worst, np.linalg.norm(s - 4 * mesh.vertices[k]) / h**2)
    return worst


class TestHarmonicityConvergence:
    def test_second_order_on_sphere4(self, sphere4_data):
        # X is harmonic, so the h^2-normalized 5-point Laplacian is
        # O(h^2): halving h divides it by ~4 (within 20%)
        _, data = sphere4_data
        window = lambda u: -1.25 <= u.real <= -0.3 and abs(u.imag) <= 0.45
        norms = []
        for n in (41, 81):
            mesh = integrate_surface(data, GridSpec(nx=n, ny=n, extent=1.6), -1.2)
            norms.append(_normalized_laplacian_max(mesh, 2 * 1.6 / (n - 1), window))
        ratio = norms[0] / norms[1]
        assert 4.0 * 0.8 < ratio < 4.0 * 1.2


class TestGaussMap:
    def test_enneper_values(self):
        data = enneper_data()
        assert np.allclose(gauss_map(data, 0.0), [0, 0, -1])
        n = gauss_map(data, 1.0)  # |g| = 1: horizontal normal
        assert abs(n[2]) < 1e-12
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)

    def test_pole_of_g(self):
        one, z = polynomial_sphere_basis(1)
        data = WeierstrassData(s1=z, s2=one, end_clearance=0.1)
        assert np.allclose(gauss_map(data, 0.0), [0, 0, 1])

    def test_unit_norm_random(self, sphere4_data):
        _, data = sphere4_data
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if float(data.end_distance(u)[0]) < 0.2:
                continue
            assert np.linalg.norm(gauss_map(data, u)) == pytest.approx(1.0, abs=1e-10)


def _chordal(p, q):
    """Chordal distance of p and q on the Riemann sphere, up to a factor 2."""
    return abs(p - q) / math.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2))


def _quadratic_pair(roots1, roots2):
    """The pair of monomial-row sections with the given roots."""
    basis = polynomial_sphere_basis(2)
    s1, s2 = (section_combination(np.polynomial.polynomial.polyfromroots(r), basis)
              for r in (roots1, roots2))
    return WeierstrassData(s1=s1, s2=s2)


_CHART_POINT = st.builds(lambda lg, t: 10.0 ** lg * complex(math.cos(t), math.sin(t)),
                         st.floats(-2.0, 2.0), st.floats(0.0, 2 * math.pi))


class TestBranchDetection:
    @given(_CHART_POINT, _CHART_POINT)
    @settings(max_examples=20, deadline=None)
    def test_common_zero_detected(self, c, c2):
        # p1 = z - a and p2 = z - b: with a common zero at c, g = p2/p1 has
        # degree 1, with zeros at c and c2 distinct g has degree 2.  Nearly
        # cancelling zeros spike the density, which raises or, narrower than
        # the finest level sees, reads low: the draw keeps them apart
        a, b = 0.3 + 0.4j, -1.1 + 0.2j
        assume(min(_chordal(c, b), _chordal(c2, a), _chordal(c, c2)) > 0.05)
        assert gauss_degree(_quadratic_pair((c, a), (c, b))) == pytest.approx(1.0, abs=1e-6)
        try:
            degree = gauss_degree(_quadratic_pair((c, a), (c2, b)))
        except NonConvergenceError:
            return
        assert degree == pytest.approx(2.0, abs=1e-6)

    def test_a_spike_finer_than_the_last_level_raises(self):
        # g = (z - a - 1e-3)/(z - a) has degree 1, all of it within ~1e-3 of a
        one, z = polynomial_sphere_basis(1)
        a = 0.3 + 0.4j
        data = WeierstrassData(s1=section_combination([-a, 1.0], [one, z]),
                               s2=section_combination([-a - 1e-3, 1.0], [one, z]))
        with pytest.raises(NonConvergenceError, match="did not settle"):
            gauss_degree(data)

    def test_sphere4_unbranched(self, sphere4_data):
        # g + n - 1 = 0 + 4 - 1
        _, data = sphere4_data
        assert gauss_degree(data) == pytest.approx(3.0, abs=1e-6)

    def test_sphere6_unbranched(self):
        sphere6 = CONSTRUCTIONS["sphere6"]
        data = sphere6.weierstrass(sphere6.build((0.0, 1.4907119849998598, 0.0)))
        assert gauss_degree(data) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("periods", [p for _, p in ACCEPTANCE_LATTICES],
                             ids=[name for name, _ in ACCEPTANCE_LATTICES])
    def test_torus4_unbranched(self, periods):
        # g + n - 1 = 1 + 4 - 1, on skewed cells too
        torus4 = CONSTRUCTIONS["torus4"]
        assert gauss_degree(torus4.weierstrass(torus4.build(*periods))) \
            == pytest.approx(4.0, abs=1e-6)


class TestSphere4Geometry:
    def test_end_loop_periods_vanish(self, sphere4_data):
        fam, data = sphere4_data
        for p in fam.ends.points[:3]:
            assert np.linalg.norm(integrate_position(data, _octagon(p, 0.3))) < 1e-7

    def test_mesh_loops(self, sphere4_data):
        _, data = sphere4_data
        grid = GridSpec(nx=61, ny=61, extent=2.0)
        mesh = integrate_surface(data, grid, -1.0 - 1.0j)
        assert quadrature_loop_residual(quadrature_edges(data, grid)) \
            < 1e-7 * mesh.metadata["mesh_scale"]
        assert mesh.metadata["identity_residual_max"] < 1e-12

    def test_planar_end_flattening(self, sphere4_data):
        fam, data = sphere4_data
        a = fam.ends.points[0]
        base = -1.0 - 1.0j

        def x_on_circle(radius, nsample=12):
            thetas = np.linspace(0.0, 2.0 * np.pi, nsample, endpoint=False)
            out = []
            for th in thetas:
                q = a + radius * np.exp(1j * th)
                out.append(integrate_position(
                    data, [QuadraturePath.segment(base, q)]))
            return np.array(out)

        def plane_residual(points):
            centered = points - points.mean(axis=0)
            return np.linalg.svd(centered, compute_uv=False)[-1] / np.sqrt(len(points))

        residuals = [plane_residual(x_on_circle(r)) for r in (0.2, 0.1, 0.05)]
        assert residuals[0] > residuals[1] > residuals[2]


class TestKleinGeometry:
    def test_klein_periods_and_compatibility(self):
        kb = klein4_construct()
        data = WeierstrassData(s1=kb.s1, s2=kb.s2)
        ctx = kb.ctx
        g1 = QuadraturePath.segment(-ctx.omega1, ctx.omega1, samples=128)
        i11, i22, i12 = period_vector(data, g1)
        scale = sum(abs(c) for c in kb.period_coeffs)
        assert abs(i11) < 1e-8 * scale
        assert abs(i12) < 1e-8 * scale
        assert kb.residuals["deck_conjugate"] < 1e-8

    def test_klein_gauss_degree_is_eight(self):
        # g + n - 1 = 1 + 8 - 1 on the torus with the eight ends
        kb = klein4_construct()
        data = WeierstrassData(s1=kb.s1, s2=kb.s2)
        assert gauss_degree(data) == pytest.approx(8.0, abs=1e-6)


class TestExports:
    def test_obj_2x2(self, tmp_path):
        mesh = integrate_surface(enneper_data(), GridSpec(nx=2, ny=2, extent=1.0), -1.0 - 1.0j)
        path = export_obj(mesh, tmp_path / "m.obj")
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 2

    def test_obj_roundtrip(self, tmp_path, enneper_mesh):
        path = export_obj(enneper_mesh, tmp_path / "enneper.obj")
        lines = path.read_text().splitlines()
        verts = np.array([[float(x) for x in l.split()[1:]]
                          for l in lines if l.startswith("v ")])
        assert np.array_equal(verts, enneper_mesh.vertices)

    def test_empty_mesh_rejected(self, tmp_path):
        # by both exporters, before a file or its directory is made
        mesh = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3)),
                           ChartMap(np.zeros(2, complex), np.zeros(2, complex)),
                           np.zeros((2, 2), bool), np.zeros((1, 1), bool))
        path = tmp_path / "out" / "empty"
        for export in (export_obj, export_csv):
            with pytest.raises(ValueError, match="empty mesh"):
                export(mesh, path)
            assert not path.exists() and not path.parent.exists()

    def test_obj_and_csv_lines(self, tmp_path):
        mesh = integrate_surface(enneper_data(), GridSpec(nx=4, ny=3, extent=1.0), -1.0 - 1.0j)
        g = lambda xs: " ".join("%.17g" % x for x in xs)
        want = ["v " + g(v) for v in mesh.vertices] + ["vn " + g(n) for n in mesh.gauss] \
            + ["f " + " ".join("%d//%d" % (k + 1, k + 1) for k in f) for f in mesh.faces]
        assert export_obj(mesh, tmp_path / "m.obj").read_text() == "\n".join(want) + "\n"
        rows = ["re_u,im_u,x,y,z,nx,ny,nz"] + [
            ",".join("%.17g" % x for x in (u.real, u.imag, *v, *n))
            for u, v, n in zip(mesh.domain_uv, mesh.vertices, mesh.gauss)]
        assert export_csv(mesh, tmp_path / "m.csv").read_text() == "\n".join(rows) + "\n"

    def test_csv(self, tmp_path):
        mesh = integrate_surface(enneper_data(), GridSpec(nx=3, ny=3, extent=1.0), 0.0)
        path = export_csv(mesh, tmp_path / "m.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("re_u,im_u")
        assert len(lines) == 1 + 9


B, VALUES = surface._BLOCK, surface._VALUES
# (_BLOCK, _VALUES) of the grid walk: one grid row a block in every stage
# and table, blocks of a few rows with a shorter last block, and the
# exporters' default
WALKS = [(7, 60), (200, 600), (200, VALUES)]


def _walk(monkeypatch, block, values):
    """Sets surface._BLOCK and surface._VALUES."""
    monkeypatch.setattr(surface, "_BLOCK", block)
    monkeypatch.setattr(surface, "_VALUES", values)


def _whole_grid(data, grid, mesh):
    """(U, faces), the reference: the whole grid U of meshgrid sums, and
    the faces of one pass over the mesh's cells' corner indices on the
    whole grid."""
    dom = data.domain
    if dom.genus == 1:
        FX, FY = np.meshgrid(np.linspace(0.0, 1.0, grid.nx), np.linspace(0.0, 1.0, grid.ny),
                             indexing="ij")
        U = FX * (2 * dom.ctx.omega1) + FY * (2 * dom.ctx.omega3)
    else:
        X, Y = np.meshgrid(np.linspace(-grid.extent, grid.extent, grid.nx),
                           np.linspace(-grid.extent, grid.extent, grid.ny), indexing="ij")
        U = X + 1j * Y
    index = np.cumsum(mesh.valid, dtype=np.int32) - 1
    g = np.flatnonzero(mesh.cell)
    g += g // (grid.ny - 1)
    a, b = index[g], index[g + grid.ny]
    return U, np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(-1, 3)


# zeros, the smallest subnormal, the largest magnitudes and an integer
# beyond 2**53 among the random values
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**53 + 1])


def _random_values(rng, shape):
    """Random signs and exponents over the whole double range, a fifth SPECIAL."""
    x = rng.choice([-1.0, 1.0], shape) * np.ldexp(rng.uniform(1.0, 2.0, shape),
                                                  rng.integers(-1074, 1023, shape))
    return np.where(rng.random(shape) < 0.2, rng.choice(SPECIAL, shape), x)


def _arrays(vertices, faces, gauss, domain_uv):
    """A mesh's four arrays as given, arbitrary values, for the table writer."""
    return SimpleNamespace(vertices=vertices, faces=faces, gauss=gauss, domain_uv=domain_uv)


def _row_slices(count, width):
    """The slices of count rows of width values in blocks of about
    surface._VALUES values, as the exporters' blocks hold."""
    step = surface._VALUES // width
    return (slice(k, k + step) for k in range(0, count, step))


def _write_obj(mesh, path):
    """export_obj's tables of the arrays of mesh (_arrays), through the table writer."""
    v, n, f = mesh.vertices, mesh.gauss, mesh.faces
    return surface._write_rows(path, b"", (
        (b"v ", b" ", (v[s] for s in _row_slices(len(v), 3)), surface._float_text),
        (b"vn ", b" ", (n[s] for s in _row_slices(len(n), 3)), surface._float_text),
        (b"f ", b" ", (f[s] + 1 for s in _row_slices(len(f), 3)), surface._index_text)))


def _write_csv(mesh, path):
    """export_csv's table of the arrays of mesh (_arrays), through the table writer."""
    uv, v, n = mesh.domain_uv, mesh.vertices, mesh.gauss
    return surface._write_rows(path, b"re_u,im_u,x,y,z,nx,ny,nz\n", (
        (b"", b",", (np.column_stack([uv[s].real, uv[s].imag, v[s], n[s]])
                     for s in _row_slices(len(v), 8)), surface._float_text),))


def _stored_bytes(mesh):
    """The bytes of the arrays a SurfaceMesh stores."""
    return sum(x.nbytes for x in (mesh.vertices, mesh.gauss, mesh.chart.x, mesh.chart.y,
                                  mesh.valid, mesh.cell))


def _one_template_texts(mesh):
    """The OBJ and CSV texts written as one template over the whole mesh."""
    faces = np.repeat(mesh.faces + 1, 2, axis=1)
    obj = ("v %.17g %.17g %.17g\n" * len(mesh.vertices)
           + "vn %.17g %.17g %.17g\n" * len(mesh.gauss)
           + "f %d//%d %d//%d %d//%d\n" * len(faces)) \
        % tuple(mesh.vertices.ravel().tolist() + mesh.gauss.ravel().tolist()
                + faces.ravel().tolist())
    rows = np.column_stack([mesh.domain_uv.real, mesh.domain_uv.imag,
                            mesh.vertices, mesh.gauss])
    csv = "re_u,im_u,x,y,z,nx,ny,nz\n" \
        + ("%.17g," * 7 + "%.17g\n") * len(rows) % tuple(rows.ravel().tolist())
    return obj, csv


def _lattice_fractions(dom, u):
    """(x, y) with u = x 2 omega1 + y 2 omega3, the torus grid's axes."""
    b1, b2 = 2 * dom.ctx.omega1, 2 * dom.ctx.omega3
    det = (np.conj(b1) * b2).imag
    return (np.conj(u) * b2).imag / det, (np.conj(b1) * u).imag / det


def _end_points(data):
    """The finite ends as (x, y) chart points; on a torus lattice fractions
    modulo 1, each with its translates by -1, 0 and 1 along both axes."""
    dom = data.domain
    a = np.array([p for p in dom.ends.points if not is_infinity(p)], dtype=complex)
    if dom.genus == 0:
        return a.real, a.imag
    x, y = (f % 1.0 for f in _lattice_fractions(dom, a))
    shifts = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return np.concatenate([x + i for i, _ in shifts]), np.concatenate([y + j for _, j in shifts])


def _cells_holding_an_end(data, grid):
    """Cells whose closed chart square holds a finite end (in lattice
    fractions on a torus), one comparison per cell and end point; a point
    within 1e-9 of a step from a grid line counts as on it."""
    if data.domain.genus == 1:
        lines = [np.linspace(0.0, 1.0, n) for n in (grid.nx, grid.ny)]
    else:
        lines = [np.linspace(-grid.extent, grid.extent, n) for n in (grid.nx, grid.ny)]
    held = np.zeros((grid.nx - 1, grid.ny - 1), dtype=bool)
    for x, y in zip(*_end_points(data)):
        on = [(t[:-1] - 1e-9 * (t[1] - t[0]) <= p) & (p <= t[1:] + 1e-9 * (t[1] - t[0]))
              for t, p in zip(lines, (x, y))]
        held |= on[0][:, None] & on[1][None, :]
    return held


def _faces_holding_an_end(data, mesh):
    """Indices of the faces whose closed chart triangle (in lattice fractions
    on a torus) holds a finite end: one sign test per face and end point."""
    uv = mesh.domain_uv[mesh.faces]
    x, y = (uv.real, uv.imag) if data.domain.genus == 0 else _lattice_fractions(data.domain, uv)
    px, py = (p[None, :] for p in _end_points(data))
    sides = np.stack([(x[:, k, None] - px) * (y[:, (k + 1) % 3, None] - py)
                      - (y[:, k, None] - py) * (x[:, (k + 1) % 3, None] - px) for k in range(3)])
    held = ~((sides < 0).any(axis=0) & (sides > 0).any(axis=0))
    return np.flatnonzero(held.any(axis=1))


def _sphere6_on_the_variety(s1, s3):
    """sigma = (s1, s2, s3) with s2 the root of the pfaffian tau1 tau3 +
    s1 s3 - 20, a quadratic in s2, of the larger real part."""
    p, q = s1 * s1 + s3 * s3, s1 * s1 * s3 * s3 + s1 * s3 - 20.0
    s2 = np.roots([9.0, 3.0 * p, q])
    return (s1, complex(s2[np.argmax(s2.real)]), s3)


class TestCellMask:
    """No face spans an end: a cell whose closed chart square holds a finite
    end is dropped, even with four valid corners."""

    @settings(max_examples=25, deadline=None)
    @given(st.complex_numbers(max_magnitude=2.0), st.complex_numbers(max_magnitude=2.0),
           st.integers(5, 40))
    def test_no_sphere_face_holds_an_end(self, s1, s3, n):
        # sphere-6 divisors on the pfaffian variety, whose ends lie all over
        # the chart square, on grids whose step exceeds the end clearance
        try:
            t1, t2 = sphere6_K_basis(_sphere6_on_the_variety(s1, s3)).K_basis
            data = WeierstrassData(s1=t1, s2=t2)
        except (ValueError, NonConvergenceError):
            assume(False)
        grid = GridSpec(n, n)
        valid, _ = _masks(data, _chart_map(data.domain, grid))
        assume(data.end_clearance < 4.0 / (n - 1) and valid[0, 0])
        mesh = integrate_surface(data, grid, -2.0 - 2.0j)
        assert _faces_holding_an_end(data, mesh).size == 0
        cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
        assert len(mesh.faces) == 2 * np.count_nonzero(cells & ~_cells_holding_an_end(data, grid))

    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_no_face_holds_an_end_on_a_skewed_torus(self, n):
        # torus-4 on (1, 0.5+0.1i): on an even grid the ends at the half
        # periods lie inside cells with four valid corners
        entry = CONSTRUCTIONS["torus4"]
        built = entry.build(1.0, 0.5 + 0.1j)
        data = entry.weierstrass(built)
        mesh = entry.mesh(built, GridSpec(n, n))
        assert _faces_holding_an_end(data, mesh).size == 0
        valid, _ = _masks(data, _chart_map(data.domain, GridSpec(n, n)))
        cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
        held = _cells_holding_an_end(data, GridSpec(n, n)) & cells
        assert held.any() and len(mesh.faces) == 2 * np.count_nonzero(cells & ~held)

    @pytest.mark.parametrize("name, args, n", [("torus4", (1.0, 7.0j), 33), ("klein4", (), 17)])
    def test_ends_on_cell_edges_clear_the_reference_cells(self, name, args, n):
        # every end lies on a cell edge: torus-4's half periods on grid
        # points of the thin cell's even grid, each Klein end between two
        # cells; the cell mask is the brute-force one
        entry = CONSTRUCTIONS[name]
        data, grid = entry.weierstrass(entry.build(*args)), GridSpec(n, n)
        valid, cell = _masks(data, _chart_map(data.domain, grid))
        cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
        held = _cells_holding_an_end(data, grid)
        assert np.count_nonzero(held) == 16
        assert np.array_equal(cell, cells & ~held)

    def test_ends_off_the_grid_clear_no_cell(self):
        # an end far off the chart square, or just beyond its edge, clears
        # nothing (and its grid position casts to an integer without a
        # warning); 0.5 clears the 2 x 2 cells around its grid vertex
        for ends, cleared in (((1e20 - 1e20j, INF), []),
                              ((2.01j, 0.5, INF), [[4, 3], [4, 4], [5, 3], [5, 4]])):
            basis = basis_F_sphere(EndDivisor(ends))
            data = WeierstrassData(s1=basis[0], s2=basis[1], end_clearance=1e-3)
            _, cell = _masks(data, _chart_map(data.domain, GridSpec(9, 9)))
            assert np.argwhere(~cell).tolist() == cleared

    def test_the_named_mesh_cuts_keep_their_values(self):
        # the edge cases below build their inputs from these literal values
        assert (surface.CHART_SINGULAR_TOL, surface.GRID_LINE_TOL) == (1e-9, 1e-9)

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_grid_line_cut(self, times):
        # an end times 1e-9 of a grid step right of the grid line x = 0 of
        # the 5 x 5 grid of step 1, in the cell row j = 2: within the cut it
        # lies on the line and clears the cells on both sides of it
        basis = basis_F_sphere(EndDivisor((times * 1e-9 + 0.5j, INF)))
        data = WeierstrassData(s1=basis[0], s2=basis[1], end_clearance=1e-3)
        _, cell = _masks(data, _chart_map(data.domain, GridSpec(5, 5)))
        assert np.argwhere(~cell).tolist() == ([[2, 2]] if times > 1 else [[1, 2], [2, 2]])

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_chart_singular_cut(self, times):
        # the grid points of the 2 x 2 grid of steps omega_1 and omega_3
        # times 1e-9 above 0: those above the untwisted torus's chart
        # singularities 0 and omega_1 are vertices only beyond the cut
        ctx = build_context(1.0, 1.0j)
        basis = basis_F_torus_untwisted(ctx, 1, EndDivisor((0.5 + 0.5j, 1.0 + 1.5j)))
        data = WeierstrassData(s1=basis[0], s2=basis[1], end_clearance=1e-3)
        chart = ChartMap(np.array([0.0, ctx.omega1]) + times * 1e-9j, np.array([0.0, ctx.omega3]))
        assert data.domain.chart_singularities() == [0.0, ctx.omega1]
        assert _masks(data, chart)[0].tolist() == [[times > 1, True], [times > 1, True]]

    def test_the_loop_oracle_reads_the_same_mask(self, monkeypatch):
        entry = CONSTRUCTIONS["sphere6"]
        built = entry.build((0.0, 2.0 * math.sqrt(5.0) / 3.0, 0.0))
        data, grid = entry.weierstrass(built), GridSpec(33, 33)
        calls, masks = [], surface._masks
        monkeypatch.setattr(surface, "_masks", lambda *args: calls.append(
            (args, masks(*args))) or calls[-1][1])
        mesh = entry.mesh(built, grid)
        edges = quadrature_edges(data, grid)
        quadrature_loop_residual(edges)
        want = _chart_map(data.domain, grid).rows(0, grid.nx)
        # the mesh's and the edges' masks; the loops read the edges' cells
        assert len(calls) == 2 and all(np.array_equal(args[1].rows(0, grid.nx), want)
                                       for args, _ in calls)
        assert all(np.array_equal(a, b) for a, b in zip(calls[1][1], calls[0][1]))
        assert all(np.array_equal(a, b) for a, b in zip(edges[:2], calls[0][1]))
        # the four ends at +-0.934 +-0.357i each sat inside one face
        assert len(mesh.faces) == 2040 - 8


class TestBlocks:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(m=st.sampled_from([0, 1, B, B + 1, 2 * B + 1]), seed=st.integers(0, 2**32 - 1))
    def test_exports_are_the_one_template_text(self, n, m, seed):
        rng = np.random.default_rng(seed)
        mesh = _arrays(vertices=_random_values(rng, (n, 3)),
                       faces=rng.integers(0, 10**6, (m, 3)),
                       gauss=_random_values(rng, (n, 3)),
                       domain_uv=_random_values(rng, n) + 1j * _random_values(rng, n))
        obj, csv = _one_template_texts(mesh)
        with tempfile.TemporaryDirectory() as d:
            assert _write_obj(mesh, Path(d) / "m.obj").read_bytes() == obj.encode()
            assert _write_csv(mesh, Path(d) / "m.csv").read_bytes() == csv.encode()

    @pytest.mark.parametrize("name, build, grid", [
        ("sphere4", {}, 33),
        ("torus4", {"omega1": 1.0, "omega3": 0.5 + 0.1j}, 33),
        ("klein4", {}, 17),
    ])
    def test_a_mesh_does_not_depend_on_the_block_size(self, monkeypatch, count_calls,
                                                       name, build, grid):
        # blocks of whole grid rows: at 7 one row a block, which leaves a
        # remainder in every block width of a SIMD or BLAS loop, so a sum
        # that is not pointwise would round apart; at 200 a few rows and a
        # shorter last block
        entry = CONSTRUCTIONS[name]
        built = entry.build(**build)
        want = entry.mesh(built, GridSpec(grid, grid))
        closures = count_calls(surface, "_closure")
        for block in (7, 200):
            monkeypatch.setattr(surface, "_BLOCK", block)
            closures.clear()
            got = entry.mesh(built, GridSpec(grid, grid))
            assert len(got.vertices) > 7 * 10
            # the cell rows span more than one block
            cells = max(1, block // (grid - 1))
            assert len(closures) == -(-(grid - 1) // cells) > 1
            for key in ("vertices", "gauss", "faces", "domain_uv"):
                a, b = getattr(want, key), getattr(got, key)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
            assert repr(got.metadata) == repr(want.metadata)

    @pytest.mark.parametrize("block", [None, 7, 200])
    @pytest.mark.parametrize("name, build, grid", [
        ("sphere4", {}, GridSpec(65, 65)),
        ("enneper", {}, GridSpec(9, 5)),
        ("torus4", {"omega1": 1.0, "omega3": 0.5 + 0.1j}, GridSpec(33, 33)),
        ("klein4", {}, GridSpec(17, 17)),
    ])
    def test_closures_on_grid_rows_are_the_corner_takes(self, monkeypatch, name, build, grid,
                                                         block):
        # the reference, bit for bit: each cell's four corner vertices taken
        # by index, its increments b - a, c - b, c - d and d - a, and their
        # closure summed over the last axis, against every cell's closure of
        # the blocks and their largest.  A block of 7 is one cell row; one of
        # 200 leaves a shorter last block of rows on every grid but
        # Enneper's, which it holds whole
        if block is not None:
            monkeypatch.setattr(surface, "_BLOCK", block)
        blocks, closure_of = [], surface._closure
        monkeypatch.setattr(surface, "_closure", lambda *e: blocks.append(closure_of(*e))
                            or blocks[-1])
        entry = CONSTRUCTIONS[name]
        mesh = entry.mesh(entry.build(**build), grid)
        x, f = mesh.vertices, mesh.faces
        a, b, c, d = (x.take(i, axis=0) for i in (f[0::2, 0], f[0::2, 1], f[0::2, 2], f[1::2, 2]))
        assert len(f) >= 64
        t = (b - a) + (c - b)
        t -= c - d
        t -= d - a
        t *= t
        closure = np.sqrt(np.add.reduce(t, axis=-1))
        assert np.concatenate(blocks)[mesh.cell].tobytes() == closure.tobytes()
        assert mesh.metadata["loop_residual_max"] == float(np.max(closure, initial=0.0))

    @pytest.mark.parametrize("name, build, grid", [
        ("sphere4", {}, GridSpec(65, 65)),
        ("enneper", {}, GridSpec(9, 5)),
        ("torus4", {"omega1": 1.1 - 0.2j, "omega3": 0.3 + 0.9j}, GridSpec(33, 33)),
        ("klein4", {}, GridSpec(17, 17)),
    ])
    def test_faces_and_chart_points_are_the_whole_grid_arrays(self, name, build, grid):
        # the reference, bit for bit: the whole grid U of meshgrid sums, the
        # vertices' chart points U[valid], and the faces of one pass over
        # the cells' corner indices on the whole grid
        entry = CONSTRUCTIONS[name]
        built = entry.build(**build)
        data, mesh = entry.weierstrass(built), entry.mesh(built, grid)
        U, faces = _whole_grid(data, grid, mesh)
        assert len(faces) >= 64
        for got, want in ((_chart_map(data.domain, grid).rows(0, grid.nx), U),
                          (mesh.domain_uv, U[mesh.valid]), (mesh.faces, faces)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @pytest.mark.parametrize("block, values", WALKS)
    @pytest.mark.parametrize("eps, grid, base", [
        (None, GridSpec(65, 65), -1.0 - 1.0j),
        (1.5, GridSpec(17, 17), -2.0 - 2.0j),
        (1.9, GridSpec(17, 17), -2.0 - 2.0j),
    ])
    def test_blocks_of_grid_rows_are_the_whole_grid_arrays(self, monkeypatch, tmp_path,
                                                           sphere4_data, eps, grid, base, block,
                                                           values):
        # every stage and both exporters walk blocks of whole grid rows: the
        # mesh's faces and chart points are the whole-grid reference, and its
        # OBJ and CSV texts the one-template texts of its whole arrays.  With
        # eps 1.5 some cell rows hold no cell, and with 1.9 some grid rows
        # no vertex, so blocks of one row are empty, and are skipped
        _walk(monkeypatch, block, values)
        data = WeierstrassData(s1=sphere4_data[1].s1, s2=sphere4_data[1].s2, end_clearance=eps)
        mesh = integrate_surface(data, grid, base)
        U, faces = _whole_grid(data, grid, mesh)
        for got, want in ((mesh.domain_uv, U[mesh.valid]), (mesh.faces, faces)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        empty = (eps is not None, eps == 1.9)
        assert ((~mesh.cell.any(axis=1)).any(), (~mesh.valid.any(axis=1)).any()) == empty
        obj, csv = _one_template_texts(mesh)
        assert export_obj(mesh, tmp_path / "m.obj").read_bytes() == obj.encode()
        assert export_csv(mesh, tmp_path / "m.csv").read_bytes() == csv.encode()

    @pytest.mark.parametrize("name, grid", [("sphere4", 33), ("torus4", 33), ("klein4", 17)])
    def test_cells_are_the_whole_grid_reference(self, monkeypatch, name, grid):
        # the reference: faces and the largest closure from one whole-grid
        # pass over a grid copy X of the vertices, on the cells with four
        # valid corners that hold no end (at grid 17 each klein-4 end lies
        # on a cell edge, and clears the two cells beside it)
        entry = CONSTRUCTIONS[name]
        data = entry.weierstrass(entry.build())
        monkeypatch.setattr(surface, "_BLOCK", 7)
        mesh = integrate_surface(data, GridSpec(grid, grid),
                                 entry.basepoint(data.domain, GridSpec(grid, grid)))
        valid, _ = _masks(data, _chart_map(data.domain, GridSpec(grid, grid)))
        index = np.cumsum(valid).reshape(valid.shape) - 1
        cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
        held = _cells_holding_an_end(data, GridSpec(grid, grid)) & cell
        assert np.count_nonzero(held) == (16 if name == "klein4" else 0)
        cell &= ~held
        i, j = np.nonzero(cell)
        a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
        assert mesh.faces.dtype == np.int32
        assert np.array_equal(mesh.faces, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3))
        X = np.zeros(valid.shape + (3,))
        X[valid] = mesh.vertices
        h, v = X[1:] - X[:-1], X[:, 1:] - X[:, :-1]
        closure = np.linalg.norm(((h[:, :-1] + v[1:, :]) - h[:, 1:]) - v[:-1, :], axis=-1)
        assert mesh.metadata["loop_residual_max"] == float(closure[cell].max())

    @pytest.mark.parametrize("name", ["sphere4", "torus4"])
    def test_mesh_memory_is_bounded_by_the_block(self, monkeypatch, name):
        # what integrate_surface holds beyond the finished mesh is one block
        # and a few bytes per grid point, so it grows by far less than the
        # grid from 65 to 129 points a side
        monkeypatch.setattr(surface, "_BLOCK", 1024)
        entry = CONSTRUCTIONS[name]
        data = entry.weierstrass(entry.build())
        warm = GridSpec(17, 17)
        integrate_surface(data, warm, entry.basepoint(data.domain, warm))
        extra = []
        for n in (65, 129):
            base = entry.basepoint(data.domain, GridSpec(n, n))
            tracemalloc.start()
            try:
                mesh = integrate_surface(data, GridSpec(n, n), base)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - _stored_bytes(mesh))
        assert extra[1] - extra[0] < 2**20, extra

    def test_export_memory_is_bounded_by_the_block(self, tmp_path):
        # the writer holds one block's text arrays and buffer: its peak does
        # not grow with the mesh and stays under the few MiB of
        # integrate_surface's block, with scattered faces and with faces
        # banded as a grid's, whose block formats its band of indices
        for banded in (False, True):
            peaks = []
            for n in (3 * B, 6 * B):
                rng = np.random.default_rng(n)
                faces = (np.arange(2 * n)[:, None] // 2 + [0, 1, 257]) % n if banded \
                    else rng.integers(0, n, (2 * n, 3))
                mesh = _arrays(vertices=rng.standard_normal((n, 3)), faces=faces,
                               gauss=rng.standard_normal((n, 3)),
                               domain_uv=np.zeros(n, dtype=complex))
                tracemalloc.start()
                try:
                    _write_obj(mesh, tmp_path / "m.obj")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert abs(peaks[1] - peaks[0]) < 2**20, (banded, peaks)
            assert peaks[1] < 3.5 * 2**20, (banded, peaks)

    def test_each_stage_holds_the_mesh_and_one_block(self, tmp_path):
        # the grid-257 sphere-4 mesh stores 3.2 MiB, its vertices, normals
        # and grid: integrate_surface's vertex and cell stages and the
        # export each peak within 2.25 MiB of it (5.4 MiB), their in-place
        # blocks taking about 2.1, 1.1 and 1.3 MiB
        entry = CONSTRUCTIONS["sphere4"]
        built, grid = entry.build(), GridSpec(257, 257)
        entry.mesh(built, GridSpec(17, 17))
        tracemalloc.start()
        try:
            mesh = entry.mesh(built, grid)
            meshed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            export_obj(mesh, tmp_path / "m.obj")
            exported = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = _stored_bytes(mesh)
        assert max(meshed, exported) <= size + 2.25 * 2**20, (size, meshed, exported)

    def test_the_klein_vertex_stage_holds_the_mesh_and_one_block(self, monkeypatch):
        # the grid-257 Klein mesh stores 3.2 MiB: its vertex stage, up to the
        # first loop closure, peaks within 6 MiB, as each block's one theta
        # frame is on its vertices alone and the block keeps only zeta, wp
        # and wp'
        entry = CONSTRUCTIONS["klein4"]
        built = entry.build()
        entry.mesh(built, GridSpec(17, 17))
        peaks, closure = [], surface._closure
        monkeypatch.setattr(surface, "_closure", lambda *args: peaks.append(
            tracemalloc.get_traced_memory()[1]) or closure(*args))
        tracemalloc.start()
        try:
            entry.mesh(built, GridSpec(257, 257))
        finally:
            tracemalloc.stop()
        assert peaks and peaks[0] <= 6 * 2**20, peaks[0]

    def test_a_mesh_formats_each_face_index_once_per_block(self, monkeypatch, tmp_path,
                                                            count_calls):
        # a face block is the faces of whole cell rows, about _VALUES // 6
        # cells; when its indices span fewer values than it has tokens, each
        # index of that span is formatted once.  At the default _VALUES an
        # integrate_surface mesh's block spans far fewer
        entry = CONSTRUCTIONS["sphere4"]
        built = entry.build()
        calls = count_calls(surface, "_index_text")
        for block, values in WALKS:
            _walk(monkeypatch, block, values)
            mesh = entry.mesh(built, GridSpec(65, 65))
            calls.clear()
            export_obj(mesh, tmp_path / "m.obj")
            rows = max(1, values // 6 // 64)
            sizes = 2 * np.add.reduceat(np.count_nonzero(mesh.cell, axis=1), np.arange(0, 64, rows))
            blocks = np.split(mesh.faces + 1, np.cumsum(sizes)[:-1])
            spans = [int(f.max() - f.min()) + 1 for f in blocks]
            assert len(blocks) > 1
            assert [len(x) for x, _ in calls] == [n for f, s in zip(blocks, spans)
                                                  for n in (f.size, s)[:1 + (s < f.size)]]
            if values == VALUES:
                assert all(s < f.size / 4 for f, s in zip(blocks, spans)), spans


# the powers of ten around the range |x| in [1e-4, 1e16) whose text numpy
# writes (surface._float_text), each the double nearest it
POWERS = [float(Fraction(10) ** k) for k in range(-5, 18)]


def _ulps(x, k):
    """x moved by k doubles, up when k > 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def _ties(e):
    """Doubles k 2^(e - 17) in [10^e, 10^(e+1)) with k odd: times 10^(16 - e)
    each is k 5^(16 - e) / 2, so a half follows its 17th digit exactly."""
    lo = math.ceil(2**17 * Fraction(5) ** e) | 1
    hi = min(math.ceil(2**18 * Fraction(5) ** (e + 1)), 2**53)
    return st.integers(0, (hi - lo - 1) // 2).map(lambda m: math.ldexp(lo + 2 * m, e - 17))


EDGES = st.one_of(
    st.sampled_from(POWERS).flatmap(lambda x: st.integers(-3, 3).map(lambda k: _ulps(x, k))),
    st.sampled_from([1e-4, 1e16]).flatmap(lambda x: st.integers(-4, 4).map(lambda k: _ulps(x, k))),
    # the largest doubles below 0.1 and 1e16, and 1e16 as a user writes it
    st.sampled_from([0.099999999999999992, 9999999999999998.0, 9999999999999999.0]),
    st.integers(-4, 15).flatmap(_ties),
    st.floats(1e-4, 1e16, exclude_max=True),
)


# face entries whose indices (entry + 1) lie around the powers of ten and
# the range [1, 10^8) whose tokens numpy writes (surface._index_text)
FACE_EDGES = np.array([10**k + d for k in range(10) for d in (-2, -1, 0, 1)]
                      + [-3, -2]).reshape(-1, 3)


def _assert_template_text(values):
    """export_obj and export_csv of a mesh of the values and their negations,
    with FACE_EDGES for faces, are the one-template texts."""
    x = np.array(values + [-v for v in values])
    rows = np.resize(x, (-(-len(x) // 3), 3))
    mesh = _arrays(vertices=rows, faces=FACE_EDGES, gauss=rows[::-1].copy(),
                   domain_uv=rows[:, 0] + 1j * rows[:, 1])
    obj, csv = _one_template_texts(mesh)
    with tempfile.TemporaryDirectory() as d:
        assert _write_obj(mesh, Path(d) / "m.obj").read_bytes() == obj.encode()
        assert _write_csv(mesh, Path(d) / "m.csv").read_bytes() == csv.encode()


# values that "%" formats: 0, subnormals, |x| out of [1e-4, 1e16), inf, nan
REST = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.9999999999999991e-5, 1e16,
        -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def _uv(re, im):
    """re + i im without arithmetic, which would make nan of inf."""
    return np.column_stack([re, im]).view(complex)[:, 0]


def _assert_exports(mesh, tmp_path):
    obj, csv = _one_template_texts(mesh)
    assert _write_obj(mesh, tmp_path / "m.obj").read_bytes() == obj.encode()
    assert _write_csv(mesh, tmp_path / "m.csv").read_bytes() == csv.encode()


# integers around the chunk and digit-count edges of surface._digits
DIGIT_EDGES = [0, 1, 9999, 10**4, 10**16, 10**17 - 1]


def _digit_values(count):
    """Integers in [0, 10^count): uniform, DIGIT_EDGES and k 10^j."""
    top = 10**count
    return st.one_of(st.integers(0, top - 1),
                     st.sampled_from([n for n in DIGIT_EDGES if n < top]),
                     st.builds(lambda k, j: k * 10**j, st.integers(1, 9999),
                               st.integers(0, count - 1)).filter(lambda n: n < top))


class TestDigits:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_digit_values(17), min_size=1, max_size=40),
           st.lists(_digit_values(8), min_size=1, max_size=40))
    def test_digits_are_the_percent_text(self, n17, n8):
        # "%0*d" % (count, n), and with trim less its trailing zeros,
        # NUL-padded
        for count, values in ((17, n17), (8, n8)):
            want = [b"%0*d" % (count, n) for n in values]
            for trim in (False, True):
                got = surface._digits(np.array(values, np.int64), count, surface._Buffers(), trim)
                assert [bytes(row) for row in got] == want, (count, trim)
                want = [w.rstrip(b"0").ljust(count, b"\0") for w in want]


class TestSlots:
    # 4097 rows are two OBJ blocks and three CSV blocks, whose empty prefix
    # leaves a comma or a newline in front of each text
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_rest_values_in_any_column(self, tmp_path, column):
        rng = np.random.default_rng(column)
        rows = rng.standard_normal((4097, 3)) * 10.0 ** rng.integers(-3, 15, (4097, 3))
        rows[::3, column] = np.resize(REST, len(rows[::3]))
        _assert_exports(_arrays(vertices=rows, faces=np.zeros((0, 3), int),
                                gauss=rows[::-1].copy(),
                                domain_uv=_uv(rows[:, column], rows[:, 2 - column])), tmp_path)

    def test_a_block_of_only_rest_values(self, tmp_path):
        rows = np.resize(REST, (4097, 3))
        _assert_exports(_arrays(vertices=rows, faces=np.zeros((0, 3), int), gauss=rows[::-1],
                                domain_uv=_uv(rows[:, 0], rows[:, 1])), tmp_path)

    @pytest.mark.parametrize("k", range(10))
    def test_banded_faces(self, tmp_path, count_calls, k):
        # indices 10^k - 3 to 10^k + 2, around the edges of [1, 10^8) and
        # the digit counts, in blocks that each format that band once
        rng = np.random.default_rng(k)
        faces = 10**k - 4 + rng.integers(0, 6, (5000, 3))
        faces[:6] = 10**k - 4 + np.arange(18).reshape(6, 3) % 6
        rows = rng.standard_normal((3, 3))
        calls = count_calls(surface, "_index_text")
        _assert_exports(_arrays(vertices=rows, faces=faces, gauss=rows,
                                domain_uv=rows[:, 0] + 0j), tmp_path)
        step = surface._VALUES // 3
        assert [len(x) for x, _ in calls] == [3 * step, 6, 3 * (5000 - step), 6]

    def test_scattered_faces(self, tmp_path, count_calls):
        rng = np.random.default_rng(5)
        faces = rng.integers(-5, 10**10, (5000, 3))
        faces[:len(FACE_EDGES)] = FACE_EDGES
        rows = rng.standard_normal((3, 3))
        calls = count_calls(surface, "_index_text")
        _assert_exports(_arrays(vertices=rows, faces=faces, gauss=rows,
                                domain_uv=rows[:, 0] + 0j), tmp_path)
        step = surface._VALUES // 3
        assert [len(x) for x, _ in calls] == [3 * step, 3 * (5000 - step)]


class TestExactText:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(values=st.lists(EDGES, min_size=1, max_size=40))
    @example(values=[_ulps(x, k) for x in POWERS + [1e-4, 1e16] for k in range(-4, 5)])
    def test_range_edges_are_the_template_text(self, values):
        _assert_template_text(values)

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_one_step_mends_a_log10_off_by_one(self, monkeypatch, shift):
        # log10 shifted by half a decade puts floor(log10) one off on about
        # half the values: below the decade (-0.5) or above it (+0.5)
        rng = np.random.default_rng(7)
        values = (10.0 ** rng.uniform(-4, 16, 3000)).tolist() + POWERS
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        _assert_template_text(values)

    def test_no_double_rounds_up_to_a_power_of_ten(self):
        # so surface._decimal17 needs no carry: the largest double below
        # each power of ten 10^k that the range rounds to lies more than
        # half a unit of the 17th digit below it
        for k in range(-3, 17):
            x = float(Fraction(10) ** k)
            if Fraction(x) >= Fraction(10) ** k:
                x = float(np.nextafter(x, 0.0))
            assert Fraction(x) * Fraction(10) ** (17 - k) < 10**17 - Fraction(1, 2), k


class TestTorusMesh:
    def test_torus4_mesh_integrates(self):
        from spinorminimal.elliptic import build_context
        from spinorminimal.moduli import torus4_construct
        t4 = torus4_construct(build_context(1.0, 1.0j))
        data = WeierstrassData(s1=t4.s1, s2=t4.s2)
        base = 0.5 * 2 * t4.ctx.omega1 + 0.25 * 2 * t4.ctx.omega3
        # snap to a grid point: fractions k/(n-1)
        base = (24 / 48) * 2 * t4.ctx.omega1 + (12 / 48) * 2 * t4.ctx.omega3
        grid = GridSpec(nx=49, ny=49)
        mesh = integrate_surface(data, grid, base)
        assert mesh.metadata["vertex_count"] > 1000
        scale = mesh.metadata["mesh_scale"]
        assert quadrature_loop_residual(quadrature_edges(data, grid)) < 1e-6 * scale
        assert mesh.metadata["identity_residual_max"] < 1e-12


@pytest.fixture(scope="module")
def torus4_generic():
    from spinorminimal.elliptic import build_context
    from spinorminimal.moduli import torus4_construct
    t4 = torus4_construct(build_context(1.1 - 0.2j, 0.3 + 0.9j))
    data = WeierstrassData(s1=t4.s1, s2=t4.s2)
    base = (16 / 32) * 2 * t4.ctx.omega1 + (8 / 32) * 2 * t4.ctx.omega3
    return data, base, integrate_surface(data, GridSpec(nx=33, ny=33), base)


@pytest.fixture(scope="module")
def sphere4_mesh(sphere4_data):
    _, data = sphere4_data
    return data, -1.0 - 1.0j, integrate_surface(data, GridSpec(nx=65, ny=65), -1.0 - 1.0j)


def _scalar_gauss(data, u):
    """Per-point reference in Python complex arithmetic."""
    f1 = complex(np.asarray(data.s1.evaluate(u), dtype=complex).reshape(()))
    f2 = complex(np.asarray(data.s2.evaluate(u), dtype=complex).reshape(()))
    if abs(f1) <= 1e-15 * abs(f2):
        return np.array([0.0, 0.0, 1.0])
    g = f2 / f1
    den = abs(g) ** 2 + 1.0
    return np.array([2.0 * g.real / den, 2.0 * g.imag / den, (abs(g) ** 2 - 1.0) / den])


class TestArrayGaussMap:
    def test_equals_stacked_scalar_calls(self, sphere4_data):
        _, data = sphere4_data
        rng = np.random.default_rng(5)
        u = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
        u = u[data.end_distance(u) > 0.05]
        n = gauss_map(data, u)
        assert n.shape == (len(u), 3)
        want = np.array([_scalar_gauss(data, x) for x in u])
        assert np.max(np.abs(n - want)) < 1e-14

    def test_keeps_shape(self, sphere4_data):
        _, data = sphere4_data
        u = np.array([[0.3 + 0.1j, -0.2 + 0.7j], [1.1j, -1.3 - 0.2j]])
        assert gauss_map(data, u).shape == (2, 2, 3)
        assert gauss_map(data, u[0, 0]).shape == (3,)

    def test_pole_limit_in_an_array(self):
        one, z = polynomial_sphere_basis(1)
        data = WeierstrassData(s1=z, s2=one, end_clearance=0.1)
        u = np.array([0.5, 0.0, 1j])
        n = gauss_map(data, u)
        assert np.array_equal(n[1], [0.0, 0.0, 1.0])
        for k in (0, 2):
            assert np.allclose(n[k], _scalar_gauss(data, u[k]), atol=1e-15)

    def test_branch_point_in_an_array_raises(self):
        _, zsec = polynomial_sphere_basis(1)
        data = WeierstrassData(s1=zsec, s2=zsec, end_clearance=0.05)
        with pytest.raises(ValueError):
            gauss_map(data, np.array([0.5, 0.0, 1j]))


def _clear_segment(data, a, b, margin):
    t = np.linspace(0.0, 1.0, 201)
    path = a + (b - a) * t
    return min(data.end_distance(path).min(), data.chart_singular_distance(path).min()) > margin


class TestArrayMeshPipeline:
    @pytest.mark.parametrize("which", ["sphere4", "torus4"])
    def test_vertices_match_straight_path_quadrature(self, which, sphere4_mesh, torus4_generic):
        data, base, mesh = sphere4_mesh if which == "sphere4" else torus4_generic
        scale = mesh.metadata["mesh_scale"]
        rng = np.random.default_rng(17)
        picked = 0
        for k in rng.permutation(len(mesh.vertices)):
            u = mesh.domain_uv[k]
            if abs(u - base) < 0.5 or not _clear_segment(data, base, u, 0.15):
                continue
            x = integrate_position(data, [QuadraturePath.segment(base, u)])
            assert np.max(np.abs(mesh.vertices[k] - x)) < 1e-9 * scale
            picked += 1
            if picked == 2:
                break
        assert picked == 2

    @pytest.mark.parametrize("which", ["sphere4", "torus4"])
    def test_counts_follow_the_validity_mask(self, which, sphere4_mesh, torus4_generic):
        data, _, mesh = sphere4_mesh if which == "sphere4" else torus4_generic
        nx, ny, extent = mesh.metadata["grid"]
        if which == "sphere4":
            xs = np.linspace(-extent, extent, nx)
            U = xs[:, None] + 1j * xs[None, :]
        else:
            ctx = data.domain.ctx
            f = np.linspace(0.0, 1.0, nx)
            U = f[:, None] * 2 * ctx.omega1 + f[None, :] * 2 * ctx.omega3
        valid = (data.end_distance(U.ravel()) > data.end_clearance) \
            & (data.chart_singular_distance(U.ravel()) > 1e-9)
        valid = valid.reshape(U.shape)
        cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
        assert mesh.metadata["vertex_count"] == len(mesh.vertices) == int(valid.sum())
        assert len(mesh.faces) == 2 * int(cells.sum())
        assert len(mesh.gauss) == len(mesh.domain_uv) == len(mesh.vertices)
        assert np.array_equal(mesh.domain_uv, U[valid])

    @pytest.mark.parametrize("which", ["sphere4", "torus4", "klein4"])
    def test_valid_mask_equals_the_filtered_singular_points(self, which, sphere4_data,
                                                            torus4_generic):
        # the oracle: every singular point that is not an end, found by one
        # scalar distance per (point, end) pair
        if which == "klein4":
            kb = klein4_construct()
            data = WeierstrassData(s1=kb.s1, s2=kb.s2)
        else:
            data = sphere4_data[1] if which == "sphere4" else torus4_generic[0]
        dom = data.domain
        ends = [q for q in dom.ends.points if not is_infinity(q)]
        extra = [p for p in dom.singular_points()
                 if all(dom.distance(p, q) > 1e-9 for q in ends)]
        assert len(extra) == (2 if which == "klein4" else 0)
        U = _chart_map(data.domain, GridSpec(nx=33, ny=33)).rows(0, 33)
        u = U.ravel()
        singular = np.min([dom.distance(u, p) for p in extra], axis=0) if extra \
            else np.full(u.shape, np.inf)
        oracle = (data.end_distance(u) > data.end_clearance) & (singular > 1e-9)
        assert np.array_equal(_masks(data, _chart_map(data.domain, GridSpec(nx=33, ny=33)))[0],
                              oracle.reshape(U.shape))


def _full_grid_mask(data, chart):
    """The reference vertex mask: the distance of every grid point to every
    finite end and chart singularity, one point of the divisor at a time,
    with no box around any of them."""
    u = chart.rows(0, chart.shape[0])
    return (data.end_distance(u) > data.end_clearance) \
        & (data.chart_singular_distance(u) > surface.CHART_SINGULAR_TOL)


def _pair_data(name, *args, eps=None):
    entry = CONSTRUCTIONS[name]
    return lambda: entry.weierstrass(entry.build(*args), eps)


def _sphere_data(ends, eps):
    def data():
        basis = basis_F_sphere(EndDivisor(ends))
        return WeierstrassData(s1=basis[0], s2=basis[1], end_clearance=eps)
    return data


MASK_CASES = {
    "torus4-square": _pair_data("torus4", 1.0, 1.0j),
    "torus4-rect2": _pair_data("torus4", 1.0, 2.0j),
    "torus4-rhombic": _pair_data("torus4", 1 + 0.4j, 1 - 0.4j),
    "torus4-generic": _pair_data("torus4", 1.1 - 0.2j, 0.3 + 0.9j),
    # an unreduced skewed basis of the square lattice
    "torus4-skewed": _pair_data("torus4", 1.0, 5.0 + 1.0j),
    # disks wider than a grid cell from grid 5 up, and than half the end gap
    "torus4-wide": _pair_data("torus4", 1.0, 1.0j, eps=0.6),
    # the chart singularities 0 and omega_2 beside the eight ends
    "klein4": _pair_data("klein4"),
    "sphere4": _pair_data("sphere4"),
    # an end on a grid line from grid 17 up, and one whose disk ends on grid
    # points there: a distance equal to the clearance is no vertex
    "sphere-grid-line": _sphere_data((0.5, -1.0 + 0.25j, INF), 0.25),
}


class TestStampedMask:
    """_masks takes distances only around each end's and chart singularity's
    disk and its lattice translates; its vertex mask is the full grid's."""

    @pytest.fixture(scope="class", params=MASK_CASES.values(), ids=MASK_CASES.keys())
    def data(self, request):
        return request.param()

    @pytest.mark.parametrize("n", [2, 3, 17, 33, 129])
    def test_the_mask_is_the_full_grid_mask(self, data, n):
        chart = _chart_map(data.domain, GridSpec(n, n))
        want = _full_grid_mask(data, chart)
        assert np.array_equal(_masks(data, chart)[0], want)
        if n == 129:
            assert 0 < np.count_nonzero(want) < want.size

    def test_the_distances_are_taken_around_the_ends(self, count_calls):
        # klein-4 at grid 129: the boxes of its ten disks hold few of the
        # 16641 grid points, and the mask takes their distances to the
        # eight ends in one call, then to the two chart singularities in one
        data = MASK_CASES["klein4"]()
        calls = count_calls(Lattice, "distance")
        _masks(data, _chart_map(data.domain, GridSpec(129, 129)))
        assert len(calls) == 2 and np.size(calls[0][1]) == 4 * np.size(calls[1][1])
        assert 0 < np.size(calls[0][1]) + np.size(calls[1][1]) < 0.05 * 16641 * 10

    @pytest.mark.parametrize("name", ["sphere4", "torus4", "klein4"])
    def test_a_mesh_makes_one_stamp_table(self, count_calls, name):
        # the vertex and the cell mask read the one table of the ends' and
        # the chart singularities' stamps
        entry = CONSTRUCTIONS[name]
        data, grid = entry.weierstrass(entry.build()), GridSpec(33, 33)
        calls = count_calls(surface, "_stamps")
        integrate_surface(data, grid, entry.basepoint(data.domain, grid))
        assert len(calls) == 1


BASEPOINT_BUILDS = {"enneper": (), "sphere4": (),
                    "sphere6": ((0.0, 2.0 * math.sqrt(5.0) / 3.0, 0.0),),
                    "torus4": (1.1 - 0.2j, 0.3 + 0.9j), "klein4": ()}


class TestBasepoint:
    """Construction.basepoint snaps its construction's chart point to the
    grid by ChartMap.nearest, the snap integrate_surface reads it back by."""

    @pytest.fixture(scope="class", params=BASEPOINT_BUILDS, ids=BASEPOINT_BUILDS)
    def named(self, request):
        entry = CONSTRUCTIONS[request.param]
        return (request.param, entry,
                entry.weierstrass(entry.build(*BASEPOINT_BUILDS[request.param])).domain)

    @pytest.mark.parametrize("n", [16, 17, 40, 61])
    def test_the_basepoint_is_a_grid_vertex_nearest_the_chart_point(self, named, n):
        # within half a grid step of the point along each step: on an even
        # grid a point at a half-step tie may snap to either side
        _, entry, dom = named
        chart = _chart_map(dom, GridSpec(n, n))
        base = entry.basepoint(dom, GridSpec(n, n))
        i, j = chart.nearest(base)
        assert base == chart.x[i] + chart.y[j]
        assert np.abs(chart.positions(base) - chart.positions(entry.point(dom))).max() \
            <= 0.5 + 1e-9

    def test_the_named_points(self, named):
        # on grids of 2^k steps each chart point is a grid vertex, bit for
        # bit: 0, -1-1i, -1.5-1.5i, omega1 + omega3/2 and omega1 + omega3/4
        name, entry, dom = named
        if dom.genus == 1:
            w1, w3 = dom.ctx.omega1, dom.ctx.omega3
            want = {"torus4": w1 + w3 / 2, "klein4": w1 + w3 / 4}
        else:
            want = {"enneper": 0j, "sphere4": -1 - 1j, "sphere6": -1.5 - 1.5j}
        point = entry.point(dom)
        assert point == want[name]
        for n in (65, 129):
            assert entry.basepoint(dom, GridSpec(n, n)) == point


def _edge_agreement(data, mesh, grid, near=0.0):
    """The largest |mesh edge increment - quadrature_edges| over the mesh
    scale, on the edges whose midpoint lies at least near times the edge's
    length from every finite end."""
    valid, _, h, v = quadrature_edges(data, grid)
    X = np.full(valid.shape + (3,), np.nan)
    X[valid] = mesh.vertices
    U, worst = _chart_map(data.domain, grid).rows(0, grid.nx), 0.0
    for edge, quad, a, b in ((X[1:] - X[:-1], h, U[:-1], U[1:]),
                             (X[:, 1:] - X[:, :-1], v, U[:, :-1], U[:, 1:])):
        far = data.end_distance((a + b) / 2) >= near * np.abs(b - a)
        worst = max(worst, np.nanmax(np.abs(edge - quad)[far]))
    return worst / mesh.metadata["mesh_scale"]


class TestThinCellMesh:
    """torus4 on (1, 7i), reduced Im tau 7, the thinnest lattice torus4
    takes: its branch gate, read relative to the condition's terms, lets it
    mesh."""

    def test_the_command_meshes(self, tmp_path, capsys):
        from spinorminimal.cli import main
        assert main(["torus4", "1", "7j", "--mesh", str(tmp_path / "t.obj"), "--grid", "33",
                     "--out", str(tmp_path)]) == 0

    def test_every_check_passes_and_the_vertices_agree_with_the_edge_quadrature(self):
        grid, entry = GridSpec(33, 33), CONSTRUCTIONS["torus4"]
        built = entry.build(1.0, 7.0j)
        data = entry.weierstrass(built)
        mesh = entry.mesh(built, grid)
        assert all(c.passed for c in built.checks() + mesh.checks())
        # the agreement of the (1, 2i) mesh over all its edges, 1.6e-10; on
        # the thin cell the 12 Gauss-Legendre nodes of an edge along omega_3
        # (0.44 long) that passes within 0.75 of its length of an end do not
        # converge, and read 3.3e-5 there
        rect2 = entry.build(1.0, 2.0j)
        reference = _edge_agreement(entry.weierstrass(rect2), entry.mesh(rect2, grid), grid)
        assert reference < 2e-10
        assert _edge_agreement(data, mesh, grid, near=0.75) <= reference
