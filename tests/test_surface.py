"""Weierstrass integration, periods, branch detection, meshes, exports."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal import surface
from spinorminimal.cli import CONSTRUCTIONS

from spinorminimal.elliptic import build_context
from spinorminimal.moduli import klein4_construct, sphere4_solve, torus4_construct
from spinorminimal.numkit import QuadraturePath
from spinorminimal.spinor import (
    EndDivisor,
    SphereDomain,
    is_infinity,
    rational_sphere_basis,
    section_combination,
    section_values,
)
from spinorminimal.surface import (
    GridSpec,
    SurfaceMesh,
    WeierstrassData,
    _grid_coordinates,
    _valid_mask,
    branch_points,
    enneper_data,
    export_csv,
    export_obj,
    gauss_map,
    integrate_position,
    integrate_surface,
    period_vector,
    quadrature_loop_residual,
    real_period,
    total_curvature_estimate,
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
        assert quadrature_loop_residual(enneper_data(), grid) < 1e-7 * scale
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
        assert branch_points(enneper_data(), resolution=60) == []

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

    def test_curvature_estimate_tends_to_minus_4pi(self):
        est = total_curvature_estimate(enneper_data(), GridSpec(nx=301, ny=301, extent=12.0))
        assert est == pytest.approx(-4.0 * np.pi, rel=0.01)


class TestGaussMap:
    def test_enneper_values(self):
        data = enneper_data()
        assert np.allclose(gauss_map(data, 0.0), [0, 0, -1])
        n = gauss_map(data, 1.0)  # |g| = 1: horizontal normal
        assert abs(n[2]) < 1e-12
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)

    def test_pole_of_g(self):
        dom = SphereDomain(ends=EndDivisor(()))
        s1, s2 = rational_sphere_basis(dom, [([0.0, 1.0], [1.0]), ([1.0], [1.0])], ("z", "1"))
        data = WeierstrassData(s1=s1, s2=s2, end_clearance=0.1)
        assert np.allclose(gauss_map(data, 0.0), [0, 0, 1])

    def test_unit_norm_random(self, sphere4_data):
        _, data = sphere4_data
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if float(data.end_distance(u)[0]) < 0.2:
                continue
            assert np.linalg.norm(gauss_map(data, u)) == pytest.approx(1.0, abs=1e-10)


class TestBranchDetection:
    def test_common_zero_detected(self):
        dom = SphereDomain(ends=EndDivisor(()))
        (zsec,) = rational_sphere_basis(dom, [([0.0, 1.0], [1.0])], ("z phi",))
        data = WeierstrassData(s1=zsec, s2=zsec, end_clearance=0.05)
        found = branch_points(data, resolution=60)
        assert len(found) == 1
        assert abs(found[0]) < 1e-6

    def test_sphere4_unbranched(self, sphere4_data):
        _, data = sphere4_data
        assert branch_points(data, resolution=80) == []


def _per_candidate_branch_points(data, resolution):
    """branch_points as one refinement loop per candidate: the reference."""
    dom = data.domain
    U = _grid_coordinates(data, GridSpec(nx=resolution, ny=resolution))
    pts = U.ravel()
    spacing = abs(U[1, 0] - U[0, 0])
    keep = (data.end_distance(pts) > data.end_clearance) \
        & (data.chart_singular_distance(pts) > spacing / 4.0)
    pts = pts[keep]

    def magnitude(u):
        f1, f2 = section_values((data.s1, data.s2), u)
        return (np.abs(f1) ** 2 + np.abs(f2) ** 2) * np.abs(dom.form_weight(u))

    mags = magnitude(pts)
    norm = float(np.median(mags))
    if norm == 0:
        norm = 1.0
    h = max(abs(pts[1] - pts[0]), abs(U[1, 0] - U[0, 0]))
    found = []
    for c in pts[mags < np.sqrt(1e-8) * norm * 10]:
        u, size = c, h
        for _ in range(8):
            dx = np.linspace(-size, size, 12)
            local = (u + dx[:, None] + 1j * dx[None, :]).ravel()
            u = local[int(np.argmin(magnitude(local)))]
            size /= 5.0
        if magnitude(np.array([u]))[0] < 1e-8 * norm:
            if not any(dom.distance(u, f) < 10 * h for f in found):
                found.append(complex(u))
    return found, h


@pytest.fixture(scope="module")
def torus_zero_sections():
    """(label, s, number of zeros the scan finds at resolution 90)."""
    out = []
    for name, o3 in (("square", 1j), ("skew", 0.5 + 0.1j)):
        t4 = torus4_construct(build_context(1.0, o3))
        out += [(f"torus4-{name}-s1", t4.s1, 4), (f"torus4-{name}-s2", t4.s2, 2)]
    return out + [("klein-s1", klein4_construct().s1, 4)]


class TestBranchPointsOnTori:
    def test_zeros_of_a_section_against_the_per_candidate_loop(self, torus_zero_sections):
        # (s, c s) has a common zero exactly where s vanishes
        for label, s, count in torus_zero_sections:
            data = WeierstrassData(s1=s, s2=section_combination([0.6 - 0.8j], [s]))
            found = branch_points(data, resolution=90)
            want, h = _per_candidate_branch_points(data, 90)
            assert len(found) == count, label
            assert found == want, label
            (f,), (df,) = section_values((s,), np.array(found), derivative=True)
            # Newton's distance to the zero is within the last round's grid step
            assert np.all(np.abs(f / df) < 2 * h / 5**7 / 11), label


class TestSphere4Geometry:
    def test_end_loop_periods_vanish(self, sphere4_data):
        fam, data = sphere4_data
        for p in fam.ends.points[:3]:
            assert np.linalg.norm(integrate_position(data, _octagon(p, 0.3))) < 1e-7

    def test_mesh_loops(self, sphere4_data):
        _, data = sphere4_data
        grid = GridSpec(nx=61, ny=61, extent=2.0)
        mesh = integrate_surface(data, grid, -1.0 - 1.0j)
        assert quadrature_loop_residual(data, grid) < 1e-7 * mesh.metadata["mesh_scale"]
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

    def test_klein_branch_scan_empty(self):
        kb = klein4_construct()
        data = WeierstrassData(s1=kb.s1, s2=kb.s2)
        assert branch_points(data, resolution=90) == []


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
        mesh = SurfaceMesh(vertices=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=int),
                           gauss=np.zeros((0, 3)), domain_uv=np.zeros(0, dtype=complex))
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


B = surface._BLOCK
# zeros, the smallest subnormal, the largest magnitudes and an integer
# beyond 2**53 among the random values
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0**53 + 1])


def _random_values(rng, shape):
    """Random signs and exponents over the whole double range, a fifth SPECIAL."""
    x = rng.choice([-1.0, 1.0], shape) * np.ldexp(rng.uniform(1.0, 2.0, shape),
                                                  rng.integers(-1074, 1023, shape))
    return np.where(rng.random(shape) < 0.2, rng.choice(SPECIAL, shape), x)


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


class TestBlocks:
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(m=st.sampled_from([0, 1, B, B + 1, 2 * B + 1]), seed=st.integers(0, 2**32 - 1))
    def test_exports_are_the_one_template_text(self, n, m, seed):
        rng = np.random.default_rng(seed)
        mesh = SurfaceMesh(vertices=_random_values(rng, (n, 3)),
                           faces=rng.integers(0, 10**6, (m, 3)),
                           gauss=_random_values(rng, (n, 3)),
                           domain_uv=_random_values(rng, n) + 1j * _random_values(rng, n))
        obj, csv = _one_template_texts(mesh)
        with tempfile.TemporaryDirectory() as d:
            assert export_obj(mesh, Path(d) / "m.obj").read_bytes() == obj.encode()
            assert export_csv(mesh, Path(d) / "m.csv").read_bytes() == csv.encode()

    @pytest.mark.parametrize("name, build, grid", [
        ("sphere4", {}, 33),
        ("torus4", {"omega1": 1.0, "omega3": 0.5 + 0.1j}, 33),
        ("klein4", {}, 17),
    ])
    def test_a_mesh_does_not_depend_on_the_block_size(self, monkeypatch, name, build, grid):
        # a block of 7 leaves a remainder in every block width of a SIMD or
        # BLAS loop, which a sum that is not pointwise would round apart
        entry = CONSTRUCTIONS[name]
        built = entry.build(**build)
        want = entry.mesh(built, GridSpec(grid, grid))
        monkeypatch.setattr(surface, "_BLOCK", 7)
        got = entry.mesh(built, GridSpec(grid, grid))
        assert len(got.vertices) > 7 * 10
        for key in ("vertices", "gauss", "faces"):
            a, b = getattr(want, key), getattr(got, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
        assert repr(got.metadata) == repr(want.metadata)

    def test_export_memory_is_bounded_by_the_block(self, tmp_path):
        # face indices below 256 are Python's cached ints, which keeps the
        # traced allocations, and so the test's time, to the floats
        peaks = []
        for n in (3 * B, 6 * B):
            rng = np.random.default_rng(n)
            mesh = SurfaceMesh(vertices=rng.standard_normal((n, 3)),
                               faces=rng.integers(0, 256, (2 * n, 3)),
                               gauss=rng.standard_normal((n, 3)),
                               domain_uv=np.zeros(n, dtype=complex))
            tracemalloc.start()
            try:
                export_obj(mesh, tmp_path / "m.obj")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


class TestTorusMesh:
    def test_torus4_mesh_integrates(self):
        from spinorminimal.elliptic import build_context
        from spinorminimal.moduli import torus4_construct
        t4 = torus4_construct(build_context(1.0, 1.0j))
        data = WeierstrassData(s1=t4.s1, s2=t4.s2)
        base = 0.5 * 2 * t4.ctx.omega1 + 0.25 * 2 * t4.ctx.omega3
        # snap to a grid point: fractions k/(n-1)
        base = (24 / 48) * 2 * t4.ctx.omega1 + (12 / 48) * 2 * t4.ctx.omega3
        mesh = integrate_surface(data, GridSpec(nx=49, ny=49), base)
        assert mesh.metadata["vertex_count"] > 1000
        scale = mesh.metadata["mesh_scale"]
        assert quadrature_loop_residual(data, GridSpec(nx=49, ny=49)) < 1e-6 * scale
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
        dom = SphereDomain(ends=EndDivisor(()))
        s1, s2 = rational_sphere_basis(dom, [([0.0, 1.0], [1.0]), ([1.0], [1.0])], ("z", "1"))
        data = WeierstrassData(s1=s1, s2=s2, end_clearance=0.1)
        u = np.array([0.5, 0.0, 1j])
        n = gauss_map(data, u)
        assert np.array_equal(n[1], [0.0, 0.0, 1.0])
        for k in (0, 2):
            assert np.allclose(n[k], _scalar_gauss(data, u[k]), atol=1e-15)

    def test_branch_point_in_an_array_raises(self):
        dom = SphereDomain(ends=EndDivisor(()))
        (zsec,) = rational_sphere_basis(dom, [([0.0, 1.0], [1.0])], ("z phi",))
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
        U = _grid_coordinates(data, GridSpec(nx=33, ny=33))
        u = U.ravel()
        singular = np.min([dom.distance(u, p) for p in extra], axis=0) if extra \
            else np.full(u.shape, np.inf)
        oracle = (data.end_distance(u) > data.end_clearance) & (singular > 1e-9)
        assert np.array_equal(_valid_mask(data, U), oracle.reshape(U.shape))
