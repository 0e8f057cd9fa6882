"""The closed-form primitive of s t and the mesh it gives, against quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal.cli import CONSTRUCTIONS
from spinorminimal.elliptic import build_context
from spinorminimal import moduli, spinor
from spinorminimal.moduli import (
    _torus_cycle,
    klein4_construct,
    sphere4_solve,
    sphere6_K_basis,
    torus3_admissible_pair,
    torus3_degeneracy,
    torus4_construct,
)
from spinorminimal.numkit import QuadraturePath
from spinorminimal.spinor import (
    EndDivisor,
    SectionDataError,
    basis_F_sphere,
    form_primitive,
    is_infinity,
    period_matrix,
)
from spinorminimal.surface import (
    GridSpec,
    WeierstrassData,
    integrate_position,
    integrate_surface,
    period_vector,
    real_period,
)


def _pairs(data):
    return ((data.s1, data.s1), (data.s2, data.s2), (data.s1, data.s2))


def _segment_clear(data, a, b, margin):
    path = a + (b - a) * np.linspace(0.0, 1.0, 201)
    return min(data.end_distance(path).min(), data.chart_singular_distance(path).min()) > margin


def _check_segment(data, a, b):
    """Phi(b) - Phi(a) against the adaptive quadrature of s t along [a, b],
    relative to the form's L1 size on the segment."""
    prim = form_primitive(_pairs(data))
    phi = prim.evaluate(np.array([a, b]))[0]
    form = prim.evaluate(a + (b - a) * np.linspace(0.0, 1.0, 201))[1]
    l1 = abs(b - a) * np.max(np.abs(form))
    quad = np.array(period_vector(data, QuadraturePath.segment(a, b)))
    assert np.max(np.abs(phi[:, 1] - phi[:, 0] - quad)) <= 1e-9 * l1


@pytest.fixture(scope="module")
def sphere4_data():
    fam = sphere4_solve()
    return WeierstrassData(*fam.K_basis)


def _torus4_data(w1, w3):
    t4 = torus4_construct(build_context(w1, w3))
    return WeierstrassData(s1=t4.s1, s2=t4.s2)


class TestRandomSegments:
    @given(st.floats(-0.5, 0.5), st.floats(0.9, 2.0), st.integers(-1, 1), st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_torus4_on_skewed_lattices(self, re_tau, im_tau, k, seed):
        # the lattice (1, tau) handed over in the skewed basis (1 + k tau, tau)
        tau = complex(re_tau, im_tau)
        data = _torus4_data((1 + k * tau) / 2, tau / 2)
        ctx = data.domain.ctx
        rng = np.random.default_rng(seed)
        for _ in range(200):
            a, b = (rng.uniform(0, 1, 2) @ np.array([2 * ctx.omega1, 2 * ctx.omega3])
                    for _ in range(2))
            if _segment_clear(data, a, b, 0.05):
                break
        else:
            pytest.fail("no segment clear of the ends")
        _check_segment(data, a, b)

    @given(st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_sphere4(self, sphere4_data, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            a, b = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
            if _segment_clear(sphere4_data, a, b, 0.05):
                break
        else:
            pytest.fail("no segment clear of the ends")
        _check_segment(sphere4_data, a, b)


@pytest.mark.parametrize("which", ["square", "generic", "klein"])
def test_quasi_periods(which):
    # Phi(u + 2 w_j) - Phi(u) = 2 (C w_j - eta_j sum_k c_k), the period of
    # s t on the cycle along 2 w_j; its real part vanishes for the meshed pair
    if which == "klein":
        kb = klein4_construct()
        data = WeierstrassData(s1=kb.s1, s2=kb.s2)
    else:
        data = _torus4_data(*{"square": (1.0, 1.0j), "generic": (1.1 - 0.2j, 0.3 + 0.9j)}[which])
    ctx = data.domain.ctx
    prim = form_primitive(_pairs(data))
    u = 0.31 * 2 * ctx.omega1 + 0.17 * 2 * ctx.omega3
    for k, w, eta in ((1, ctx.omega1, ctx.eta1), (3, ctx.omega3, ctx.eta3)):
        closed = 2 * (prim.poly[0] * w - eta * prim.c.sum(axis=1))
        jump = prim.evaluate(u + 2 * w)[0] - prim.evaluate(u)[0]
        quad = np.array(period_vector(data, _torus_cycle(ctx, k)))
        # the size of the terms: on the Klein bottle the periods cancel
        scale = np.max(np.abs(prim.poly[0] * w) + np.abs(eta * prim.c).sum(axis=1))
        assert np.max(np.abs(jump - closed)) <= 1e-12 * scale
        assert np.max(np.abs(quad - closed)) <= 1e-8 * scale
        assert np.max(np.abs(real_period(closed))) <= 1e-8 * scale


class TestPeriodMatrix:
    """period_matrix against the closed-form quasi-periods of form_primitive."""

    @pytest.fixture(scope="class")
    def klein(self):
        return klein4_construct()

    @pytest.mark.parametrize("which", ["square", "generic", "klein"])
    def test_every_pair_matches_the_quasi_period(self, which, request):
        # M[i, j] on the cycle along 2 w_j is 2 (C w_j - eta_j sum_k c_k) of
        # the primitive of s_i s_j, diagonal and off-diagonal alike
        if which == "klein":
            kb = request.getfixturevalue("klein")
            sections = (kb.s1, kb.s2)
        else:
            t4 = torus4_construct(build_context(
                *{"square": (1.0, 1.0j), "generic": (1.1 - 0.2j, 0.3 + 0.9j)}[which]))
            sections = tuple(t4.K_basis) + (t4.s1,)
        ctx = sections[0].domain.ctx
        i, j = np.triu_indices(len(sections))
        prim = form_primitive([(sections[a], sections[b]) for a, b in zip(i, j)])
        for k, w, eta in ((1, ctx.omega1, ctx.eta1), (3, ctx.omega3, ctx.eta3)):
            M = period_matrix(sections, _torus_cycle(ctx, k))
            assert np.array_equal(M, M.T)
            closed = 2 * (prim.poly[0] * w - eta * prim.c.sum(axis=1))
            scale = np.abs(prim.poly[0] * w) + np.abs(eta * prim.c).sum(axis=1)
            assert np.all(np.abs(M[i, j] - closed) <= 1e-9 * scale)

    def test_sections_on_two_bases_rejected(self):
        s, _, _ = basis_F_sphere(EndDivisor((0.5, -1.0, complex(np.inf, 0.0))))
        t, _, _ = basis_F_sphere(EndDivisor((0.5, -1.0, complex(np.inf, 0.0))))
        with pytest.raises(SectionDataError, match="share a basis"):
            period_matrix((s, t), QuadraturePath.segment(0.0, 2.0))

    @staticmethod
    def _quadratures(count_calls, fn):
        calls = count_calls(spinor, "contour_integral")
        fn()
        return len(calls)

    def test_one_quadrature_per_cycle(self, count_calls):
        ctx = build_context(1.0, 1.0j)
        a1 = 0.3 + 0.2j
        a2 = torus3_admissible_pair(ctx, a1)
        for fn in (lambda: torus4_construct(ctx), moduli.klein4_construct,
                   lambda: torus3_degeneracy(ctx, a1, a2)):
            assert self._quadratures(count_calls, fn) == 2


def _sphere6_mesh():
    (t1, t2), _, _ = sphere6_K_basis((0.0, 2.0 * np.sqrt(5.0) / 3.0, 0.0))
    data = WeierstrassData(s1=t1, s2=t2)
    return data, -1.5 - 1.5j, integrate_surface(data, GridSpec(nx=33, ny=33), -1.5 - 1.5j)


def _skew_torus4_mesh():
    t4 = CONSTRUCTIONS["torus4"].build(1.0, 0.5 + 0.1j)
    data = CONSTRUCTIONS["torus4"].weierstrass(t4)
    base = CONSTRUCTIONS["torus4"].basepoint(data.domain, 65)
    return data, base, integrate_surface(data, GridSpec(nx=65, ny=65), base)


@pytest.mark.parametrize("build", [_sphere6_mesh, _skew_torus4_mesh],
                         ids=["sphere6-grid33", "torus4-skew-grid65"])
def test_vertex_nearest_each_end_matches_quadrature(build):
    # the edge quadrature got these two meshes wrong next to the ends,
    # where the end clearance is below the grid step
    data, base, mesh = build()
    scale = mesh.metadata["mesh_scale"]
    assert mesh.metadata["identity_residual_max"] < 1e-12
    dom = data.domain
    for p in dom.ends.points:
        if is_infinity(p):
            continue
        k = int(np.argmin(dom.distance(mesh.domain_uv, p)))
        x = integrate_position(data, [QuadraturePath.segment(base, mesh.domain_uv[k])])
        assert np.max(np.abs(mesh.vertices[k] - x)) < 1e-9 * scale


def test_residue_carrying_pair_names_the_end():
    # phi/(z - a1) phi/(z - a2) has residue 1/(a1 - a2) at a1: a log end
    s, t, _ = basis_F_sphere(EndDivisor((0.5 + 0.3j, -1.2, complex(np.inf, 0.0))))
    with pytest.raises(SectionDataError, match=r"at the end \(0\.5\+0\.3j\)"):
        form_primitive([(s, t)])
    with pytest.raises(SectionDataError, match="log end"):
        integrate_surface(WeierstrassData(s1=s, s2=t, end_clearance=0.05),
                          GridSpec(nx=9, ny=9), -2.0 - 2.0j)


@pytest.mark.parametrize("name, build", [
    ("sphere4", {}),
    ("sphere6", {"sigma": (0.0, 2.0 * np.sqrt(5.0) / 3.0, 0.0)}),
    ("torus4", {"omega1": 1.0, "omega3": 0.5 + 0.1j}),
    ("klein4", {}),
])
def test_evaluate_is_pointwise(name, build):
    # the ends' terms are added in their order, point by point, so a point's
    # bits are the same alone, in blocks of 7 and in the whole batch
    entry = CONSTRUCTIONS[name]
    s1, s2 = entry.pair(entry.build(**build))
    prim = form_primitive(((s1, s1), (s2, s2), (s1, s2)))
    x, y = np.random.default_rng(19).uniform(0.0, 1.0, (2, 45))
    if s1.domain.genus == 1:
        u = x * 2 * s1.domain.ctx.omega1 + y * 2 * s1.domain.ctx.omega3
    else:
        u = 3.0 * (x - 0.5) + 3j * (y - 0.5)
    whole = prim.evaluate(u)
    blocks = [prim.evaluate(u[k:k + 7]) for k in range(0, len(u), 7)]
    for i, got in enumerate(whole):
        assert np.array_equal(got, np.concatenate([b[i] for b in blocks], axis=1))
        assert np.array_equal(got, np.stack([prim.evaluate(v)[i] for v in u], axis=1))
