"""Weierstrass layer tests: invariants, identities, and parities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal.elliptic import (
    DegenerateLatticeError,
    DegeneratePairError,
    EllipticContext,
    Lattice,
    PoleEvaluationError,
    build_context,
    principal_part_reconstruct,
    wp,
    wp_inverse,
    wp_prime,
    wp_second,
    zeta,
    zeta_quasi_addition,
)

# square, 2:1 and 3:1 rectangles, rhombic, generic
LATTICES = [
    (1.0, 1.0j),
    (1.0, 2.0j),
    (1.5, 0.5j),
    (1.0 + 0.4j, 1.0 - 0.4j),
    (1.1 - 0.2j, 0.3 + 0.9j),
]


@pytest.fixture(scope="module", params=LATTICES, ids=["square", "rect2", "rect3", "rhombic", "generic"])
def ctx(request):
    return build_context(*request.param)


def interior_points(ctx, count, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.06, 0.44, count)
    y = rng.uniform(0.06, 0.44, count)
    return x * 2 * ctx.omega1 + y * 2 * ctx.omega3


class TestBuildContext:
    def test_nome_convention_resolved(self, ctx):
        assert ctx.nome_convention == "q=exp(2*i*pi*tau)"

    def test_e_sum_zero(self, ctx):
        scale = max(abs(ctx.e1), abs(ctx.e3))
        assert abs(ctx.e1 + ctx.e2 + ctx.e3) < 1e-10 * scale

    def test_invariants_from_e(self, ctx):
        g2 = -4 * (ctx.e1 * ctx.e2 + ctx.e1 * ctx.e3 + ctx.e2 * ctx.e3)
        g3 = 4 * ctx.e1 * ctx.e2 * ctx.e3
        assert abs(g2 - ctx.g2) < 1e-10 * abs(ctx.g2)
        assert abs(g3 - ctx.g3) <= 1e-10 * max(abs(ctx.g3), abs(ctx.g2))

    def test_legendre_relation(self, ctx):
        assert abs(ctx.eta1 * ctx.omega3 - ctx.eta3 * ctx.omega1 - 1j * np.pi / 2) < 1e-10

    def test_e_at_half_periods(self, ctx):
        for i in (1, 2, 3):
            assert wp(ctx, ctx.half_period(i)) == pytest.approx(ctx.e(i), abs=1e-10 * max(1, abs(ctx.e(i))))

    def test_square_lattice_symmetry(self):
        ctx = build_context(1.0, 1.0j)
        assert abs(ctx.e2) < 1e-12
        assert ctx.e3 == pytest.approx(-ctx.e1, rel=1e-12)

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            Lattice(1.0, 2.0)
        with pytest.raises(DegenerateLatticeError):
            Lattice(1.0, 0.0)

    def test_orientation_flip(self):
        lat = Lattice(1.0, -1.0j)
        assert lat.tau.imag > 0


class TestEvaluators:
    def test_ode_residual(self, ctx):
        u = interior_points(ctx, 100)
        p = wp(ctx, u)
        dp = wp_prime(ctx, u)
        resid = dp**2 - (4 * p**3 - ctx.g2 * p - ctx.g3)
        scale = np.abs(dp) ** 2 + np.abs(4 * p**3) + abs(ctx.g2) * np.abs(p) + abs(ctx.g3)
        assert np.max(np.abs(resid) / scale) < 1e-8

    def test_parity(self, ctx):
        u = interior_points(ctx, 20, seed=5)
        assert np.max(np.abs(wp(ctx, -u) - wp(ctx, u))) < 1e-10 * np.max(np.abs(wp(ctx, u)))
        assert np.max(np.abs(wp_prime(ctx, -u) + wp_prime(ctx, u))) < 1e-10 * np.max(np.abs(wp_prime(ctx, u)))
        assert np.max(np.abs(zeta(ctx, -u) + zeta(ctx, u))) < 1e-10 * np.max(np.abs(zeta(ctx, u)))

    def test_periodicity_and_quasi_periodicity(self, ctx):
        u = interior_points(ctx, 8, seed=6)
        for i, (w, eta) in enumerate([(ctx.omega1, ctx.eta1), (ctx.omega3, ctx.eta3)]):
            assert np.max(np.abs(wp(ctx, u + 2 * w) - wp(ctx, u))) < 1e-9 * np.max(np.abs(wp(ctx, u)))
            assert np.max(np.abs(zeta(ctx, u + 2 * w) - zeta(ctx, u) - 2 * eta)) < 1e-10 * max(
                1, np.max(np.abs(zeta(ctx, u))))

    def test_expansion_at_origin(self, ctx):
        # wp = 1/u^2 + g2 u^2/20 + g3 u^4/28 + g2^2 u^6/1200 + 3 g2 g3 u^8/6160 + ...
        for frac in (0.02, 0.05, 0.1):
            u = frac * ctx.omega1
            model = (1 / u**2 + ctx.g2 * u**2 / 20 + ctx.g3 * u**4 / 28
                     + ctx.g2**2 * u**6 / 1200 + 3 * ctx.g2 * ctx.g3 * u**8 / 6160)
            assert abs(wp(ctx, u) - model) < 1e-8 * abs(wp(ctx, u)) + 1e-10

    def test_zeta_normalized_at_origin(self, ctx):
        u = 1e-3 * ctx.omega1
        assert abs(zeta(ctx, u) - 1 / u) < 1e-4

    def test_wp_prime_vanishes_at_half_periods(self, ctx):
        for i in (1, 2, 3):
            assert abs(wp_prime(ctx, ctx.half_period(i))) < 1e-9 * max(1.0, abs(ctx.e(i)) ** 1.5)

    def test_addition_by_half_period(self, ctx):
        u = interior_points(ctx, 10, seed=8)
        perms = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
        for i, (j, k) in perms.items():
            lhs = wp(ctx, u - ctx.half_period(i))
            rhs = ctx.e(i) + (ctx.e(i) - ctx.e(j)) * (ctx.e(i) - ctx.e(k)) / (wp(ctx, u) - ctx.e(i))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))

    def test_pole_rejection(self, ctx):
        with pytest.raises(PoleEvaluationError):
            wp(ctx, 0.0)
        with pytest.raises(PoleEvaluationError):
            zeta(ctx, 2 * ctx.omega1 + 2 * ctx.omega3 + 1e-14)

    def test_real_rectangular_conjugation(self):
        ctx = build_context(1.5, 0.5j)
        u = interior_points(ctx, 10, seed=9)
        assert np.max(np.abs(np.conj(wp(ctx, np.conj(u))) - wp(ctx, u))) < 1e-10 * np.max(np.abs(wp(ctx, u)))

    def test_wp_second(self, ctx):
        u = interior_points(ctx, 5, seed=10)
        h = 1e-5 * abs(ctx.omega1)
        numeric = (wp_prime(ctx, u + h) - wp_prime(ctx, u - h)) / (2 * h)
        assert np.max(np.abs(wp_second(ctx, u) - numeric)) < 1e-5 * np.max(np.abs(numeric))


class TestZetaQuasiAddition:
    def test_identity_random(self, ctx):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = complex(rng.uniform(0.05, 0.45), 0) * 2 * ctx.omega1 + rng.uniform(0.05, 0.45) * 2 * ctx.omega3
            v = complex(rng.uniform(0.55, 0.93), 0) * 2 * ctx.omega1 + rng.uniform(0.05, 0.45) * 2 * ctx.omega3
            lhs = zeta_quasi_addition(ctx, u, v)
            rhs = zeta(ctx, u - v) - zeta(ctx, u) + zeta(ctx, v)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_u_equals_2v(self, ctx):
        v = 0.21 * 2 * ctx.omega1 + 0.13 * 2 * ctx.omega3
        u = 2 * v
        lhs = zeta_quasi_addition(ctx, u, v)
        rhs = zeta(ctx, u - v) - zeta(ctx, u) + zeta(ctx, v)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_degenerate_pair_rejected(self, ctx):
        u = 0.2 * ctx.omega1 + 0.3 * ctx.omega3
        with pytest.raises(DegeneratePairError):
            zeta_quasi_addition(ctx, u, -u)


class TestPrincipalPart:
    def test_single_pole(self, ctx):
        probe = 0.31 * 2 * ctx.omega1 + 0.17 * 2 * ctx.omega3
        val = principal_part_reconstruct(ctx, [(0.0, 1.0)], probe)
        assert val == pytest.approx(wp(ctx, probe), rel=1e-12)

    def test_opposite_poles_even(self, ctx):
        a = 0.2 * 2 * ctx.omega1 + 0.1 * 2 * ctx.omega3
        poles = [(a, 0.7), (-a, 0.7)]
        probe = 0.37 * 2 * ctx.omega1 + 0.29 * 2 * ctx.omega3
        plus = principal_part_reconstruct(ctx, poles, probe)
        minus = principal_part_reconstruct(ctx, poles, -probe)
        assert plus == pytest.approx(minus, rel=1e-10)


class TestWpInverse:
    def test_roundtrip(self, ctx):
        rng = np.random.default_rng(13)
        for _ in range(5):
            target = complex(rng.standard_normal(), rng.standard_normal()) * abs(ctx.e1)
            u = wp_inverse(ctx, target)
            assert abs(wp(ctx, u) - target) < 1e-9 * max(1.0, abs(target))


@given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.15, 3.0))
@settings(max_examples=15, deadline=None)
def test_legendre_holds_for_hypothesis_lattices(x, y, aspect):
    # generators kept away from degeneracy by construction
    ctx = build_context(1.0, complex(x - 0.5, aspect))
    assert abs(ctx.eta1 * ctx.omega3 - ctx.eta3 * ctx.omega1 - 1j * np.pi / 2) < 1e-10
    u = (0.1 + 0.31 * x) * 2 * ctx.omega1 + (0.1 + 0.3 * y) * 2 * ctx.omega3
    p, dp = wp(ctx, u), wp_prime(ctx, u)
    resid = dp**2 - (4 * p**3 - ctx.g2 * p - ctx.g3)
    scale = abs(dp) ** 2 + abs(4 * p**3) + abs(ctx.g2 * p) + abs(ctx.g3)
    assert abs(resid) < 1e-8 * scale


def _brute_lattice_distance(w1, w3, u):
    """Nearest lattice point by scanning every point that can be nearest."""
    p1, p3 = 2 * complex(w1), 2 * complex(w3)
    area = abs((p1.conjugate() * p3).imag)
    x = (u * p3.conjugate()).imag / -(p1.conjugate() * p3).imag
    y = (u * p1.conjugate()).imag / (p1.conjugate() * p3).imag
    centre = np.round(x) * p1 + np.round(y) * p3
    # the nearest point lies within |p1| + |p3| of the rounded one, so its
    # coordinates differ from the rounded ones by at most that over the
    # shorter cell height
    k = int(np.ceil((abs(p1) + abs(p3)) / (area / max(abs(p1), abs(p3))))) + 1
    n = np.arange(-k, k + 1)
    best = np.full(u.shape, np.inf)
    for m in n:
        lam = centre[:, None] + m * p1 + n[None, :] * p3
        best = np.minimum(best, np.min(np.abs(u[:, None] - lam), axis=1))
    return best


class TestLatticeDistance:
    @given(st.floats(-1.5, 1.5), st.floats(0.05, 2.0), st.floats(0.3, 3.0),
           st.floats(-np.pi, np.pi), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_on_random_lattices(self, re_tau, im_tau, size, angle, seed):
        w1 = size * np.exp(1j * angle)
        w3 = w1 * complex(re_tau, im_tau)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-2, 2, 300) * 2 * w1 + rng.uniform(-2, 2, 300) * 2 * w3
        got = Lattice(w1, w3).distance(u)
        assert got.shape == u.shape
        want = _brute_lattice_distance(w1, w3, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * (abs(w1) + abs(w3))

    def test_context_uses_the_exact_distance(self, ctx):
        u = interior_points(ctx, 50) * 3.1 - 0.7 * ctx.omega3
        assert np.array_equal(ctx.lattice_distance(u), ctx.lattice.distance(u))

    def test_scalar_gives_float_and_matches_array(self):
        ctx = build_context(1.0, 0.5 + 0.1j)
        u = np.array([0.3 + 0.05j, 0.904 + 0.049j, 1.7 - 0.4j])
        d = ctx.lattice_distance(u)
        for uk, dk in zip(u, d):
            got = ctx.lattice_distance(uk)
            assert isinstance(got, float) and got == dk

    def test_skewed_lattice_point_off_the_rounded_one(self):
        # (1, 0.5+0.1i): rounding in the given basis picks the lattice
        # point 0, 1.0 away, while 2*omega3 - 2*omega1 is at distance 0.2
        ctx = build_context(1.0, 0.5 + 0.1j)
        assert ctx.lattice_distance(-1.0) == pytest.approx(0.2, abs=1e-14)

    def test_reduced_periods_span_the_lattice(self, ctx):
        b1, b2 = ctx.lattice.reduced_periods
        assert abs(b1) <= abs(b2) <= min(abs(b2 - b1), abs(b2 + b1)) + 1e-15
        for b in (b1, b2):
            assert ctx.lattice_distance(b) < 1e-12
        area = abs((b1.conjugate() * b2).imag)
        cell = abs(((2 * ctx.omega1).conjugate() * 2 * ctx.omega3).imag)
        assert area == pytest.approx(cell, rel=1e-12)
