"""Weierstrass layer tests: invariants, identities, and parities."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinorminimal import elliptic
from spinorminimal.acceptance import ACCEPTANCE_LATTICES
from spinorminimal.elliptic import (
    DegenerateLatticeError,
    EllipticContext,
    Lattice,
    PoleEvaluationError,
    build_context,
    wp,
    wp_inverse,
    wp_prime,
    wp_second,
    wp_with_prime,
    zeta,
)
from spinorminimal.numkit import NonConvergenceError
from spinorminimal.spinor import EndDivisor, FormPrimitive, TwistedTorusDomain

from mp_weierstrass import MpWeierstrass


@pytest.fixture(scope="module", params=[lattice for _, lattice in ACCEPTANCE_LATTICES],
                ids=[name for name, _ in ACCEPTANCE_LATTICES])
def ctx(request):
    return build_context(*request.param)


def interior_points(ctx, count, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.06, 0.44, count)
    y = rng.uniform(0.06, 0.44, count)
    return x * 2 * ctx.omega1 + y * 2 * ctx.omega3


class TestBuildContext:
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

    def test_one_theta_frame_per_build(self, ctx, count_calls):
        # the half-periods, b1/2 and the ODE points share one frame, and a
        # frame's values do not depend on its batch: each e_i is bitwise wp
        # at its half-period, alone and in one batch of the three
        frames = count_calls(elliptic, "_theta_frame")
        built = build_context(ctx.omega1, ctx.omega3)
        assert len(frames) == 1
        e = np.array([built.e1, built.e2, built.e3])
        half = np.array([built.half_period(i) for i in (1, 2, 3)])
        assert e.tobytes() == wp(built, half).tobytes()
        assert e.tobytes() == np.array([wp(built, h) for h in half]).tobytes()

    def test_square_lattice_symmetry(self):
        ctx = build_context(1.0, 1.0j)
        assert abs(ctx.e2) < 1e-12
        assert ctx.e3 == pytest.approx(-ctx.e1, rel=1e-12)

    def test_hexagonal_lattice_builds(self):
        # g2 = 0 here, so the g2 check must be scaled by the e_i, not by g2
        ctx = build_context(1.0, np.exp(1j * np.pi / 3))
        assert abs(ctx.g2) < 1e-9 * abs(ctx.e1) ** 2
        assert abs(ctx.e1 + ctx.e2 + ctx.e3) < 1e-10 * abs(ctx.e1)

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(DegenerateLatticeError):
            Lattice(1.0, 2.0)
        with pytest.raises(DegenerateLatticeError):
            Lattice(1.0, 0.0)

    def test_orientation_flip(self):
        lat = Lattice(1.0, -1.0j)
        assert (lat.omega3 / lat.omega1).imag > 0

    @pytest.mark.parametrize("omega3", [0.5 + 0.05j, 0.5 + 0.02j])
    def test_thin_lattice_builds(self, omega3):
        # reduced tau = -0.5+5i and -0.5+12.5i: far from the square, but
        # well inside the range the reduced-basis series cover
        ctx = build_context(1.0, omega3)
        b1, b2 = ctx.lattice.reduced_periods
        g2 = _g2_lattice_sum(b1, b2)
        assert abs(ctx.g2 - g2) <= 1e-6 * abs(g2)
        assert abs(ctx.eta1 * ctx.omega3 - ctx.eta3 * ctx.omega1 - 1j * np.pi / 2) < 1e-10

    def test_too_thin_lattice_raises_typed_error(self):
        # reduced tau = -0.5 + i*im_tau: the theta terms overflow, and the
        # NaN invariants must fail their checks instead of being returned
        for im_tau in (60, 125):
            with pytest.raises(DegenerateLatticeError, match=f"tau = -0.5\\+{im_tau}j"):
                build_context(1.0, 0.5 + 0.25j / im_tau)

    @pytest.mark.parametrize("omega1, omega3, named", [
        # the invariants' w^-4 underflows to a division by zero
        (1e-150, 1e-150j, "half-periods (1e-150+0j, 0+1e-150j) is too small"),
        # |b1|^2 underflows in the reduction: small, thin, or thin after a shear
        (1e-170, 1e-170j, "half-periods (1e-170+0j, 0+1e-170j) is too small"),
        (1.0, 1e-200j, "half-periods (1+0j, 0+1e-200j) is too small"),
        (1.0, 1.0 + 1e-300j, "half-periods (1+0j, 1+1e-300j) is too small"),
        # reduced tau = 1e20 i: b1/2 lies within the pole tolerance of b2
        (1e10, 1e-10j, "half-periods (1e+10+0j, 0+1e-10j) is too small, too large or too thin"),
        # the invariants build, and g2's check reads NaN against a scale |e|^2 of inf
        (1e-80, 1e-80j, "g2 = -4*sum(ei*ej) fails by nan (tolerance inf) in the reduced basis, "
                        "tau = 0+1j: the lattice of half-periods (1e-80+0j, 0+1e-80j) is too "
                        "small, too large or too thin"),
        # the invariants build, and the wp ODE's residual reads NaN: a square
        # lattice, whose scale alone is out of range
        (1e-70, 1e-70j, "wp ODE fails by nan (tolerance nan) in the reduced basis, tau = 0+1j: "
                        "the lattice of half-periods (1e-70+0j, 0+1e-70j) is too small, too "
                        "large or too thin"),
    ])
    def test_an_unrepresentable_lattice_raises_typed_error(self, omega1, omega3, named):
        with pytest.raises(DegenerateLatticeError, match=re.escape(named)):
            build_context(omega1, omega3)


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


class DegeneratePairError(ValueError):
    """wp(u) = wp(v), so the zeta quasi-addition formula degenerates."""


def zeta_quasi_addition(ctx: EllipticContext, u, v):
    """(1/2)(wp'(u)+wp'(v))/(wp(u)-wp(v)) = zeta(u-v) - zeta(u) + zeta(v)."""
    pu, pv = wp(ctx, u), wp(ctx, v)
    den = pu - pv
    scale = max(abs(pu), abs(pv), 1.0)
    if np.min(np.abs(np.atleast_1d(den))) < 1e-12 * scale:
        raise DegeneratePairError("wp(u) = wp(v)")
    return 0.5 * (wp_prime(ctx, u) + wp_prime(ctx, v)) / den


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


def _principal_part(ctx, poles, probe):
    """(Phi, form) of a FormPrimitive with no constant and the given
    (location, coefficient) double poles, at the probe."""
    dom = TwistedTorusDomain(ends=EndDivisor(tuple(a for a, _ in poles)), ctx=ctx)
    prim = FormPrimitive(dom, dom.ends.points, np.zeros((1, 1)),
                         np.array([[c for _, c in poles]], dtype=complex), 0.0)
    phi, form, _ = prim.evaluate(probe)
    return phi[0], form[0]


class TestPrincipalPart:
    def test_single_pole(self, ctx):
        probe = 0.31 * 2 * ctx.omega1 + 0.17 * 2 * ctx.omega3
        phi, val = _principal_part(ctx, [(0.0, 1.0)], probe)
        assert val == pytest.approx(wp(ctx, probe), rel=1e-12)
        assert phi == pytest.approx(-zeta(ctx, probe), rel=1e-12)

    def test_opposite_poles_even(self, ctx):
        a = 0.2 * 2 * ctx.omega1 + 0.1 * 2 * ctx.omega3
        poles = [(a, 0.7), (-a, 0.7)]
        probe = 0.37 * 2 * ctx.omega1 + 0.29 * 2 * ctx.omega3
        plus = _principal_part(ctx, poles, probe)[1]
        minus = _principal_part(ctx, poles, -probe)[1]
        assert plus == pytest.approx(minus, rel=1e-10)


class TestWpInverse:
    def test_roundtrip(self, ctx):
        rng = np.random.default_rng(13)
        for _ in range(5):
            target = complex(rng.standard_normal(), rng.standard_normal()) * abs(ctx.e1)
            u = wp_inverse(ctx, target)
            # the Lattice.reduce representative, wherever Newton lands
            assert complex(ctx.lattice.reduce(u)[0]) == u
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
        assert (b2 / b1).imag > 0
        for b in (b1, b2):
            assert ctx.lattice_distance(b) < 1e-12
        area = abs((b1.conjugate() * b2).imag)
        cell = abs(((2 * ctx.omega1).conjugate() * 2 * ctx.omega3).imag)
        assert area == pytest.approx(cell, rel=1e-12)


def _g2_lattice_sum(b1, b2):
    """g2 = 60 * sum' lambda^-4 over lambda = m*b1 + n*b2, |m|, |n| <= M,
    Richardson-extrapolated in the cutoff.

    The truncation error of the sum scales like M^-2, so two cutoffs M and
    2M give the extrapolation S_2M + (S_2M - S_M)/3.  Take it on a reduced
    basis: on a skewed one the box |m|, |n| <= M is a thin sliver of the
    plane, and on (1, 0.5+0.05i) the extrapolation was off by 2.8e-6.
    """
    def partial(M):
        m = np.arange(-M, M + 1)
        mm, nn = np.meshgrid(m, m)
        lam = mm * b1 + nn * b2
        lam = lam[(mm != 0) | (nn != 0)]
        return np.sum(lam**-4.0)

    s1 = partial(256)
    s2 = partial(512)
    return complex(60.0 * (s2 + (s2 - s1) / 3.0))


class TestOracles:
    """build_context against the lattice sum and mpmath on random lattices:
    a reduced basis (b1, b2) with tau = b2/b1 in the fundamental domain and
    Im(tau) up to 25, rotated and scaled, then given to build_context in the
    skewed basis (2*omega1, 2*omega3) = (a*b1 + b*b2, c*b1 + d*b2) with
    (a, b, c, d) = (1, k1, k2, 1 + k1*k2), of determinant 1."""

    @given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0),
           st.floats(-np.pi, np.pi), st.integers(-2, 2), st.integers(-2, 2),
           st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    # the hexagonal lattice, where g2 = 0 and the truncated lattice sum
    # leaves a cancellation error of size e_i^2, not of size g2
    @example(re_tau=0.5, thinness=0.0, size=1.0, angle=0.0, k1=0, k2=0, seed=0)
    def test_random_lattices(self, re_tau, thinness, size, angle, k1, k2, seed):
        lo = np.sqrt(1.0 - re_tau**2)
        tau = complex(re_tau, lo * (25.0 / lo) ** thinness)
        b1 = size * np.exp(1j * angle)
        b2 = b1 * tau
        a, b, c, d = 1, k1, k2, 1 + k1 * k2
        ctx = build_context((a * b1 + b * b2) / 2, (c * b1 + d * b2) / 2)
        e_scale = max(abs(ctx.e1), abs(ctx.e2), abs(ctx.e3))
        g2 = _g2_lattice_sum(b1, b2)
        assert abs(ctx.g2 - g2) <= 1e-6 * max(abs(g2), e_scale**2)

        mp = MpWeierstrass(b1, b2)
        eta_scale = abs(mp.eta_b1) + abs(mp.eta_b2)

        def close(got, want, scale):
            return abs(got - want) <= 1e-10 * max(abs(want), scale)

        for i in (1, 2, 3):
            assert close(ctx.e(i), mp.wp(ctx.half_period(i)), e_scale)
            assert ctx.e(i) == wp(ctx, ctx.half_period(i))
        # the quasi-periods of the given half-periods, by the same matrix
        assert close(ctx.eta1, complex(a * mp.eta_b1 + b * mp.eta_b2), eta_scale)
        assert close(ctx.eta3, complex(c * mp.eta_b1 + d * mp.eta_b2), eta_scale)
        legendre = ctx.eta1 * ctx.omega3 - ctx.eta3 * ctx.omega1 - 1j * np.pi / 2
        assert abs(legendre) <= 1e-12 * (abs(ctx.eta1 * ctx.omega3) + abs(ctx.eta3 * ctx.omega1))

        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.5, 1.5, 4) * b1 + rng.uniform(-1.5, 1.5, 4) * b2
        for uk, pk, zk in zip(u, wp(ctx, u), zeta(ctx, u)):
            assert close(pk, mp.wp(uk), e_scale)
            assert close(zk, mp.zeta(uk), eta_scale)
        for w, eta in ((ctx.omega1, ctx.eta1), (ctx.omega3, ctx.eta3)):
            jump = zeta(ctx, u + 2 * w) - zeta(ctx, u)
            assert np.max(np.abs(jump - 2 * eta)) <= 1e-10 * max(abs(eta), eta_scale)


class TestThetaKernel:
    """_Theta.batch, which sums theta1 and its derivatives from one
    exponential per point: against mpmath.jtheta at 30 digits, and alone
    against in a batch."""

    # the thin lattice has reduced tau = -0.5+25i
    @pytest.mark.parametrize("periods", [(1.0, 1j), (1.0, np.exp(1j * np.pi / 3)),
                                         (1.1 - 0.2j, 0.3 + 0.9j), (1.0, 0.5 + 0.01j)],
                             ids=["square", "hexagonal", "generic", "thin"])
    def test_matches_mpmath(self, periods):
        ctx = build_context(*periods)
        b1, b2 = ctx.lattice.reduced_periods
        tau = b2 / b1
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-0.5, 0.5, (2, 40))
        z = np.pi * (x + y * tau)
        got = ctx._theta.batch(z)
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            for zk, *values in zip(z, *got):
                zm = mpmath.mpc(zk)
                for d, value in enumerate(values):
                    want = complex(mpmath.jtheta(1, zm, q, d))
                    # the size of the series' terms, 2 |q^((n+1/2)^2)| k^d cosh(k Im z)
                    size = float(sum(2 * abs(q) ** ((n + 0.5) ** 2) * (2 * n + 1) ** d
                                     * mpmath.cosh((2 * n + 1) * zm.imag) for n in range(8)))
                    assert abs(value - want) <= 1e-13 * size

    def test_theta1_keeps_its_precision_near_zero(self, ctx):
        # theta1 ~ theta1'(0) z: E^k - E^-k alone would lose about
        # log10(1/|z|) digits there, and wp, zeta near a lattice point with them
        b1, b2 = ctx.lattice.reduced_periods
        z = np.array([r * np.exp(1j * phi) for r in (1e-3, 1e-6, 1e-9, 1e-12)
                      for phi in (0.3, 1.9, -2.4)])
        t0 = ctx._theta.batch(z)[0]
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(b2 / b1))
            for zk, value in zip(z, t0):
                want = complex(mpmath.jtheta(1, mpmath.mpc(zk), q))
                assert abs(value - want) <= 1e-13 * abs(want)

    def test_wp_with_prime_is_the_two_calls(self, ctx):
        u = np.array([0.3 + 0.2j, 1.7 - 0.4j, -0.9 + 1.1j])
        for at in (u, u[1]):
            p, dp = wp_with_prime(ctx, at)
            assert type(p) is type(wp(ctx, at)) and type(dp) is type(wp_prime(ctx, at))
            assert np.array_equal(p, wp(ctx, at)) and np.array_equal(dp, wp_prime(ctx, at))

    def test_a_point_alone_equals_its_batch_entry(self, ctx):
        # 131^2 points pass the 256 KiB from which numpy computes a product
        # with a temporary in place
        for n in (33, 131):
            s = np.linspace(-1.3, 1.3, n)
            u = (s[:, None] + 0.013) * 2 * ctx.omega1 + (s[None, :] + 0.029) * 2 * ctx.omega3
            batch = [f(ctx, u) for f in (wp, wp_prime, zeta)]
            rng = np.random.default_rng(4)
            for i, j in zip(rng.integers(0, n, 64), rng.integers(0, n, 64)):
                for f, values in zip((wp, wp_prime, zeta), batch):
                    assert f(ctx, u[i, j]) == values[i, j]


def test_wp_inverse_that_stalls_raises_non_convergence(monkeypatch):
    # a zero wp' stops Newton at the coarse scan's point, which misses the value
    ctx = build_context(1.0, 1.0j)
    monkeypatch.setattr(elliptic, "wp_with_prime", lambda ctx, u: (wp(ctx, u), 0j))
    with pytest.raises(NonConvergenceError, match="wp_inverse failed to converge"):
        wp_inverse(ctx, wp(ctx, 0.3 + 0.2j))
