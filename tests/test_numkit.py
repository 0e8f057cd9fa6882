"""Tests for the linear-algebra/quadrature kernel.

The pfaffian oracles are the explicit term expansions for 4x4 and 6x6
skew matrices (sums over perfect matchings with crossing signs); the
production code never touches them.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spinorminimal.numkit import (
    NonConvergenceError,
    QuadraturePath,
    SkewMatrix,
    contour_integral,
    pfaffian,
    poly_roots,
    skew_rank_kernel,
)


def random_skew(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SkewMatrix.antisymmetrize(a)


def pfaffian_expansion_4(a):
    return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]


def pfaffian_expansion_6(m):
    """The printed 15-term expansion for a 6x6 skew matrix."""
    a = lambda i, j: m[i - 1, j - 1]
    return (
        a(1, 2) * a(3, 4) * a(5, 6) - a(1, 2) * a(3, 5) * a(4, 6) + a(1, 2) * a(3, 6) * a(4, 5)
        - a(1, 3) * a(2, 4) * a(5, 6) + a(1, 3) * a(2, 5) * a(4, 6) - a(1, 3) * a(2, 6) * a(4, 5)
        + a(1, 4) * a(2, 3) * a(5, 6) - a(1, 4) * a(2, 5) * a(3, 6) + a(1, 4) * a(2, 6) * a(3, 5)
        - a(1, 5) * a(2, 3) * a(4, 6) + a(1, 5) * a(2, 4) * a(3, 6) - a(1, 5) * a(2, 6) * a(3, 4)
        + a(1, 6) * a(2, 3) * a(4, 5) - a(1, 6) * a(2, 4) * a(3, 5) + a(1, 6) * a(2, 5) * a(3, 4)
    )


class TestPfaffian:
    def test_2x2(self):
        a = 2.3 - 0.7j
        m = SkewMatrix(np.array([[0, a], [-a, 0]]))
        assert pfaffian(m) == pytest.approx(a)

    def test_odd_is_exact_zero(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 5, 7):
            assert pfaffian(random_skew(n, rng)) == 0.0

    def test_block_4x4(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[2, 3] = 1.0
        m[1, 0] = m[3, 2] = -1.0
        assert pfaffian(SkewMatrix(m)) == pytest.approx(1.0)

    def test_square_is_determinant(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 6, 8):
            for _ in range(25):
                m = random_skew(n, rng)
                pf = pfaffian(m)
                det = np.linalg.det(m.entries)
                assert pf * pf == pytest.approx(det, rel=1e-9)

    def test_matches_term_expansions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m4 = random_skew(4, rng)
            assert pfaffian(m4) == pytest.approx(pfaffian_expansion_4(m4.entries), rel=1e-10)
            m6 = random_skew(6, rng)
            assert pfaffian(m6) == pytest.approx(pfaffian_expansion_6(m6.entries), rel=1e-10)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[1e-6, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("scale", [4.0**-20, 1.0, 4.0**20])
    def test_skewness_is_read_against_the_matrix_scale(self, scale):
        # max|a + a^T| against SKEW_CONSTRUCTION_TOL = 1e-12 of max|a|: an
        # asymmetry of twice it is refused and one of half accepted, and the
        # power of four scales both sides exactly, so at every scale
        def skew(asymmetry):
            return SkewMatrix(scale * np.array([[0.0, 1.0], [asymmetry - 1.0, 0.0]]))
        with pytest.raises(ValueError, match="not skew"):
            skew(2e-12)
        skew(0.5e-12)
        skew(0.0)
        SkewMatrix(scale * np.zeros((3, 3)))

    def test_refuses_a_tiny_asymmetric_matrix_and_a_nan(self):
        # the old floor max(1, max|a|) took [[0, 1e-20], [0, 0]] as skew
        with pytest.raises(ValueError, match="not skew"):
            SkewMatrix(np.array([[0.0, 1e-20], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not skew"):
            SkewMatrix(np.array([[0.0, np.nan], [1.0, 0.0]]))


class TestSkewRankKernel:
    def test_zero_matrix(self):
        m = SkewMatrix(np.zeros((4, 4)))
        rank, kernel = skew_rank_kernel(m)
        assert rank == 0
        assert len(kernel) == 4

    def test_invertible_2x2(self):
        m = SkewMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rank, kernel = skew_rank_kernel(m)
        assert rank == 2
        assert kernel == []

    def test_kernel_vectors_annihilated_and_orthonormal(self):
        rng = np.random.default_rng(3)
        for n in (4, 6, 8):
            base = random_skew(n - 2, rng).entries
            m = np.zeros((n, n), dtype=complex)
            m[: n - 2, : n - 2] = base  # rank <= n-2 by construction
            m = SkewMatrix.antisymmetrize(m)
            rank, kernel = skew_rank_kernel(m)
            assert rank % 2 == 0
            assert rank + len(kernel) == n
            norm = np.max(np.abs(m.entries))
            for v in kernel:
                assert np.linalg.norm(m.entries @ v) < 1e-9 * norm * 10
            for i, v in enumerate(kernel):
                for j, w in enumerate(kernel):
                    expected = 1.0 if i == j else 0.0
                    assert abs(np.vdot(v, w) - expected) < 1e-10

    @given(st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_rank_always_even(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = random_skew(n, rng)
        rank, _ = skew_rank_kernel(m)
        assert rank % 2 == 0


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots((-1.0, 0.0, 1.0))
        assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0])

    def test_sphere_quartic_root(self):
        # (a^2 - sqrt(3) a + 1)(a^2 + sqrt(3) a + 1) = a^4 - a^2 + 1
        roots = poly_roots((1.0, 0.0, -1.0, 0.0, 1.0))
        target = (np.sqrt(3.0) + 1j) / 2.0
        assert min(abs(r - target) for r in roots) < 1e-12

    def test_klein_quartic_fourth_quadrant(self):
        m = -2.0 * (1.0 - 4.0 * np.sqrt(2.0) * 1j) / 3.0
        roots = poly_roots((1.0, 0.0, m, 0.0, 1.0))
        fourth = [r for r in roots if r.real > 0 and r.imag < 0]
        assert len(fourth) == 1

    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            deg = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            for r in poly_roots(tuple(coeffs)):
                scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
                assert abs(np.polynomial.polynomial.polyval(r, coeffs)) <= 1e-10 * scale

    def test_an_overflowing_residual_is_not_convergence(self):
        # z^2 (1 + 1e-300 z): at the root -1e300 both the residual and the
        # scale overflow to inf, and inf <= inf must not pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="residual inf"):
                poly_roots((0.0, 0.0, 1.0, 1e-300))

    def test_degree_zero_rejected(self):
        # also after the trailing zeros are dropped, and with no coefficient
        for coeffs in ((3.0,), (3.0, 0.0, 0.0), (0.0, 0.0), ()):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                poly_roots(coeffs)


_GL = 16


def _per_level_integral(f, path, rel_tol):
    """contour_integral's rule with one call of f on every node of each level:
    (the integral, the number of nodes of each call)."""
    z0, z1 = path.start, path.end
    sizes = []
    if path.kind == "segment":
        x, wx = np.polynomial.legendre.leggauss(_GL)

        def level(n):
            panels = n // _GL
            t0 = np.linspace(0.0, 1.0, panels + 1)
            mid = (t0[:-1, None] + t0[1:, None]) / 2.0
            half = (t0[1:, None] - t0[:-1, None]) / 2.0
            t = (mid + half * x[None, :]).ravel()
            return t, (z1 - z0) * np.ones_like(t), (half * wx[None, :]).ravel()
        n = _GL * math.ceil(path.samples / _GL)
    else:
        def level(n):
            return np.arange(n) / n, np.full(n, (z1 - z0) / n), 1.0
        n = path.samples // 2

    def sums(n):
        t, dz, w = level(n)
        sizes.append(t.size)
        terms = np.asarray(f(z0 + (z1 - z0) * t), dtype=complex) * dz * w
        return np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)

    prev, _ = sums(n)
    while True:
        n *= 2
        cur, l1 = sums(n)
        if np.all(np.abs(cur - prev) <= rel_tol * np.abs(cur) + 500 * np.finfo(float).eps * l1):
            return (complex(cur) if cur.ndim == 0 else cur), sizes
        prev = cur


def _circle(c, r, f):
    """f dz/dx on the circle z = c + r e^(2 pi i x), for a period path on [0, 1]."""
    def on_circle(x):
        dz = 2j * np.pi * r * np.exp(2j * np.pi * x)
        return f(c + dz / (2j * np.pi)) * dz
    return on_circle


class TestContourIntegral:
    def test_residue_theorem(self):
        # e^z / (z - a) around a circle that holds a
        a = 0.3 - 0.2j
        f = _circle(0.1j, 1.2, lambda z: np.exp(z) / (z - a))
        val = contour_integral(f, QuadraturePath.period(0.0, 1.0), rel_tol=1e-12)
        assert val == pytest.approx(2j * np.pi * np.exp(a), rel=1e-13)

    def test_segment(self):
        path = QuadraturePath.segment(0.0, 1.0)
        assert contour_integral(lambda z: z, path) == pytest.approx(0.5, rel=1e-12)

    def test_orientation(self):
        # the period path from 1 to 0 runs the circle clockwise
        a = 0.3 - 0.2j
        f = _circle(0.1j, 1.2, lambda z: np.exp(z) / (z - a))
        val = contour_integral(f, QuadraturePath.period(1.0, 0.0), rel_tol=1e-12)
        assert val == pytest.approx(-2j * np.pi * np.exp(a), rel=1e-13)

    @given(st.integers(4, 64), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_trigonometric_polynomials_are_exact(self, half, seed):
        # N nodes integrate e^(2 pi i k x) exactly for 0 < |k| < N, so both
        # levels of the first call hold the mean of a degree < N/2 polynomial
        # to rounding, and it passes there
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(0, half))
        c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        k = np.arange(-degree, degree + 1)
        start, span = complex(*rng.uniform(-2, 2, 2)), complex(*rng.uniform(-2, 2, 2))
        f = lambda z: np.exp(2j * np.pi * np.outer((z - start) / span, k)) @ c
        calls = []
        got = contour_integral(lambda z: calls.append(z.size) or f(z),
                               QuadraturePath.period(start, start + span, 2 * half),
                               rel_tol=1e-12)
        assert calls == [2 * half]
        assert abs(got - span * c[degree]) <= 1e-13 * abs(span) * np.sum(np.abs(c))

    def test_doublings_evaluate_only_the_new_nodes(self, count_calls):
        # 1 / (1 - 0.9 e^(2 pi i x)) has mean 1 and Fourier coefficients 0.9^k:
        # it passes at 1024 nodes, and the calls hold each node once
        calls = count_calls(lambda x: 1.0 / (1.0 - 0.9 * np.exp(2j * np.pi * x)))
        got = contour_integral(calls.fn, QuadraturePath.period(0.0, 1.0, 16), rel_tol=1e-12)
        assert got == pytest.approx(1.0, rel=1e-13)
        assert [x.size for x, in calls] == [16, 16, 32, 64, 128, 256, 512]
        nodes = np.sort(np.concatenate([x.real for x, in calls]))
        assert np.array_equal(nodes, np.arange(1024) / 1024)

    def test_cancelling_integrand_passes_on_its_magnitudes(self):
        # K e^z e^-z - K is rounding noise of size eps K: its own L1 gives a
        # floor of order eps^2 K that the noise never meets, and the
        # magnitudes of the two uncancelled terms give one of order eps K
        K = 1e6
        z = lambda x: 3.0 * np.exp(2j * np.pi * x)
        terms = lambda x: (K * np.exp(z(x)) * np.exp(-z(x)), np.full(x.shape, K))
        path = QuadraturePath.period(0.0, 1.0)
        with pytest.raises(NonConvergenceError):
            contour_integral(lambda x: terms(x)[0] - terms(x)[1], path, rel_tol=1e-12)
        got = contour_integral(lambda x: (terms(x)[0] - terms(x)[1],
                                          np.abs(terms(x)[0]) + np.abs(terms(x)[1])),
                               path, rel_tol=1e-12)
        assert abs(got) <= 1e-13 * K

    def test_vector_integrand_matches_scalar_calls(self):
        # each entry to rel_tol of its own scalar integral, with its own
        # stopping test: the oscillating entry needs more panels than the
        # first, and the zero entry passes on its L1 floor
        path = QuadraturePath.segment(0.1, 1.7 + 0.1j)
        fs = [lambda z: 1.0 / (z + 2.0), np.exp, lambda z: np.sin(120 * z), lambda z: 0 * z]
        vec = contour_integral(lambda z: np.array([f(z) for f in fs]), path, rel_tol=1e-10)
        assert isinstance(vec, np.ndarray) and vec.shape == (4,)
        for f, v in zip(fs, vec):
            scalar = contour_integral(f, path, rel_tol=1e-10)
            assert type(scalar) is complex
            assert abs(v - scalar) <= 1e-10 * max(abs(scalar), 1e-300)

    def test_nonconvergence_signalled(self, count_calls):
        # |z|^(1/2)-type kink on the segment, and |sin(pi x)| across the
        # period path: neither stabilizes at 1e-14; the period path stops at
        # 16 * max_panels points
        path = QuadraturePath.segment(-1.0, 1.0)
        with pytest.raises(NonConvergenceError):
            contour_integral(lambda z: np.sqrt(np.abs(z)), path,
                             rel_tol=1e-14, max_panels=64)
        calls = count_calls(lambda x: np.abs(np.sin(np.pi * x)))
        with pytest.raises(NonConvergenceError):
            contour_integral(calls.fn, QuadraturePath.period(0.0, 1.0), rel_tol=1e-14,
                             max_panels=64)
        assert sum(x.size for x, in calls) == 1024

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_first_doubling_takes_one_call(self, count_calls, rows, data):
        # the first level and its doubling come from one call of f on the
        # nodes of both levels, each later level from one call; on a segment
        # the result is bitwise that of one call per level, and on a period
        # path, whose later calls take only the new nodes, equal to rounding;
        # rows = 0 is a scalar integrand
        cx = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
        periodic = data.draw(st.booleans())
        samples = 2 * data.draw(st.integers(4, 56))
        start = data.draw(cx)
        end = data.draw(cx.filter(lambda z: abs(z - start) > 0.1) if periodic else cx)
        path = (QuadraturePath.period if periodic else QuadraturePath.segment)(start, end, samples)
        terms = [(data.draw(cx), data.draw(cx), data.draw(cx), data.draw(st.integers(0, 6)))
                 for _ in range(max(rows, 1))]
        rel_tol = data.draw(st.sampled_from([1e-8, 1e-10, 1e-12]))

        def f(z):
            # on a period path, exp(a cos) and z^p of the angle across it
            # (a segment may have start == end, so the angle is only taken on
            # a period path, whose ends are drawn apart)
            if periodic:
                z = np.exp(2j * np.pi * ((z - start) / (end - start)).real)
            values = np.array([c * np.exp(a * z.real) + d * z**p for a, c, d, p in terms])
            return values if rows else values[0]
        calls = count_calls(f)
        got = contour_integral(calls.fn, path, rel_tol=rel_tol)
        want, sizes = _per_level_integral(f, path, rel_tol)
        assert type(got) is (np.ndarray if rows else complex)
        if periodic:
            scale = abs(end - start) * sum(abs(c) * np.exp(abs(a.real)) + abs(d)
                                           for a, c, d, _ in terms)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            assert [z.size for z, in calls] == [samples] + [n // 2 for n in sizes[2:]]
        else:
            assert np.array_equal(got, want)
            base = _GL * math.ceil(samples / _GL)
            assert [z.size for z, in calls] == [3 * base] + sizes[2:]
        assert sizes[:2] == [sizes[1] // 2, sizes[1]]

    def test_path_validation(self):
        with pytest.raises(ValueError):
            QuadraturePath.period(0.0, 1.0, samples=33)
        with pytest.raises(ValueError):
            QuadraturePath.period(1.0, 1.0)
        with pytest.raises(ValueError):
            QuadraturePath.segment(0.0, 1.0, samples=4)
        with pytest.raises(ValueError):
            QuadraturePath("circle", 0.0, 1.0)
