"""Tests for the linear-algebra/quadrature kernel.

The pfaffian oracles are the explicit term expansions for 4x4 and 6x6
skew matrices (sums over perfect matchings with crossing signs); the
production code never touches them.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal.numkit import (
    ComplexPolynomial,
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


class TestSkewRankKernel:
    def test_zero_matrix(self):
        m = SkewMatrix(np.zeros((4, 4)))
        rank, kernel = skew_rank_kernel(m, 1e-9)
        assert rank == 0
        assert len(kernel) == 4

    def test_invertible_2x2(self):
        m = SkewMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rank, kernel = skew_rank_kernel(m, 1e-9)
        assert rank == 2
        assert kernel == []

    def test_kernel_vectors_annihilated_and_orthonormal(self):
        rng = np.random.default_rng(3)
        for n in (4, 6, 8):
            base = random_skew(n - 2, rng).entries
            m = np.zeros((n, n), dtype=complex)
            m[: n - 2, : n - 2] = base  # rank <= n-2 by construction
            m = SkewMatrix.antisymmetrize(m)
            rank, kernel = skew_rank_kernel(m, 1e-9)
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
        rank, _ = skew_rank_kernel(m, 1e-9)
        assert rank % 2 == 0


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots(ComplexPolynomial((-1.0, 0.0, 1.0)))
        assert sorted(r.real for r in roots) == pytest.approx([-1.0, 1.0])

    def test_sphere_quartic_root(self):
        # (a^2 - sqrt(3) a + 1)(a^2 + sqrt(3) a + 1) = a^4 - a^2 + 1
        roots = poly_roots(ComplexPolynomial((1.0, 0.0, -1.0, 0.0, 1.0)))
        target = (np.sqrt(3.0) + 1j) / 2.0
        assert min(abs(r - target) for r in roots) < 1e-12

    def test_klein_quartic_fourth_quadrant(self):
        m = -2.0 * (1.0 - 4.0 * np.sqrt(2.0) * 1j) / 3.0
        roots = poly_roots(ComplexPolynomial((1.0, 0.0, m, 0.0, 1.0)))
        fourth = [r for r in roots if r.real > 0 and r.imag < 0]
        assert len(fourth) == 1

    def test_residuals_small(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            deg = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            p = ComplexPolynomial(tuple(coeffs))
            for r in poly_roots(p):
                scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
                assert abs(p(r)) <= 1e-10 * scale

    def test_an_overflowing_residual_is_not_convergence(self):
        # z^2 (1 + 1e-300 z): at the root -1e300 both the residual and the
        # scale overflow to inf, and inf <= inf must not pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="residual inf"):
                poly_roots(ComplexPolynomial((0.0, 0.0, 1.0, 1e-300)))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(ComplexPolynomial((3.0,)))


_GL = 16


def _per_level_integral(f, path, rel_tol):
    """contour_integral's rule with one call of f per level of panels:
    (the integral, the number of nodes of each call)."""
    if path.kind == "segment":
        z0, z1 = (path.start, path.end)[::path.orientation]
        param = lambda t: z0 + (z1 - z0) * t
        dparam = lambda t: (z1 - z0) * np.ones_like(t)
    else:
        c, r, sgn = path.center, path.radius, path.orientation
        param = lambda t: c + r * np.exp(2j * np.pi * sgn * t)
        dparam = lambda t: 2j * np.pi * sgn * r * np.exp(2j * np.pi * sgn * t)
    x, wx = np.polynomial.legendre.leggauss(_GL)
    sizes = []

    def level(panels):
        t0 = np.linspace(0.0, 1.0, panels + 1)
        mid = (t0[:-1, None] + t0[1:, None]) / 2.0
        half = (t0[1:, None] - t0[:-1, None]) / 2.0
        t = (mid + half * x[None, :]).ravel()
        sizes.append(t.size)
        terms = np.asarray(f(param(t)), dtype=complex) * dparam(t) * (half * wx[None, :]).ravel()
        return np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)

    panels = math.ceil(path.samples / _GL)
    prev, _ = level(panels)
    while True:
        panels *= 2
        cur, l1 = level(panels)
        if np.all(np.abs(cur - prev) <= rel_tol * np.abs(cur) + 500 * np.finfo(float).eps * l1):
            return (complex(cur) if cur.ndim == 0 else cur), sizes
        prev = cur


class TestContourIntegral:
    def test_residue_theorem(self):
        path = QuadraturePath.circle(0.0, 1.0)
        val = contour_integral(lambda z: 1.0 / z, path)
        assert val == pytest.approx(2j * np.pi, rel=1e-10)

    def test_segment(self):
        path = QuadraturePath.segment(0.0, 1.0)
        assert contour_integral(lambda z: z, path) == pytest.approx(0.5, rel=1e-12)

    def test_orientation(self):
        path = QuadraturePath.circle(0.0, 1.0, orientation=-1)
        val = contour_integral(lambda z: 1.0 / z, path)
        assert val == pytest.approx(-2j * np.pi, rel=1e-10)

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

    def test_nonconvergence_signalled(self):
        # |z|^(1/2)-type kink on the path: never stabilizes at 1e-14
        path = QuadraturePath.segment(-1.0, 1.0)
        with pytest.raises(NonConvergenceError):
            contour_integral(lambda z: np.sqrt(np.abs(z)), path,
                             rel_tol=1e-14, max_panels=64)

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_doubling_takes_one_call(self, rows, data):
        # the first level and its doubling come from one call of f on both
        # levels' nodes, each later level from one call, and the result is
        # bitwise that of one call per level; rows = 0 is a scalar integrand
        cx = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
        samples = data.draw(st.integers(8, 112))
        if data.draw(st.booleans()):
            path = QuadraturePath.circle(data.draw(cx), data.draw(st.floats(0.1, 2.0)),
                                         data.draw(st.sampled_from([1, -1])), samples)
        else:
            path = QuadraturePath.segment(data.draw(cx), data.draw(cx), samples)
        terms = [(data.draw(cx), data.draw(cx), data.draw(cx), data.draw(st.integers(0, 6)))
                 for _ in range(max(rows, 1))]
        rel_tol = data.draw(st.sampled_from([1e-8, 1e-10, 1e-12]))

        def f(z):
            values = np.array([c * np.exp(a * z) + d * z**p for a, c, d, p in terms])
            return values if rows else values[0]
        calls = []
        got = contour_integral(lambda z: calls.append(z.size) or f(z), path, rel_tol=rel_tol)
        want, sizes = _per_level_integral(f, path, rel_tol)
        assert np.array_equal(got, want) and type(got) is (np.ndarray if rows else complex)
        base = _GL * math.ceil(samples / _GL)
        assert sizes[:2] == [base, 2 * base]
        assert calls == [3 * base] + sizes[2:]

    def test_path_validation(self):
        with pytest.raises(ValueError):
            QuadraturePath.circle(0.0, -1.0)
        with pytest.raises(ValueError):
            QuadraturePath.segment(0.0, 1.0, samples=4)
