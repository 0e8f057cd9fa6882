"""The qres oracle: one trapezoidal quadrature per basis on the stack of every
end's circle, and the pair oracle's bilinear read a^T W b of that matrix."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal import spinor
from spinorminimal.elliptic import DegenerateLatticeError, build_context
from spinorminimal.numkit import QuadraturePath, contour_integral
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    is_infinity,
    omega_matrix,
    omega_pair,
    omega_qres_matrix,
    omega_qres_oracle,
    section_combination,
    section_values,
)


def _per_end_oracle(s, t, rel_tol=1e-9):
    """The oracle with one trapezoidal quadrature per end on that end's own
    circle p + r e^(2 pi i x): (-1/2 sum_p qres_p, sum_p |qres_p| / 2)."""
    dom = s.domain
    terms = []
    for p in dom.ends.points:
        rad = dom.qres_radius(p)

        def integrand(x, p=p):
            # (1/2 pi i) (u - p) h du is (u - p)^2 h dx on the circle
            du = rad * np.exp(2j * np.pi * x)
            if is_infinity(p):
                # w = du = 1/z chart with phi = (i/w) phi_w: F(w) = i f(1/w) / w
                (f, g), (df, dg) = section_values((s, t), 1.0 / du, derivative=True)
                f, g, df, dg = (1j * f / du, 1j * g / du, -1j * (df / du**3 + f / du**2),
                                -1j * (dg / du**3 + g / du**2))
                lead = du * du
            else:
                (f, g), (df, dg) = section_values((s, t), p + du, derivative=True)
                lead = du * du * dom.form_weight(p + du)
            return (lead * (f * dg - g * df),
                    np.abs(lead) * (np.abs(f * dg) + np.abs(g * df)))
        terms.append(contour_integral(integrand, QuadraturePath.period(0.0, 1.0, 64),
                                      rel_tol=rel_tol))
    return -0.5 * sum(terms, 0.0 + 0.0j), 0.5 * sum(abs(x) for x in terms)


def _bases():
    ctx = build_context(1.0, 1.0j)
    return {
        "sphere": basis_F_sphere(EndDivisor((0.3 + 0.5j, -0.9, 1.2 - 0.4j, INF))),
        "twisted": basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j))),
        "untwisted": basis_F_torus_untwisted(ctx, 2, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j,
                                                                 1.3 + 0.2j))),
        "paired": basis_F_torus_untwisted_paired(ctx, 1, [0.31 + 0.4j, 0.9 + 0.77j]),
    }


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted", "paired"])
def test_one_quadrature_per_pair(count_calls, family):
    # every ordered pair of one basis reads the basis's one quadrature
    basis = _bases()[family]
    calls = count_calls(spinor, "contour_integral")
    for i in range(len(basis)):
        for j in range(len(basis)):
            omega_qres_oracle(basis[i], basis[j])
    assert len(calls) == 1
    # the kept matrix is read-only: an in-place write cannot change later reads
    W = basis[0].basis.qres_matrix
    with pytest.raises(ValueError):
        W *= 2


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted", "paired"])
def test_one_quadrature_per_basis(count_calls, family):
    basis = _bases()[family]
    calls = count_calls(spinor, "contour_integral")
    W = omega_qres_matrix(basis)
    assert len(calls) == 1 and W.shape == (len(basis), len(basis))
    # skew to the bit, with an exact zero diagonal
    assert np.array_equal(W, -W.T) and not np.diagonal(W).any()


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted", "paired"])
def test_skew_and_equal_to_the_per_end_loop_to_the_bit(family):
    # the pair call on two members: the basis matrix entry to the bit, skew
    # to the bit with +0.0 on the diagonal; the rows stop together on a floor
    # summed over the ends, so the per-end loop, each end with its own stop,
    # agrees to rounding, and so does the pair's own two-row quadrature
    # The paired sections are combinations of zeta rows, not members: their
    # pair call reads the rows' matrix bilinearly, within the bound of their
    # own quadrature, and their Omega(s, s) is rounding where the per-end
    # loop reads exactly 0
    basis = _bases()[family]
    members = family != "paired"
    W = omega_qres_matrix(basis)
    bound = 1e-12 * np.abs(omega_matrix(basis).matrix.entries).max()
    for i in range(len(basis)):
        for j in range(len(basis)):
            got = omega_qres_oracle(basis[i], basis[j])
            if members:
                assert _bits(got) == _bits(W[i, j])
                assert got == -omega_qres_oracle(basis[j], basis[i])
            else:
                assert abs(got - W[i, j]) <= bound
                assert abs(got + omega_qres_oracle(basis[j], basis[i])) <= bound
            if i == j:
                assert _bits(got) == _bits(0j) if members else abs(got) <= bound
            else:
                assert abs(got - omega_qres_matrix((basis[i], basis[j]))[0, 1]) <= bound
            if members or i != j:
                want, scale = _per_end_oracle(basis[i], basis[j])
                assert abs(got - want) <= 1e-13 * max(abs(want), scale)


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted", "paired"])
def test_bilinear_on_random_combinations(family):
    # s = sum a_i row_i and t = sum b_j row_j: the read a^T W b is the pair's
    # own quadrature and the Laurent-table Omega, to 1e-12 of sum |a_i| |b_j| |W_ij|
    basis = _bases()[family]
    W = np.abs(basis[0].basis.qres_matrix)
    rng = np.random.default_rng(len(basis))
    for _ in range(3):
        a, b = rng.normal(size=(2, len(basis), 2)) @ (1.0, 1.0j)
        s, t = section_combination(a, basis, "s"), section_combination(b, basis, "t")
        got, bound = omega_qres_oracle(s, t), 1e-12 * np.abs(a) @ W @ np.abs(b)
        assert abs(got - omega_qres_matrix((s, t))[0, 1]) <= bound
        assert abs(got - (omega_pair(s, t) - omega_pair(t, s)) / 2) <= bound


def _bits(z):
    """The two doubles of a complex, as hex: equal values with equal signs of zero."""
    return complex(z).real.hex(), complex(z).imag.hex()


def _check_the_per_end_quadratures(re_tau, thinness, size, angle, k1, k2, seed):
    # the skewed lattices and cell fractions of test_oracle_on_random_skewed_lattices
    # (reduced Im(tau) up to 4), and the same ends with infinity on the sphere
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    b2 = b1 * complex(re_tau, lo * (4.0 / lo) ** thinness)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    ends = tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions)
    bases = [basis_F_sphere(EndDivisor(ends + (INF,))),
             basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))]
    bases += [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]
    for basis in bases:
        W = omega_qres_matrix(basis)
        assert np.array_equal(W, -W.T)
        for i, j in zip(*np.triu_indices(len(basis), 1)):
            want, scale = _per_end_oracle(basis[i], basis[j])
            assert abs(W[i, j] - want) <= 1e-13 * max(abs(want), scale)


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_matches_the_per_end_quadratures(re_tau, thinness, size, angle, k1, k2, seed):
    _check_the_per_end_quadratures(re_tau, thinness, size, angle, k1, k2, seed)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: on tau = 3.978i, entry (0, 2) of the untwisted r = 3 table reads "
    "2.97e-14 from the per-end oracle against the bound 2.33e-14; wp_r's subtraction "
    "is the likely cause"))
def test_the_recorded_thin_example_matches_the_per_end_quadratures():
    # a draw of test_matches_the_per_end_quadratures that fails on every run
    _check_the_per_end_quadratures(0.0, 0.99609375, 1.0, 0.0625, 0, 0, 45719)


def test_thin_cell_end_agrees(thin_cell):
    # Im(tau) = 6.41: the pair (1, 2) cancels far below the L1 of its own
    # Hopf integrand at the far end, and passes on the uncancelled products
    ctx, b1, b2, ends = thin_cell(-0.2, 0.58, 2.0, -1.4, 0, 2, 7)
    basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))
    assert abs((b2 / b1).imag - 6.41) < 0.01
    W = omega_qres_matrix(basis)
    for i, j in zip(*np.triu_indices(len(basis), 1)):
        exact = omega_pair(basis[i], basis[j])
        assert abs(W[i, j] - exact) <= 1e-12 * max(1.0, abs(exact))
        want, scale = _per_end_oracle(basis[i], basis[j])
        assert abs(W[i, j] - want) <= 1e-13 * max(abs(want), scale)


def test_every_pair_converges_on_a_thin_cell(thin_cell):
    # Im(tau) = 10.57 with the ends over the whole cell.  A stop on each
    # end's own row, with the L1 of the cancelled integrand as its floor,
    # raised NonConvergenceError on 12 of these 15 pairs; on the floor of the
    # uncancelled products summed over the rows none raises: each basis's
    # matrix, all its pairs stopping at one level, is finite, and the
    # twisted one agrees with omega_matrix
    ctx, b1, b2, ends = thin_cell(-0.21834160853894657, 0.7345873954837637, 2.9791476285917735,
                                  0.6011033432431181, 0, 1, 5488)
    assert abs((b2 / b1).imag - 10.57) < 0.01
    twisted = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))
    omega = omega_matrix(twisted).matrix.entries
    for basis in [twisted] + [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]:
        W = omega_qres_matrix(basis)
        assert np.all(np.isfinite(W))
        if basis is twisted:
            assert np.all(np.abs(W - omega) <= 1e-9 * np.maximum(1.0, np.abs(omega)))


def test_untwisted_end_on_a_merged_root_raises(thin_cell):
    # Im(tau) = 20.01, where e2 == e3 in double precision: wp(a) - e_r is
    # exactly 0 at the end 4.689-4.186i for r = 2 and 3
    ctx, b1, b2, ends = thin_cell(-0.30278123165500404, 0.9318454232641952, 0.9585205319721941,
                                  -2.217560357914752, -2, -1, 23979)
    rb1, rb2 = ctx.lattice.reduced_periods
    assert abs((rb2 / rb1).imag - 20.01) < 0.01 and ctx.e2 == ctx.e3
    for r in (2, 3):
        for build in (lambda: basis_F_torus_untwisted(ctx, r, EndDivisor(ends)),
                      lambda: basis_F_torus_untwisted_paired(ctx, r, ends)):
            with pytest.raises(DegenerateLatticeError, match=re.escape(f"e{r} at the end a = {ends[1]}")):
                build()
    assert len(basis_F_torus_untwisted(ctx, 1, EndDivisor(ends))) == 3


@pytest.mark.parametrize("k", [-25, -20, 0, 20])
def test_agrees_with_omega_matrix_on_a_divisor_scaled_by_4_to_the_k(k):
    # the qres radius leaves an end's own point out below 1e-12 of the chart
    # scale: at 4^-25, where the ends lie 1e-15 apart, an absolute 1e-12
    # dropped them all, the radius fell back to 1/2, and each circle held
    # every end
    ends = tuple(4.0**k * p for p in (-1.179 - 1.148j, 0.669 - 2.294j, -0.143 - 2.256j,
                                      1.101 + 0.203j)) + (INF,)
    basis = basis_F_sphere(EndDivisor(ends))
    omega = omega_matrix(basis).matrix.entries
    assert np.all(np.abs(omega_qres_matrix(basis) - omega) <= 1e-12 * np.abs(omega))
