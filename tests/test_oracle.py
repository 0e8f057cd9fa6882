"""The qres oracle: one quadrature per pair on the stack of every end's circle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal import spinor
from spinorminimal.elliptic import DegenerateLatticeError, build_context
from spinorminimal.numkit import NonConvergenceError, QuadraturePath, contour_integral
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    is_infinity,
    omega_qres_oracle,
    section_values,
)


def _per_end_oracle(s, t, rel_tol=1e-9):
    """The oracle with one scalar quadrature per end on that end's own
    circle: (-1/2 sum_p qres_p, sum_p |qres_p| / 2)."""
    dom = s.domain
    terms = []
    for p in dom.ends.points:
        rad = dom.qres_radius(p)
        if is_infinity(p):
            def integrand(w):
                (fs, ft), (dfs, dft) = section_values((s, t), 1.0 / w, derivative=True)
                F, G = 1j * fs / w, 1j * ft / w
                dF = -1j * (dfs / w**3 + fs / w**2)
                dG = -1j * (dft / w**3 + ft / w**2)
                return w * (F * dG - G * dF)
            path = QuadraturePath.circle(0.0, rad, samples=64)
        else:
            def integrand(u, p=p):
                (f, g), (df, dg) = section_values((s, t), u, derivative=True)
                return (u - p) * dom.form_weight(u) * (f * dg - g * df)
            path = QuadraturePath.circle(p, rad, samples=64)
        terms.append(contour_integral(integrand, path, rel_tol=rel_tol) / (2j * np.pi))
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
    basis = _bases()[family]
    calls = count_calls(spinor, "contour_integral")
    pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis)) if i != j]
    for i, j in pairs:
        omega_qres_oracle(basis[i], basis[j])
    assert len(calls) == len(pairs)


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted", "paired"])
def test_skew_and_equal_to_the_per_end_loop_to_the_bit(family):
    # each row stops where its own quadrature would, on the same points
    basis = _bases()[family]
    for i in range(len(basis)):
        for j in range(len(basis)):
            got = omega_qres_oracle(basis[i], basis[j])
            assert got == -omega_qres_oracle(basis[j], basis[i])
            assert got == _per_end_oracle(basis[i], basis[j])[0]


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_matches_the_per_end_quadratures(re_tau, thinness, size, angle, k1, k2, seed):
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
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                got = omega_qres_oracle(basis[i], basis[j])
                assert got == -omega_qres_oracle(basis[j], basis[i])
                want, scale = _per_end_oracle(basis[i], basis[j])
                assert abs(got - want) <= 1e-13 * max(abs(want), scale)


def _thin_cell(re_tau, thinness, size, angle, k1, k2, seed):
    """A draw of test_oracle_on_random_skewed_lattices with Im(tau) up to 25
    and the ends over the whole thin cell: (context, b1, b2, ends)."""
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    b2 = b1 * complex(re_tau, lo * (25.0 / lo) ** thinness)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    return ctx, b1, b2, tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions)


def test_thin_cell_end_raises():
    # Im(tau) = 6.41: the pair (1, 2) cancels below its quadrature's noise
    # floor at the far end
    ctx, b1, b2, ends = _thin_cell(-0.2, 0.58, 2.0, -1.4, 0, 2, 7)
    basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))
    assert abs((b2 / b1).imag - 6.41) < 0.01
    with pytest.raises(NonConvergenceError):
        omega_qres_oracle(basis[1], basis[2])
    with pytest.raises(NonConvergenceError):
        _per_end_oracle(basis[1], basis[2])
    assert np.isfinite(omega_qres_oracle(basis[0], basis[1]))


def test_untwisted_end_on_a_merged_root_raises():
    # Im(tau) = 20.01, where e2 == e3 in double precision: wp(a) - e_r is
    # exactly 0 at the end 4.689-4.186i for r = 2 and 3
    ctx, b1, b2, ends = _thin_cell(-0.30278123165500404, 0.9318454232641952, 0.9585205319721941,
                                   -2.217560357914752, -2, -1, 23979)
    rb1, rb2 = ctx.lattice.reduced_periods
    assert abs((rb2 / rb1).imag - 20.01) < 0.01 and ctx.e2 == ctx.e3
    for r in (2, 3):
        for build in (lambda: basis_F_torus_untwisted(ctx, r, EndDivisor(ends)),
                      lambda: basis_F_torus_untwisted_paired(ctx, r, ends)):
            with pytest.raises(DegenerateLatticeError, match=re.escape(f"e{r} at the end a = {ends[1]}")):
                build()
    assert len(basis_F_torus_untwisted(ctx, 1, EndDivisor(ends))) == 3
