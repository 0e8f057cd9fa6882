"""Spinor sections, Omega, the qres oracle, kernels, and the null map."""

import re

import numpy as np
import pytest
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings, strategies as st

from spinorminimal import acceptance, elliptic, moduli, spinor
from spinorminimal.elliptic import (
    DegenerateLatticeError,
    PoleEvaluationError,
    build_context,
    wp,
    wp_prime,
    wp_second,
)
from spinorminimal.numkit import RANK_TOL, SkewMatrix, pfaffian, skew_rank_kernel
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    SectionDataError,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    form_primitive,
    is_infinity,
    omega_matrix,
    omega_pair,
    omega_qres_matrix,
    planar_ends,
    section_combination,
    section_values,
    sigma_map,
)


def verify_laurent_consistency(section, rtol: float = 1e-6):
    """Richardson check of alpha_-1 against the evaluator at each pole end.

    Circle-averages (u - p) f(u) over 8 points at radii 1e-3 and 1e-4 (in
    units of the local scale), Richardson-extrapolates in the radius, and
    compares with the table's alpha_-1 mapped back to raw chart coefficients.
    """
    dom = section.domain
    circle = np.exp(2j * np.pi * np.arange(8) / 8.0)
    worst = 0.0
    for p, (am1, _) in zip(dom.ends.points, section.expansions):
        if abs(am1) == 0.0:
            continue
        if is_infinity(p):
            def g(w):
                return w * (1j * section.evaluate(1.0 / w) / w)
            target = am1
            unit = 1.0
        else:
            def g(du, p=p):
                return du * section.evaluate(p + du)
            target = am1 / dom.form_weight(p)
            unit = dom.qres_radius(p) * 4.0
        vals = np.mean(g(np.outer([1e-3 * unit, 1e-4 * unit], circle)), axis=1)
        richardson = (10.0 * vals[1] - vals[0]) / 9.0
        err = abs(richardson - target) / max(abs(target), 1e-30)
        worst = max(worst, err)
        if err > rtol:
            raise SectionDataError(
                f"Laurent data inconsistent at end {p}: {err:.2e} relative")
    return worst


@pytest.fixture(scope="module")
def ctx():
    return build_context(1.0, 1.0j)


@pytest.fixture(scope="module")
def ctx_generic():
    return build_context(1.1, 0.2 + 0.9j)


class TestSigmaAndCover:
    def test_sigma_values(self):
        assert sigma_map(1, 0) == (1, 1j, 0)
        assert sigma_map(0, 1) == (-1, 1j, 0)

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_sigma_null(self, z1, z2):
        v = sigma_map(z1, z2)
        assert abs(sum(x * x for x in v)) < 1e-12 * max(1.0, abs(z1) ** 4 + abs(z2) ** 4)


class TestTableResidues:
    def test_values(self):
        # am1 phi/(z - 0.3) + a0 phi for (am1, a0) = (2, 3), (1, 0), (0, 1)
        rows = basis_F_sphere(EndDivisor((0.3, INF)))[0].basis
        s, s1, s2 = (rows.section(v, label) for v, label in
                     (([2.0, 3.0], "x"), ([1.0, 0.0], "x1"), ([0.0, 1.0], "x2")))
        # res_k(s_i s_j) = alpha_-1(s_i) alpha_0(s_j) + alpha_0(s_i) alpha_-1(s_j)
        T = rows.table([x.coefficients for x in (s, s1, s2)])
        res = np.einsum("ik,jk->ijk", T[..., 0], T[..., 1])
        res = res + res.transpose(1, 0, 2)
        assert res[0, 0, 0] == pytest.approx(12.0)
        assert res[1, 2, 0] == pytest.approx(1.0)
        assert res[1, 1, 0] == 0.0
        # form_primitive reads the same residues: s1^2 has none, s s and s1 s2 log ends
        assert form_primitive([(s1, s1)]).end_residue_max == 0.0
        for pair in ((s, s), (s1, s2)):
            with pytest.raises(SectionDataError, match=r"at the end \(0\.3\+0j\): a log end"):
                form_primitive([pair])

    def test_a_nan_table_raises(self):
        # a NaN passes a check written as err > tol; omega_matrix, form_primitive
        # and the K test each refuse it
        basis = basis_F_sphere(EndDivisor((0.3 + 0.5j, -0.9, 1.2 - 0.4j, INF)))
        basis[0].basis.laurent[0, 1, 1] = np.nan
        with pytest.raises(SectionDataError, match="residue sum nan"):
            omega_matrix(basis)
        with pytest.raises(SectionDataError, match="has residue nan"):
            form_primitive([(basis[0], basis[0])])
        ctx = build_context(1.0, 1.0j)
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, ctx.omega1, ctx.omega2, ctx.omega3)))
        form = omega_matrix(basis)
        basis[0].basis.laurent[1, 2, 1] = np.nan
        with pytest.raises(SectionDataError, match=r"fails the K test \(alpha0 max nan\)"):
            extract_K(form)


def _half_lattice_twisted(ctx):
    """The twisted basis on 0 and the half periods: Omega is rounding alone,
    and K is spanned by t1, t2, t3."""
    return basis_F_torus_twisted(ctx, EndDivisor((0.0, ctx.omega1, ctx.omega2, ctx.omega3)))


def _pole_plus_constant(delta):
    """phi/(z - 1) + delta phi on the sphere with the ends 1 and infinity,
    whose unit chart is its own: (alpha_-1, alpha_0) = (1, delta) at 1 and
    (i delta, i) at infinity."""
    return basis_F_sphere(EndDivisor((1.0, INF)))[0].basis.section([1.0, delta], "s")


class TestThresholdEdges:
    """Each decision threshold at twice and at half its value: the input
    past it is refused, or classified the other way, and the one short of
    it is not."""

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_residue_sum(self, times):
        # row 0's alpha_0 at the pole of row 1 moved by delta: the pair's
        # residue sum is delta, against 1e-8 of its alpha scale
        basis = basis_F_sphere(EndDivisor((0.3 + 0.5j, -0.9, 1.2 - 0.4j, INF)))
        table = basis[0].basis.laurent
        size = np.abs(table[:2, :, 0]) + np.abs(table[:2, :, 1])
        table[0, 1, 1] += times * 1e-8 * np.sum(size[0] * size[1])
        if times > 1:
            with pytest.raises(SectionDataError, match="residue sum"):
                omega_matrix(basis)
        else:
            omega_matrix(basis)

    def test_the_named_thresholds_keep_their_values(self):
        # the edge cases below, and tests/test_cli.py::test_sphere6_gate_edge,
        # build their inputs from literal values, except the rank cut's, which
        # reads RANK_TOL; these are the values the README states
        assert (RANK_TOL, spinor.K_TEST_TOL, spinor.PROJECTION_TOL) == (1e-9, 1e-6, 1e-8)
        assert spinor.NORMALIZE_TOL == 1e-8
        assert (spinor.RESIDUE_SUM_TOL, spinor.PLANAR_END_TOL) == (1e-8, 1e-8)
        assert moduli.SPHERE6_K_TOL == 1e-8

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_rank_cut(self, times):
        # a unit pair and a pair at times RANK_TOL of it, both singular-value
        # pairs of a skew matrix: the small one is rank only past the cut
        x = times * RANK_TOL
        m = SkewMatrix(np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, x], [0, 0, -x, 0]],
                                dtype=complex))
        rank, kernel = skew_rank_kernel(m)
        assert (rank, len(kernel)) == ((4, 0) if times > 1 else (2, 2))

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_K_test(self, ctx, times):
        # t1's alpha_0 at omega2 moved after Omega: K1 = t1 has alpha_0
        # delta against its alpha_-1 of 1, and the K test's cut is 1e-6
        basis = _half_lattice_twisted(ctx)
        form = omega_matrix(basis)
        basis[0].basis.laurent[1, 2, 1] += times * 1e-6
        if times > 1:
            with pytest.raises(SectionDataError, match="fails the K test"):
                extract_K(form)
        else:
            assert len(extract_K(form)) == 3

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_planar_ends(self, times):
        # alpha_0 = delta against 1e-8 of the pair's largest |alpha|, 1, at
        # the end 1; at infinity alpha_-1 = i delta, so that end is never planar
        s = _pole_plus_constant(times * 1e-8)
        assert planar_ends(s, s).tolist() == [times < 1, False]

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_projection_cut(self, ctx, times):
        # a kernel spanned by phi0 + eps t1 and t3: projected off H, the
        # stack has singular values 1 and about eps, cut at 1e-8 of the
        # largest; kept, the K dimension exceeds the kernel's minus h_dim
        basis = _half_lattice_twisted(ctx)
        eps = times * 1e-8
        x, y = np.array([-eps, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])
        form = spinor.OmegaForm(SkewMatrix(np.outer(x, y) - np.outer(y, x)), tuple(basis))
        if times > 1:
            with pytest.raises(SectionDataError, match="K dimension 2 does not match"):
                extract_K(form)
        else:
            assert len(extract_K(form)) == 1

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_normalization_cut(self, ctx, times):
        # a kernel spanned by phi0 and eps t1 + t2: K1 is set to 1 at its
        # first coefficient above 1e-8 of its largest, t1's past the cut and
        # t2's short of it
        basis = _half_lattice_twisted(ctx)
        eps = times * 1e-8
        x, y = np.array([0.0, 1.0, -eps, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])
        (k,) = extract_K(spinor.OmegaForm(SkewMatrix(np.outer(x, y) - np.outer(y, x)),
                                          tuple(basis)))
        c = np.array(k.coefficients)
        if times > 1:
            assert c[1] == pytest.approx(1.0, abs=1e-15) and c[2] == pytest.approx(1 / eps)
        else:
            assert c[2] == pytest.approx(1.0, abs=1e-15) and c[1] == pytest.approx(eps)
        assert c[0] == c[3] == 0

    @pytest.mark.parametrize("times", [0.5, 2.0])
    def test_log_end(self, times):
        # s^2 has residue 2 delta at each end, against the alpha scale
        # 2 (1 + delta)^2 summed over both ends, and LOG_END_TOL is 1e-4
        s = _pole_plus_constant(times * 1e-4)
        if times > 1:
            with pytest.raises(SectionDataError, match="a log end"):
                form_primitive([(s, s)])
        else:
            assert form_primitive([(s, s)]).end_residue_max < 1e-4


class TestSphereBasis:
    def test_printed_omega_entries(self):
        a = 0.7 + 0.2j
        ends = (a, 1.7 - 0.4j, -0.3 + 1.1j, INF)
        basis = basis_F_sphere(EndDivisor(ends))
        n = 4
        m = omega_matrix(basis).matrix.entries
        for i in range(n - 1):
            for j in range(n - 1):
                if i != j:
                    assert m[i, j] == pytest.approx(1.0 / (ends[j] - ends[i]))
            assert m[i, n - 1] == pytest.approx(-1.0)
            assert m[n - 1, i] == pytest.approx(1.0)

    def test_independence(self):
        rng = np.random.default_rng(5)
        ends = tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)) + (INF,)
        basis = basis_F_sphere(EndDivisor(ends))
        probes = rng.standard_normal(6) * 3 + 1j * rng.standard_normal(6)
        mat = section_values(basis, probes).T
        assert np.linalg.matrix_rank(mat, tol=1e-8) == 6

    def test_two_ended_sphere(self):
        basis = basis_F_sphere(EndDivisor((0.0, INF)))
        form = omega_matrix(basis)
        assert np.allclose(form.matrix.entries, [[0, -1], [1, 0]])
        rank, kern = skew_rank_kernel(form.matrix)
        assert rank == 2 and len(kern) == 0
        assert extract_K(form) == []

    def test_three_ended_sphere_kernel_dim_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            ends = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) + (INF,)
            form = omega_matrix(basis_F_sphere(EndDivisor(ends)))
            K = extract_K(form)
            assert len(K) == 1  # dim K = 1 < 2: no surface

    def test_requires_infinity(self):
        with pytest.raises(ValueError):
            basis_F_sphere(EndDivisor((0.0, 1.0)))

    @pytest.mark.parametrize("end", [complex("nan"), complex(0.3, float("nan"))])
    def test_a_nan_end_is_refused(self, end):
        # a NaN is no point of the sphere, and INF is one
        with pytest.raises(ValueError, match=re.escape(f"the end {end} is not a number")):
            basis_F_sphere(EndDivisor((end, INF)))
        assert basis_F_sphere(EndDivisor((0.3, INF)))[0].domain.ends.points == (0.3, INF)

    def test_laurent_consistency(self):
        basis = basis_F_sphere(EndDivisor((0.4 + 0.1j, -1.2, INF)))
        for s in basis:
            verify_laurent_consistency(s, 1e-6)


class TestTwistedBasis:
    def test_omega_entries_match_evaluator(self, ctx):
        a1, a2 = 0.4 + 0.33j, 1.1 + 0.7j
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, a1, a2)))
        m = omega_matrix(basis).matrix.entries
        assert m[1, 2] == pytest.approx(complex(basis[1].evaluate(a2)))
        assert m[0, 1] == 0 and m[0, 2] == 0

    def test_zeta_closed_form_identity(self, ctx):
        a1 = 0.4 + 0.33j
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, a1, 1.1 + 0.7j)))
        u = 0.23 + 0.51j
        lhs = basis[1].evaluate(u)
        rhs = 0.5 * (wp_prime(ctx, u) + wp_prime(ctx, a1)) / (wp(ctx, u) - wp(ctx, a1))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_half_lattice_omega_vanishes(self, ctx):
        div = EndDivisor((0.0, ctx.omega1, ctx.omega2, ctx.omega3))
        form = omega_matrix(basis_F_torus_twisted(ctx, div))
        assert np.max(np.abs(form.matrix.entries)) < 1e-12
        K = extract_K(form)
        assert len(K) == 3

    def test_three_end_generic_kernel(self, ctx):
        # generic placement: Omega != 0, so ker = H alone and K = 0
        # (with wp'(a1) + wp'(a2) = 0 instead, Omega = 0 and dim K = 2)
        a1, a2 = 0.4 + 0.33j, 1.1 + 0.7j
        assert abs(wp_prime(ctx, a1) + wp_prime(ctx, a2)) > 1e-3
        form = omega_matrix(basis_F_torus_twisted(ctx, EndDivisor((0.0, a1, a2))))
        rank, kern = form.rank_kernel()
        assert rank == 2 and len(kern) == 1
        assert len(extract_K(form)) == 0  # K too small: no surface

    def test_end_on_lattice_rejected(self, ctx):
        with pytest.raises(ValueError):
            basis_F_torus_twisted(ctx, EndDivisor((0.0, 2 * ctx.omega1 + 1e-12, 0.5)))

    @pytest.mark.parametrize("end", [complex("nan"), complex(float("nan"), 0.2)])
    def test_a_nan_end_is_refused(self, ctx, end):
        # refused by the divisor, before the builder reads it
        with pytest.raises(ValueError, match=re.escape(f"the end {end} is not a number")):
            basis_F_torus_twisted(ctx, EndDivisor((0.0, end, 0.3 + 0.2j)))

    def test_oracle_on_skewed_lattice(self):
        # (1, 0.5+0.1i) is far from reduced; a qres radius from rounding in
        # that basis let the oracle's contour enclose a second end
        ctx = build_context(1.0, 0.5 + 0.1j)
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.904 + 0.049j, 0.815 + 0.063j)))
        exact = omega_matrix(basis).matrix.entries
        oracle = omega_qres_matrix(basis)
        assert np.max(np.abs(oracle - exact)) < 1e-9 * max(1.0, np.max(np.abs(exact)))

    def test_oracle_on_thin_lattice(self):
        # (1, 0.5+0.05i) has reduced tau = -0.5+5i, whose q-series in the
        # given basis (|Q| = 0.73) did not converge to the invariants
        ctx = build_context(1.0, 0.5 + 0.05j)
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.904 + 0.049j, 0.815 + 0.063j)))
        exact = omega_matrix(basis).matrix.entries
        oracle = omega_qres_matrix(basis)
        assert np.max(np.abs(oracle - exact)) < 1e-9 * max(1.0, np.max(np.abs(exact)))

    def test_laurent_consistency(self, ctx):
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j)))
        for s in basis:
            verify_laurent_consistency(s, 1e-6)


class TestUntwistedBasis:
    def test_skew_and_oracle(self, ctx_generic):
        ctx = ctx_generic
        div = EndDivisor((0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j))
        for r in (1, 2, 3):
            basis = basis_F_torus_untwisted(ctx, r, div)
            m = omega_matrix(basis).matrix.entries
            assert np.max(np.abs(np.diagonal(m))) == 0.0
            oracle = omega_qres_matrix(basis)
            for i, j in zip(*np.nonzero(~np.eye(3, dtype=bool))):
                assert m[i, j] == pytest.approx(oracle[i, j], abs=1e-8, rel=1e-8)

    def test_forbidden_ends_rejected(self, ctx):
        with pytest.raises(ValueError):
            basis_F_torus_untwisted(ctx, 1, EndDivisor((ctx.omega1, 0.5 + 0.5j)))

    def test_paired_block_structure_and_W(self, ctx):
        half = [0.31 + 0.4j, 0.9 + 0.77j]
        basis = basis_F_torus_untwisted_paired(ctx, 1, half)
        m = omega_matrix(basis).matrix.entries
        assert np.max(np.abs(m[:2, :2])) < 1e-13
        assert np.max(np.abs(m[2:, 2:])) < 1e-13
        # W = -2 x upper block reproduces the published entries
        W = -2.0 * m[:2, 2:]
        er = ctx.e(1)
        cp, cq = ctx.e(2) - er, ctx.e(3) - er
        p = [wp(ctx, a) - er for a in half]
        assert W[0, 1] == pytest.approx(4.0 / (p[0] - p[1]), rel=1e-10)
        assert W[1, 0] == pytest.approx(4.0 / (p[1] - p[0]), rel=1e-10)
        for i in (0, 1):
            diag = (p[i] ** 2 - cp * cq) / (p[i] * (p[i] - cp) * (p[i] - cq))
            assert W[i, i] == pytest.approx(diag, rel=1e-10)

    def test_paired_laurent_consistency(self, ctx):
        basis = basis_F_torus_untwisted_paired(ctx, 1, [0.31 + 0.4j, 0.9 + 0.77j])
        for s in basis:
            verify_laurent_consistency(s, 1e-6)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("lattice", [(1.0, 1.0j), (1.1 - 0.2j, 0.3 + 0.9j)])
    def test_paired_table_is_the_closed_forms(self, lattice, r):
        ctx = build_context(*lattice)
        half = [0.31 + 0.4j, 0.9 + 0.77j]
        table = basis_F_torus_untwisted_paired(ctx, r, half)[0].basis.laurent
        want = _paired_closed_forms(ctx, r, half)
        assert np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))

    def test_paired_klein_table_is_the_closed_forms(self):
        klein = moduli.klein4_construct()
        table = klein.form.basis[0].basis.laurent
        want = _paired_closed_forms(klein.ctx, 2, klein.ends.points[:4])
        assert np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))


def _paired_closed_forms(ctx, r, half):
    """The paired table T from its closed forms in wp, wp' and wp'' at the
    ends, with p_i = wp(a_i) - e_r; an oracle independent of the untwisted
    table.  Row i = wp_r/(wp_r - p_i) has (+-1/wp'(a_i), 1/2 - p_i wp''/(2
    wp'^2)) at a_i and -a_i; row m + i = wp'/(wp_r - p_i) has (1/p_i, +-(wp''/
    (2 wp') - wp'/(2 p_i))) there.  At another end a_j they take the values
    p_j/(p_j - p_i) and +-wp'(a_j)/(p_j - p_i)."""
    p = [wp(ctx, a) - ctx.e(r) for a in half]
    dp = [wp_prime(ctx, a) for a in half]
    dd = [wp_second(ctx, a) for a in half]
    m = len(half)
    rows = []
    for i in range(m):
        a0 = 0.5 - p[i] * dd[i] / (2.0 * dp[i] ** 2)
        rows.append([(1.0 / dp[i], a0) if j == i else (-1.0 / dp[i], a0) if j == m + i
                     else (0.0, p_j / (p_j - p[i])) for j, p_j in enumerate(p * 2)])
    for i in range(m):
        a0 = dd[i] / (2.0 * dp[i]) - dp[i] / (2.0 * p[i])
        rows.append([(1.0 / p[i], a0) if j == i else (1.0 / p[i], -a0) if j == m + i
                     else (0.0, (1.0 if j < m else -1.0) * dp_j / (p_j - p[i]))
                     for j, (p_j, dp_j) in enumerate(zip(p * 2, dp * 2))])
    return np.array(rows, dtype=complex)


def _pairwise_omega(basis, unit=False):
    """Raw Omega, residue sums over the ends and alpha scales of a basis,
    by loops over pairs and ends on scalar Laurent data; with unit set, on
    the unit chart's, each row times its row factor and each end's
    alpha_-1 and alpha_0 times their column factors."""
    dom = basis[0].domain
    # (alpha_-1, alpha_0) have weights (e, -e) at a finite end, (-e, e) at
    # infinity, and row j the weight w_j: each takes s^-weight
    m = dom.chart_exponent if unit else 0
    d = np.ldexp(1.0, (-2 * m * basis[0].basis.weights).astype(int))
    e = int(2 * m * dom.end_weight)
    f = [np.ldexp(1.0, (e if is_infinity(p) else -e) * np.array([1, -1])) for p in dom.ends.points]
    tables = [[(complex(am1) * dj * fm1, complex(a0) * dj * f0)
               for (am1, a0), (fm1, f0) in zip(s.expansions, f)] for s, dj in zip(basis, d)]
    n = len(basis)
    raw = np.zeros((n, n), dtype=complex)
    res_sum = np.zeros((n, n))
    scale = np.zeros((n, n))
    for i, ti in enumerate(tables):
        for j, tj in enumerate(tables):
            raw[i, j] = sum(a0 * bm1 for (_, a0), (bm1, _) in zip(ti, tj))
            res_sum[i, j] = abs(sum(am1 * b0 + a0 * bm1 for (am1, a0), (bm1, b0) in zip(ti, tj)))
            scale[i, j] = sum((abs(am1) + abs(a0)) * (abs(bm1) + abs(b0))
                              for (am1, a0), (bm1, b0) in zip(ti, tj))
    return raw, res_sum, scale


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_oracle_on_random_skewed_lattices(re_tau, thinness, size, angle, k1, k2, seed):
    # a reduced basis (b1, b2) given in the skewed basis
    # (b1 + k1 b2, b2 + k2 (b1 + k1 b2)) of determinant 1; ends at
    # jittered reduced-cell fractions, away from each other and the
    # half-lattice.  The twisted ends lie over the whole cell with Im(tau) up
    # to 25; the untwisted ones with Im(tau) up to 4, where their chart
    # weight wp - e_r keeps its digits
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)

    def cell(im_tau_max):
        b2 = b1 * complex(re_tau, lo * (im_tau_max / lo) ** thinness)
        p1 = b1 + k1 * b2
        return (build_context(p1 / 2, (b2 + k2 * p1) / 2),
                tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions))
    ctx, ends = cell(25.0)
    bases = [basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))]
    ctx, ends = cell(4.0)
    bases += [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]
    for basis in bases:
        oracle = omega_qres_matrix(basis)
        for i, j in zip(*np.triu_indices(len(basis), 1)):
            exact = omega_pair(basis[i], basis[j])
            assert abs(oracle[i, j] - exact) < 1e-9 * max(1.0, abs(exact))


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_table_on_random_lattices(re_tau, thinness, size, angle, k1, k2, seed):
    for basis in _random_lattice_bases(re_tau, thinness, size, angle, k1, k2, seed):
        n = len(basis)
        form = omega_matrix(basis)
        raw, res_sum, scale = _pairwise_omega(basis)
        off = ~np.eye(n, dtype=bool)
        # the table contraction is the pairwise sum to the bit
        assert np.array_equal(form.matrix.entries, SkewMatrix.antisymmetrize(raw).entries)
        assert all(omega_pair(basis[i], basis[j]) == raw[i, j] for i, j in zip(*np.nonzero(off)))
        # the rank cut reads D Omega D, bitwise the unit chart's Omega, and
        # the residue check the unit chart's alpha scales
        raw_n, res_n, scale_n = _pairwise_omega(basis, unit=True)
        d = basis[0].basis.row_factors
        assert np.array_equal(d[:, None] * raw * d, raw_n)
        assert np.all(res_n[off] <= 1e-8 * scale_n[off])
        assert np.all(res_sum[off] <= 1e-8 * scale[off])
        assert np.all(np.abs(raw + raw.T)[off] <= 1e-8 * scale[off])
        oracle = omega_qres_matrix(basis)
        for i, j in zip(*np.triu_indices(n, 1)):
            exact = form.matrix.entries[i, j]
            assert abs(oracle[i, j] - exact) < 1e-9 * max(1.0, abs(exact))


def _random_lattice_bases(re_tau, thinness, size, angle, k1, k2, seed):
    """The skewed lattices of test_oracle_on_random_skewed_lattices with
    Im(tau) up to 25, and a basis of every family.  The ends lie at the
    jittered cell fractions, scaled along b2 to within |b1| of the b1 axis:
    farther along a thin cell the rows' differences are exponentially small
    next to their values, and neither the tables nor the oracle resolve
    them (the paired rows fail already at Im(tau) = 3.7 on the whole cell)."""
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    im_tau = lo * (25.0 / lo) ** thinness
    b2 = b1 * complex(re_tau, im_tau)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    ends = tuple(complex(fx * b1 + fy * min(1.0, 1.0 / im_tau) * b2) for fx, fy in fractions)
    bases = [basis_F_sphere(EndDivisor(ends + (INF,))),
             basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends)),
             basis_F_torus_untwisted_paired(ctx, int(rng.integers(1, 4)), ends[:2])]
    return bases + [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]


@contextmanager
def _oracle_nodes():
    """A list that gathers the size of every node batch the oracle's
    quadratures evaluate while the block runs."""
    nodes, contour = [], spinor.contour_integral
    spinor.contour_integral = lambda f, *args, **kwargs: contour(
        lambda x: nodes.append(x.size) or f(x), *args, **kwargs)
    try:
        yield nodes
    finally:
        spinor.contour_integral = contour


def _assert_the_matrix_is_the_pairwise_oracle(basis):
    """omega_qres_matrix against each pair's own two-row quadrature: bitwise
    where the pair stops at the matrix's level, and within 1e-12 of
    max|Omega| where it stops earlier (all of the matrix's pairs stop at one
    level)."""
    with _oracle_nodes() as nodes:
        W = omega_qres_matrix(basis)
    level, bound = sum(nodes), 1e-12 * np.abs(omega_matrix(basis).matrix.entries).max()
    for i, j in zip(*np.triu_indices(len(basis), 1)):
        with _oracle_nodes() as nodes:
            pair = omega_qres_matrix((basis[i], basis[j]))[0, 1]
        assert sum(nodes) <= level
        if sum(nodes) == level:
            assert (pair.real.hex(), pair.imag.hex()) == (W[i, j].real.hex(), W[i, j].imag.hex())
        else:
            assert abs(pair - W[i, j]) <= bound
    return W


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_oracle_matrix_is_the_pairwise_oracle(re_tau, thinness, size, angle, k1, k2, seed):
    for basis in _random_lattice_bases(re_tau, thinness, size, angle, k1, k2, seed):
        _assert_the_matrix_is_the_pairwise_oracle(basis)


def test_oracle_matrix_is_the_pairwise_oracle_on_the_acceptance_bases(count_calls):
    # criterion 3 makes one oracle call on each of its five bases, 72 ordered pairs
    calls = count_calls(acceptance, "omega_qres_matrix")
    (result,) = acceptance.criterion_3_oracle()
    assert result.passed and "(72 pairs)" in result.name
    assert len(calls) == 5 and sum(len(b) * (len(b) - 1) for (b,) in calls) == 72
    for (basis,) in calls:
        _assert_the_matrix_is_the_pairwise_oracle(basis)


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16), st.integers(1, 3))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_paired_on_the_whole_cell_is_finite_or_a_typed_error(thin_cell, re_tau, thinness, size,
                                                             angle, k1, k2, seed, r):
    # the paired ends over the whole cell with Im(tau) up to 25, outside the
    # band where its table agrees with the oracle: Omega is finite, or a
    # typed error says why there is none
    ctx, _, _, ends = thin_cell(re_tau, thinness, size, angle, k1, k2, seed)
    try:
        form = omega_matrix(basis_F_torus_untwisted_paired(ctx, r, ends[:2]))
    except (DegenerateLatticeError, SectionDataError, PoleEvaluationError):
        return
    assert np.all(np.isfinite(form.matrix.entries))


def test_paired_end_with_a_zero_wp_prime_raises():
    # reduced Im(tau) = 19.2, where wp' of the second end rounds to exactly 0:
    # the change of basis to the untwisted rows would divide by it
    ctx = build_context(16.917146191126303 - 15.736795681947077j,
                        -8.247025865985858 + 8.082117361652644j)
    half = [-3.892180208358021 + 4.040740052284507j, -5.342172503529877 + 6.281268713308611j]
    b1, b2 = ctx.lattice.reduced_periods
    assert abs((b2 / b1).imag - 19.2) < 0.05 and wp_prime(ctx, half[1]) == 0
    with pytest.raises(DegenerateLatticeError, match=re.escape(f"wp'(a) = 0 at the end a = {half[1]}")):
        basis_F_torus_untwisted_paired(ctx, 2, half)


def _reference_end_check(ctx, points, wr=None):
    """The torus bases' end checks one end and one pair at a time: the
    builders' loops over the ends, then a theta frame of its own on each
    pair of ends that the zeta table subtracts, which fails where the
    table's frame would.  The distance floors are those of the unit chart,
    1e-10 s and 1e-9 s for the lattice's chart scale s."""
    zero, s = [], 4.0 ** ctx.lattice.chart_exponent
    if wr is None:
        if any(is_infinity(p) for p in points):
            raise ValueError("twisted ends must be finite")
        zero = [k for k, p in enumerate(points) if ctx.lattice_distance(p) < 1e-10 * s]
        if len(zero) != 1:
            raise ValueError("twisted basis requires exactly one end on the lattice (at 0)")
        for k, p in enumerate(points):
            if k not in zero and ctx.lattice_distance(p) < 1e-9 * s:
                raise ValueError("nonzero ends must be off-lattice")
    else:
        for p in points:
            if is_infinity(p) or ctx.lattice_distance(p) < 1e-9 * s \
                    or ctx.lattice_distance(p - wr) < 1e-9 * s:
                raise ValueError(
                    "untwisted ends must be finite and avoid 0 and omega_r (mod lattice)")
    for i, p in enumerate(points):
        for j, q in enumerate(points[i + 1:], i + 1):
            if i in zero or j in zero:
                continue
            try:
                elliptic._theta_frame(ctx, q - p)
            except PoleEvaluationError:
                raise ValueError(f"the ends {p} and {q} are equal modulo the lattice") from None


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return "accepted"


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16), st.integers(1, 3),
       st.lists(st.sampled_from(["free", "zero", "half", "end", "close", "translate"]),
                min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_end_check_is_the_per_end_loops(re_tau, thinness, size, angle, k1, k2, seed, r, kinds):
    # the skewed lattices of test_table_on_random_lattices.  Each end lies
    # free in the cell, or 1e-11 to 1e-8 from 0, from omega_r or from an
    # earlier end modulo the lattice, or within a decade of the frame's
    # pole tolerance from an earlier end, or on an earlier end's translate;
    # the twisted divisor adds 0 to them
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    b2 = b1 * complex(re_tau, lo * (25.0 / lo) ** thinness)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    wr = ctx.half_period(r)
    rng = np.random.default_rng(seed)
    ends = []
    for kind in kinds:
        shift = int(rng.integers(-1, 2)) * b1 + int(rng.integers(-1, 2)) * b2
        near = 10 ** rng.uniform(-11, -8) * np.exp(2j * np.pi * rng.uniform())
        base = {"zero": 0.0, "half": wr}.get(kind)
        if kind in ("end", "close", "translate") and ends:
            base = ends[int(rng.integers(len(ends)))]
            if kind == "close":
                near *= ctx.lattice.pole_tolerance * 10 ** rng.uniform(-1, 1) / abs(near)
            elif kind == "translate":
                shift, near = shift or b1, 0.0
        if base is None:
            fx, fy = rng.uniform(0.05, 0.95, 2)
            base, shift, near = fx * b1 + fy * b2, 0.0, 0.0
        ends.append(complex(base + shift + near))
    for points, w in (((0j, *ends), None), (tuple(ends), wr)):
        want = _outcome(_reference_end_check, ctx, points, w)
        assert _outcome(spinor._torus_end_check, ctx, points, w) == want
        if want == "accepted" or _outcome(EndDivisor, points) != "accepted":
            continue
        with pytest.raises(ValueError) as err:
            if w is None:
                basis_F_torus_twisted(ctx, EndDivisor(points))
            else:
                basis_F_torus_untwisted(ctx, r, EndDivisor(points))
        assert str(err.value) == want


def test_ends_equal_modulo_the_lattice_are_named(ctx):
    # the zeta table would meet zeta at a lattice point; the end check names the ends
    a = 0.3 + 0.2j
    with pytest.raises(ValueError, match=re.escape(
            f"the ends {a} and {a + 2 * ctx.omega1} are equal modulo the lattice")):
        basis_F_torus_twisted(ctx, EndDivisor((0.0, a, a + 2 * ctx.omega1)))
    # a paired end at a half period other than omega_r is its own negative
    with pytest.raises(ValueError, match=re.escape(
            f"the ends {complex(ctx.omega3)} and {complex(-ctx.omega3)} are equal")):
        basis_F_torus_untwisted_paired(ctx, 1, [ctx.omega3])


@pytest.mark.parametrize("family", ["sphere4", "twisted"])
def test_a_form_off_the_basis_members_is_refused(ctx, family):
    # rank_kernel and extract_K read Omega's sections as the members of one
    # basis in order: a permutation of them, a part of them or a combination
    # in place of one is refused, not read as another kernel
    b = list(moduli.sphere4_solve().form.basis if family == "sphere4" else basis_F_torus_twisted(
        ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j))))
    mixed = section_combination([1.0, 1.0, 0.0, 0.0], b, "b0+b1")
    for sections in ([b[1], b[0], b[2], b[3]], b[:3], [mixed] + b[1:]):
        form = omega_matrix(sections)
        for read in (spinor.OmegaForm.rank_kernel, extract_K):
            with pytest.raises(SectionDataError, match="not the basis members in order"):
                read(form)
    extract_K(omega_matrix(b))


class TestOmegaPairProperties:
    def test_antisymmetry(self, ctx):
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j)))
        for i in range(3):
            for j in range(3):
                assert omega_pair(basis[i], basis[j]) == pytest.approx(
                    -omega_pair(basis[j], basis[i]), abs=1e-12)

    def test_oracle_equals_pair_on_sphere(self):
        a = (np.sqrt(3) + 1j) / 2
        basis = basis_F_sphere(EndDivisor((a, 1 / a, 0.0, INF)))
        oracle = omega_qres_matrix(basis)
        for i in range(4):
            for j in range(4):
                pair = omega_pair(basis[i], basis[j]) if i != j else 0.0
                assert abs(pair - oracle[i, j]) < 1e-8

    def test_mismatched_divisors_rejected(self, ctx):
        b1 = basis_F_sphere(EndDivisor((0.0, 1.0, INF)))
        b2 = basis_F_sphere(EndDivisor((0.0, 2.0, INF)))
        with pytest.raises(SectionDataError):
            omega_pair(b1[0], b2[0])


def _lemma_ends_from_evaluators(s1, s2):
    """Per end, from the evaluators alone: the sizes of the pole coefficients
    of s1 and s2 and of the residues of s1^2, s1 s2 and s2^2, shape (ends, 5).

    Each is (1/2 pi i) times the closed integral of h du around the end on
    the oracle's qres circle u = p + w, w = r e^(2 pi i x): the 64-node
    trapezoid's mean of h w.  At infinity the chart is w = 1/z, in which a section's
    chart function is i f(1/w) / w.  A size is the modulus of that mean over
    the mean of |h w|, the sum's L1.
    """
    dom = s1.domain
    w = dom.qres_radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    sizes = []
    for p, wk in zip(dom.ends.points, w):
        if is_infinity(p):
            f, mu = 1j * section_values((s1, s2), 1.0 / wk) / wk, 1.0
        else:
            f, mu = section_values((s1, s2), p + wk), dom.form_weight(p + wk)
        terms = np.array([f[0], f[1], f[0] * f[0] * mu, f[0] * f[1] * mu, f[1] * f[1] * mu]) * wk
        sizes.append(np.abs(terms.mean(axis=1)) / np.abs(terms).mean(axis=1))
    return np.array(sizes)


def _sphere_rows():
    return basis_F_sphere(EndDivisor((0.3, -0.9, INF)))


def _pair(built):
    return built.s1, built.s2


LEMMA_PAIRS = {
    "sphere4": (lambda: moduli.sphere4_solve().K_basis, [True] * 4),
    "torus4": (lambda: _pair(moduli.torus4_construct(build_context(1.0, 1.0j))), [True] * 4),
    "klein4": (lambda: _pair(moduli.klein4_construct()), [True] * 8),
    # phi has no pole at the finite ends, and (i, 0) at infinity
    "phi-phi": (lambda: 2 * _sphere_rows()[-1:], [False, False, True]),
    # row 1 has alpha_0 = 1/1.2 at the pole 0.3 of row 0, and the other way
    # round at -0.9; neither has a pole at infinity
    "rows-0-1": (lambda: _sphere_rows()[:2], [False, False, False]),
}


class TestPlanarEnds:
    @pytest.mark.parametrize("name", list(LEMMA_PAIRS))
    def test_lemma_ends_agrees_with_the_evaluators(self, name):
        build, want = LEMMA_PAIRS[name]
        s1, s2 = build()
        sizes = _lemma_ends_from_evaluators(s1, s2)
        # every size is rounding or of order one: the verdicts are not close
        assert np.all((sizes < 1e-12) | (sizes > 1e-2)), sizes
        pole = sizes[:, :2].max(axis=1) > 1e-8
        residue_free = sizes[:, 2:].max(axis=1) < 1e-8
        assert (pole & residue_free).tolist() == want
        assert planar_ends(s1, s2).tolist() == want


class TestParityInvariant:
    def test_sphere_n_minus_dimK_even(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 5, 6, 7):
            ends = tuple(rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)) + (INF,)
            form = omega_matrix(basis_F_sphere(EndDivisor(ends)))
            K = extract_K(form)
            assert (n - len(K)) % 2 == 0


class TestLargerBases:
    def test_sphere_n8_oracle_spot_checks(self):
        rng = np.random.default_rng(10)
        ends = tuple(2 * rng.standard_normal(7) + 2j * rng.standard_normal(7)) + (INF,)
        basis = basis_F_sphere(EndDivisor(ends))
        oracle = omega_qres_matrix(basis)
        for i, j in ((0, 7), (2, 5), (7, 3), (1, 6)):
            pair = omega_pair(basis[i], basis[j])
            assert abs(pair - oracle[i, j]) < 1e-6 * max(1.0, abs(pair))

    def test_twisted_n6_oracle_spot_checks(self, ctx):
        rng = np.random.default_rng(12)
        others = tuple(complex(x) * ctx.omega1 + complex(y) * ctx.omega3
                       for x, y in zip(rng.uniform(0.2, 1.8, 5), rng.uniform(0.2, 1.8, 5)))
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + others))
        oracle = omega_qres_matrix(basis)
        for i, j in ((0, 3), (1, 4), (5, 2)):
            pair = omega_pair(basis[i], basis[j])
            assert abs(pair - oracle[i, j]) < 1e-6 * max(1.0, abs(pair))

    def test_torus_bases_independent(self, ctx):
        rng = np.random.default_rng(13)
        probes = (rng.uniform(0.05, 0.95, 4) * 2 * ctx.omega1
                  + rng.uniform(0.05, 0.95, 4) * 2 * ctx.omega3)
        tw = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 1.5 + 1.4j)))
        assert np.linalg.matrix_rank(section_values(tw, probes).T, tol=1e-8) == 4
        ut = basis_F_torus_untwisted(
            ctx, 1, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j)))
        probes3 = probes[:3]
        assert np.linalg.matrix_rank(section_values(ut, probes3).T, tol=1e-8) == 3
        pb = basis_F_torus_untwisted_paired(ctx, 1, [0.31 + 0.4j, 0.9 + 0.77j])
        assert np.linalg.matrix_rank(section_values(pb, probes).T, tol=1e-8) == 4
