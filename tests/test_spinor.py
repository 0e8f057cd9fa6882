"""Spinor sections, Omega, the qres oracle, kernels, and the spin cover."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinorminimal import moduli
from spinorminimal.elliptic import build_context, wp, wp_prime
from spinorminimal.numkit import SkewMatrix, pfaffian, skew_rank_kernel
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    SectionDataError,
    SphereDomain,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    evaluation_matrix,
    extract_K,
    form_primitive,
    is_infinity,
    omega_matrix,
    omega_pair,
    omega_qres_oracle,
    planar_ends,
    rational_sphere_basis,
    section_combination,
    section_values,
    sigma_map,
    spin_cover,
    verify_laurent_consistency,
)


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

    def test_cover_identity(self):
        lam, rot = spin_cover(np.eye(2))
        assert lam == 1
        assert np.allclose(rot, np.eye(3))

    def test_cover_scalar(self):
        lam = 1.3 - 0.4j
        det, rot = spin_cover(np.diag([lam, lam]))
        assert det == pytest.approx(lam * lam)
        assert np.allclose(rot, np.eye(3))

    def test_cover_commutes_with_sigma(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            det, rot = spin_cover(a)
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = np.array(sigma_map(*(a @ z)))
            rhs = det * rot @ np.array(sigma_map(*z))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_cover_su2_gives_so3(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            al, be = z / np.linalg.norm(z)
            a = np.array([[al, -np.conj(be)], [be, np.conj(al)]])
            det, rot = spin_cover(a)
            assert abs(det - 1.0) < 1e-12
            assert np.max(np.abs(rot.imag)) < 1e-12
            assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-10
            assert np.linalg.det(rot.real) == pytest.approx(1.0)

    def test_cover_minus_a_same(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d1, r1 = spin_cover(a)
        d2, r2 = spin_cover(-a)
        assert d1 == pytest.approx(d2)
        assert np.allclose(r1, r2)

    def test_cover_inner_product_scaling(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det, rot = spin_cover(a)
        t = det * rot
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert (t @ x) @ (t @ y) == pytest.approx(det**2 * (x @ y), rel=1e-10)

    def test_cover_rejects_singular(self):
        with pytest.raises(ValueError):
            spin_cover(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestTableResidues:
    def test_values(self):
        div = EndDivisor((0.3, INF))
        dom = SphereDomain(ends=div)
        # am1/(z - 0.3) + a0 for (am1, a0) = (2, 3), (1, 0), (0, 1)
        s, s1, s2 = rational_sphere_basis(
            dom, [([2.0 - 0.9, 3.0], [-0.3, 1.0]), ([1.0], [-0.3, 1.0]), ([1.0], [1.0])],
            ("x", "x1", "x2"))
        # res_k(s_i s_j) = alpha_-1(s_i) alpha_0(s_j) + alpha_0(s_i) alpha_-1(s_j)
        T = s.basis.laurent
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
        mat = evaluation_matrix(basis, probes)
        assert np.linalg.matrix_rank(mat, tol=1e-8) == 6

    def test_two_ended_sphere(self):
        basis = basis_F_sphere(EndDivisor((0.0, INF)))
        form = omega_matrix(basis)
        assert np.allclose(form.matrix.entries, [[0, -1], [1, 0]])
        rank, kern = skew_rank_kernel(form.matrix, 1e-9)
        assert rank == 2 and len(kern) == 0
        assert extract_K(form, 1e-9) == []

    def test_three_ended_sphere_kernel_dim_one(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            ends = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) + (INF,)
            form = omega_matrix(basis_F_sphere(EndDivisor(ends)))
            K = extract_K(form, 1e-9)
            assert len(K) == 1  # dim K = 1 < 2: no surface

    def test_requires_infinity(self):
        with pytest.raises(ValueError):
            basis_F_sphere(EndDivisor((0.0, 1.0)))

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
        K = extract_K(form, 1e-9)
        assert len(K) == 3

    def test_three_end_generic_kernel(self, ctx):
        # generic placement: Omega != 0, so ker = H alone and K = 0
        # (with wp'(a1) + wp'(a2) = 0 instead, Omega = 0 and dim K = 2)
        a1, a2 = 0.4 + 0.33j, 1.1 + 0.7j
        assert abs(wp_prime(ctx, a1) + wp_prime(ctx, a2)) > 1e-3
        form = omega_matrix(basis_F_torus_twisted(ctx, EndDivisor((0.0, a1, a2))))
        rank, kern = skew_rank_kernel(form.matrix, 1e-9, scale=form.alpha_scale)
        assert rank == 2 and len(kern) == 1
        assert len(extract_K(form, 1e-9)) == 0  # K too small: no surface

    def test_end_on_lattice_rejected(self, ctx):
        with pytest.raises(ValueError):
            basis_F_torus_twisted(ctx, EndDivisor((0.0, 2 * ctx.omega1 + 1e-12, 0.5)))

    def test_oracle_on_skewed_lattice(self):
        # (1, 0.5+0.1i) is far from reduced; a qres radius from rounding in
        # that basis let the oracle's contour enclose a second end
        ctx = build_context(1.0, 0.5 + 0.1j)
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.904 + 0.049j, 0.815 + 0.063j)))
        pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
        exact = np.array([omega_pair(basis[i], basis[j]) for i, j in pairs])
        oracle = np.array([omega_qres_oracle(basis[i], basis[j]) for i, j in pairs])
        assert np.max(np.abs(oracle - exact)) < 1e-9 * max(1.0, np.max(np.abs(exact)))

    def test_oracle_on_thin_lattice(self):
        # (1, 0.5+0.05i) has reduced tau = -0.5+5i, whose q-series in the
        # given basis (|Q| = 0.73) did not converge to the invariants
        ctx = build_context(1.0, 0.5 + 0.05j)
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.904 + 0.049j, 0.815 + 0.063j)))
        pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
        exact = np.array([omega_pair(basis[i], basis[j]) for i, j in pairs])
        oracle = np.array([omega_qres_oracle(basis[i], basis[j]) for i, j in pairs])
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
            for i in range(3):
                for j in range(3):
                    if i != j:
                        oracle = omega_qres_oracle(basis[i], basis[j])
                        assert m[i, j] == pytest.approx(oracle, abs=1e-8, rel=1e-8)

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


def _pairwise_omega(basis):
    """Raw Omega, residue sums over the ends and alpha scales of a basis,
    by loops over pairs and ends on scalar Laurent data."""
    tables = [[(complex(am1), complex(a0)) for am1, a0 in s.expansions] for s in basis]
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
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                exact = omega_pair(basis[i], basis[j])
                assert abs(omega_qres_oracle(basis[i], basis[j]) - exact) < 1e-9 * max(1.0, abs(exact))


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_table_on_random_lattices(re_tau, thinness, size, angle, k1, k2, seed):
    # the skewed lattices of the test above with Im(tau) up to 25, and every
    # family.  The ends lie at the jittered cell fractions, scaled along b2
    # to within |b1| of the b1 axis: farther along a thin cell the rows'
    # differences are exponentially small next to their values, and neither
    # the tables nor the oracle resolve them (the paired rows fail already
    # at Im(tau) = 3.7 on the whole cell)
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
    bases += [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]
    for basis in bases:
        n = len(basis)
        form = omega_matrix(basis)
        raw, res_sum, scale = _pairwise_omega(basis)
        off = ~np.eye(n, dtype=bool)
        # the table contraction is the pairwise sum to the bit
        assert np.array_equal(form.matrix.entries, SkewMatrix.antisymmetrize(raw).entries)
        assert all(omega_pair(basis[i], basis[j]) == raw[i, j] for i, j in zip(*np.nonzero(off)))
        assert form.alpha_scale == pytest.approx(scale[off].max(), rel=1e-14)
        assert np.all(res_sum[off] <= 1e-8 * scale[off])
        assert np.all(np.abs(raw + raw.T)[off] <= 1e-8 * scale[off])
        for i, j in zip(*np.triu_indices(n, 1)):
            exact = form.matrix.entries[i, j]
            assert abs(omega_qres_oracle(basis[i], basis[j]) - exact) < 1e-9 * max(1.0, abs(exact))


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
        for i in range(4):
            for j in range(4):
                pair = omega_pair(basis[i], basis[j]) if i != j else 0.0
                oracle = omega_qres_oracle(basis[i], basis[j])
                assert abs(pair - oracle) < 1e-8

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
            K = extract_K(form, 1e-9)
            assert (n - len(K)) % 2 == 0


class TestLargerBases:
    def test_sphere_n8_oracle_spot_checks(self):
        rng = np.random.default_rng(10)
        ends = tuple(2 * rng.standard_normal(7) + 2j * rng.standard_normal(7)) + (INF,)
        basis = basis_F_sphere(EndDivisor(ends))
        for i, j in ((0, 7), (2, 5), (7, 3), (1, 6)):
            pair = omega_pair(basis[i], basis[j])
            oracle = omega_qres_oracle(basis[i], basis[j])
            assert abs(pair - oracle) < 1e-6 * max(1.0, abs(pair))

    def test_twisted_n6_oracle_spot_checks(self, ctx):
        rng = np.random.default_rng(12)
        others = tuple(complex(x) * ctx.omega1 + complex(y) * ctx.omega3
                       for x, y in zip(rng.uniform(0.2, 1.8, 5), rng.uniform(0.2, 1.8, 5)))
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + others))
        for i, j in ((0, 3), (1, 4), (5, 2)):
            pair = omega_pair(basis[i], basis[j])
            oracle = omega_qres_oracle(basis[i], basis[j])
            assert abs(pair - oracle) < 1e-6 * max(1.0, abs(pair))

    def test_torus_bases_independent(self, ctx):
        rng = np.random.default_rng(13)
        probes = (rng.uniform(0.05, 0.95, 4) * 2 * ctx.omega1
                  + rng.uniform(0.05, 0.95, 4) * 2 * ctx.omega3)
        tw = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 1.5 + 1.4j)))
        assert np.linalg.matrix_rank(evaluation_matrix(tw, probes), tol=1e-8) == 4
        ut = basis_F_torus_untwisted(
            ctx, 1, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j)))
        probes3 = probes[:3]
        assert np.linalg.matrix_rank(evaluation_matrix(ut, probes3), tol=1e-8) == 3
        pb = basis_F_torus_untwisted_paired(ctx, 1, [0.31 + 0.4j, 0.9 + 0.77j])
        assert np.linalg.matrix_rank(evaluation_matrix(pb, probes), tol=1e-8) == 4
