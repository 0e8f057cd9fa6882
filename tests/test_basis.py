"""Sections as (basis, coefficients): row kernels, combinations, frame counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from spinorminimal import elliptic
from spinorminimal.elliptic import build_context, wp, wp_prime, zeta
from spinorminimal.moduli import klein4_construct, torus4_construct
from spinorminimal.spinor import (
    INF,
    EndDivisor,
    SectionDataError,
    SphereDomain,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    form_primitive,
    omega_matrix,
    omega_qres_oracle,
    rational_sphere_basis,
    section_combination,
    section_values,
)
from spinorminimal.surface import WeierstrassData


@pytest.fixture(scope="module")
def ctx():
    return build_context(1.1, 0.2 + 0.9j)


@pytest.fixture(scope="module")
def klein():
    return klein4_construct()


def _points(ctx, n=7, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, n) * 2 * ctx.omega1 + rng.uniform(0.05, 0.95, n) * 2 * ctx.omega3


def _check_rows(basis, formulas, points):
    """Each member's array values and derivatives against scalar formulas."""
    assert len(basis) == len(formulas)
    for s, (f, df) in zip(basis, formulas):
        want = np.array([f(u) for u in points])
        dwant = np.array([df(u) for u in points])
        assert np.max(np.abs(s.evaluate(points) - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(s.derivative(points) - dwant)) <= 1e-12 * np.max(np.abs(dwant))


class TestBasisRows:
    def test_sphere(self):
        finite = [0.4 + 0.1j, -1.2, 0.3 - 0.8j]
        basis = basis_F_sphere(EndDivisor(tuple(finite) + (INF,)))
        formulas = [(lambda z, a=a: 1.0 / (z - a), lambda z, a=a: -1.0 / (z - a) ** 2)
                    for a in finite] + [(lambda z: 1.0 + 0j, lambda z: 0.0j)]
        rng = np.random.default_rng(1)
        _check_rows(basis, formulas, rng.standard_normal(7) + 1j * rng.standard_normal(7))

    def test_twisted(self, ctx):
        others = [0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j]
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + tuple(others)))
        formulas = [(lambda u: 1.0 + 0j, lambda u: 0.0j)] + [
            (lambda u, a=a: zeta(ctx, u - a) - zeta(ctx, u) + zeta(ctx, a),
             lambda u, a=a: wp(ctx, u) - wp(ctx, u - a)) for a in others]
        _check_rows(basis, formulas, _points(ctx))

    def test_untwisted(self, ctx):
        ends = [0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j]
        for r in (1, 2, 3):
            wr = ctx.half_period(r)
            basis = basis_F_torus_untwisted(ctx, r, EndDivisor(tuple(ends)))
            formulas = [(lambda u, a=a: zeta(ctx, u - a) - zeta(ctx, u)
                         - zeta(ctx, wr - a) + zeta(ctx, wr),
                         lambda u, a=a: wp(ctx, u) - wp(ctx, u - a)) for a in ends]
            _check_rows(basis, formulas, _points(ctx, seed=r))

    def test_paired(self, ctx):
        half = [0.31 + 0.4j, 0.9 + 0.77j]
        basis = basis_F_torus_untwisted_paired(ctx, 1, half)
        er = ctx.e(1)
        pr = lambda u: wp(ctx, u) - er
        wpp = lambda u: 6.0 * wp(ctx, u) ** 2 - ctx.g2 / 2.0
        ps = [pr(a) for a in half]
        formulas = [(lambda u, p=p: pr(u) / (pr(u) - p),
                     lambda u, p=p: -p * wp_prime(ctx, u) / (pr(u) - p) ** 2) for p in ps]
        formulas += [(lambda u, p=p: wp_prime(ctx, u) / (pr(u) - p),
                      lambda u, p=p: (wpp(u) * (pr(u) - p) - wp_prime(ctx, u) ** 2)
                      / (pr(u) - p) ** 2) for p in ps]
        _check_rows(basis, formulas, _points(ctx, seed=4))

    def test_rational(self):
        dom = SphereDomain(ends=EndDivisor((0.5, INF)))
        basis = rational_sphere_basis(dom, [([1.0, 2.0], [-0.5, 1.0]), ([3.0, 0.0, 1.0], [1.0])],
                                      ("a", "b"), laurent=False)
        formulas = [(lambda z: (1 + 2 * z) / (z - 0.5), lambda z: -2.0 / (z - 0.5) ** 2),
                    (lambda z: 3 + z * z, lambda z: 2 * z)]
        rng = np.random.default_rng(2)
        _check_rows(basis, formulas, rng.standard_normal(7) + 1j * rng.standard_normal(7))

    def test_laurent_tables_equal_scalar_zeta(self, ctx):
        # the tables come from one array zeta call per basis; each value is
        # bitwise the scalar call's
        others = [0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j]
        table = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + tuple(others)))[0].basis.laurent
        assert np.array_equal(table[0], [(0.0j, 1.0 + 0.0j)] * 4)
        for i, a in enumerate(others):
            assert np.array_equal(table[i + 1], ((-1.0 + 0.0j, 0.0j),) + tuple(
                (1.0 + 0.0j, 0.0j) if j == i
                else (0.0j, complex(zeta(ctx, b - a) - zeta(ctx, b) + zeta(ctx, a)))
                for j, b in enumerate(others)))
        ends = [0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j]
        for r in (1, 2, 3):
            wr = ctx.half_period(r)
            table = basis_F_torus_untwisted(ctx, r, EndDivisor(tuple(ends)))[0].basis.laurent
            for i, a in enumerate(ends):
                c = -zeta(ctx, wr - a) + zeta(ctx, wr)
                assert np.array_equal(table[i], tuple(
                    (1.0 / (wp(ctx, a) - ctx.e(r)), 0.0j) if j == i
                    else (0.0j, complex(zeta(ctx, b - a) - zeta(ctx, b) + c))
                    for j, b in enumerate(ends)))

    def test_members_have_unit_coefficients(self, ctx):
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j)))
        for j, s in enumerate(basis):
            assert s.coefficients == tuple(1.0 + 0j if i == j else 0j for i in range(3))
            assert np.array_equal(s.expansions, s.basis.laurent[j])

    def test_shape_follows_u(self, ctx):
        s = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j)))[1]
        u = _points(ctx, 6).reshape(2, 3)
        assert s.evaluate(u).shape == (2, 3) and s.derivative(u).shape == (2, 3)
        assert np.ndim(s.evaluate(u[0, 0])) == 0


class TestCombinations:
    def test_nested_equals_flattened(self, ctx):
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j)))
        c1 = np.array([0.0, 1.0, -0.5 + 1j, 2.0])
        c2 = np.array([0.3j, 0.0, 1.5, -1.0])
        a = section_combination(c1, basis)
        b = section_combination(c2, basis)
        nested = section_combination([2.0 - 1j, 0.25j], [a, b])
        flat = section_combination((2.0 - 1j) * c1 + 0.25j * c2, basis)
        assert np.allclose(nested.coefficients, flat.coefficients, rtol=0, atol=1e-15)
        assert np.allclose(nested.expansions, flat.expansions, rtol=1e-14, atol=1e-14)
        u = _points(ctx)
        assert np.allclose(nested.evaluate(u), flat.evaluate(u), rtol=1e-13, atol=0)

    def test_klein_s1_is_flat(self, klein):
        x1, x2 = klein.solution
        s1h, s2h = klein.sections[:2]
        want = x1 * np.asarray(s1h.coefficients) + x2 * np.asarray(s2h.coefficients)
        assert np.allclose(klein.s1.coefficients, want, rtol=1e-15, atol=0)
        assert klein.s1.basis is s1h.basis and len(klein.s1.coefficients) == 8
        assert not np.any(klein.s1.coefficients[4:])

    def test_mixed_bases_rejected(self, ctx):
        b1 = basis_F_sphere(EndDivisor((0.0, 1.0, INF)))
        b2 = basis_F_sphere(EndDivisor((0.0, 1.0, INF)))
        with pytest.raises(SectionDataError):
            section_combination([1.0, 1.0], [b1[0], b2[1]])
        with pytest.raises(SectionDataError):
            WeierstrassData(s1=b1[0], s2=b2[1])
        with pytest.raises(SectionDataError):
            omega_qres_oracle(b1[0], b2[1])


class TestChartWeight:
    def test_chart_weight_is_form_weight(self, ctx):
        p = 0.37 + 0.21j
        doms = [basis_F_sphere(EndDivisor((0.0, INF)))[0].domain,
                basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j)))[0].domain]
        doms += [basis_F_torus_untwisted(ctx, r, EndDivisor((0.9 + 0.77j,)))[0].domain
                 for r in (1, 2, 3)]
        # mu is 1 on the sphere and the twisted torus, 1/(wp - e_r) on the
        # untwisted tori: s t = f g mu du
        assert [dom.form_weight(p) for dom in doms[:2]] == [1.0, 1.0]
        for r, dom in zip((1, 2, 3), doms[2:]):
            assert dom.form_weight(p) == 1.0 / (wp(ctx, p) - ctx.e(r))


class TestQresRadius:
    @staticmethod
    def _radius(dom, p):
        """A quarter of the distance to the nearest other singular point,
        and on a torus at most a quarter of |b1|, the distance to p's own
        nearest translates."""
        ds = [dom.distance(p, q) for q in dom.singular_points() if dom.distance(p, q) > 1e-12]
        ctx = getattr(dom, "ctx", None)
        return min([0.25 * min(ds)] + ([0.25 * abs(ctx.lattice.reduced_periods[0])] if ctx else []))

    def test_equals_the_per_point_minimum(self, ctx):
        doms = [basis_F_sphere(EndDivisor((0.0, 0.7 - 0.2j, -1.1j, INF)))[0].domain,
                basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j)))[0].domain]
        doms += [basis_F_torus_untwisted(ctx, r, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j)))[0].domain
                 for r in (1, 2, 3)]
        for dom in doms:
            for p in dom.ends.points:
                if p == INF:
                    continue
                assert dom.qres_radius(p) == self._radius(dom, p)

    def test_the_cap_binds_on_a_thin_cell(self, thin_cell):
        # Im(tau) = 19.48: every other singular point of the ends 0 and 3 lies
        # farther than |b1| = 0.844, so a circle of a quarter of that distance
        # would hold the translates p +- b1 of its own end; the oracle agrees
        # with omega_matrix on the capped circles
        ctx, _, _, ends = thin_cell(-0.011652168953543596, 0.9224461272890361,
                                    0.8440363058200007, 1.4623115112963072, -1, 0, 16458)
        b1 = abs(ctx.lattice.reduced_periods[0])
        assert abs(b1 - 0.844) < 1e-3
        basis = basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))
        dom = basis[0].domain
        for k in (0, 3):
            p = dom.ends.points[k]
            assert min(dom.distance(p, q) for q in dom.singular_points() if q != p) > b1
        for p in dom.ends.points:
            assert dom.qres_radius(p) == self._radius(dom, p) == 0.25 * b1
        omega = omega_matrix(basis).matrix.entries
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert abs(omega_qres_oracle(basis[i], basis[j]) - omega[i, j]) \
                    <= 1e-12 * max(1.0, abs(omega[i, j]))


class TestFrameCounts:
    """One WeierstrassData.omega call, and one FormPrimitive.evaluate call,
    takes one theta frame for all shifts."""

    @staticmethod
    def _frames(count_calls, fn, u):
        calls = count_calls(elliptic, "_theta_frame")
        fn(u)
        return len(calls)

    def test_torus4(self, count_calls):
        t4 = torus4_construct(build_context(1.0, 1.0j))
        u = _points(t4.ctx, 40)
        # zeta(u) and the three ends at half periods share one frame
        assert self._frames(count_calls, WeierstrassData(s1=t4.s1, s2=t4.s2).omega, u) == 1
        # so do the primitive's four ends
        prim = form_primitive(((t4.s1, t4.s1), (t4.s2, t4.s2), (t4.s1, t4.s2)))
        assert self._frames(count_calls, prim.evaluate, u) == 1

    def test_klein4(self, count_calls, klein):
        u = _points(klein.ctx, 40)
        assert self._frames(count_calls, WeierstrassData(s1=klein.s1, s2=klein.s2).omega, u) <= 2

    def test_zeta_bases_build_from_one_zeta_frame(self, count_calls, ctx):
        calls = count_calls(elliptic, "_theta_frame")
        basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j)))
        assert len(calls) == 1
        # the zeta table and the pole data 1/wp_r(a_i)
        basis_F_torus_untwisted(ctx, 2, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j)))
        assert len(calls) == 3


def _per_shift_values(basis, C, u):
    """Values and derivatives of the sections with coefficient rows C on a
    zeta basis, from one theta frame per shift, each row added in turn."""
    ctx = basis.domain.ctx
    u = np.reshape(u, -1)
    at_u = elliptic._theta_frame(ctx, u)
    out = np.zeros((2, len(C), u.size), dtype=complex)
    for j, (a, c) in enumerate(zip(basis.shifts, basis.constants)):
        if not C[:, j].any():
            continue
        if a is None:
            f, df = 1.0, 0.0
        else:
            at_s = elliptic._theta_frame(ctx, u - a)
            f, df = at_s.zeta() - at_u.zeta() + c, at_u.wp() - at_s.wp()
        for k in np.flatnonzero(C[:, j]):
            out[0, k] += C[k, j] * f
            out[1, k] += C[k, j] * df
    return out


def _per_end_primitive(prim, u):
    """FormPrimitive.evaluate on a torus from one theta frame per end."""
    u = np.asarray(u, dtype=complex)
    Z = np.zeros((len(prim.ends),) + u.shape, dtype=complex)
    W = np.zeros_like(Z)
    for k, a in enumerate(prim.ends):
        frame = elliptic._theta_frame(prim.domain.ctx, u - a)
        Z[k], W[k] = frame.result(frame.zeta()), frame.result(frame.wp())
    # the ends summed in their order, as evaluate sums them
    c = prim.c.reshape(prim.c.shape + (1,) * u.ndim)
    poly = P.polyval(u, prim.poly)
    return (P.polyval(u, P.polyint(prim.poly)) - sum(c[:, k] * Z[k] for k in range(len(Z))),
            poly + sum(c[:, k] * W[k] for k in range(len(W))),
            np.abs(poly) + sum(np.abs(c[:, k]) * np.abs(W[k]) for k in range(len(W))))


@given(st.floats(-0.5, 0.5), st.floats(0.0, 1.0), st.floats(0.3, 3.0), st.floats(-np.pi, np.pi),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_one_frame_equals_a_frame_per_shift(re_tau, thinness, size, angle, k1, k2, seed):
    # the skewed lattices of test_spinor's oracle test, reduced Im(tau) up to
    # 4: every value from the stacked frame is bitwise the per-shift one
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    b2 = b1 * complex(re_tau, lo * (4.0 / lo) ** thinness)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    ends = tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions)
    u = rng.uniform(-1, 1, 30) * b1 + rng.uniform(-1, 1, 30) * b2
    bases = [basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))]
    bases += [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]
    for members in bases:
        basis = members[0].basis
        # the members, and a combination that leaves a row out
        combo = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
        combo[rng.integers(len(members))] = 0.0
        sections = list(members) + [basis.section(combo, "combo")]
        C = np.array([s.coefficients for s in sections])
        for at in (u, u[0]):
            want = _per_shift_values(basis, C, at).reshape((2, len(C)) + np.shape(at))
            assert np.array_equal(section_values(sections, at), want[0])
            got = section_values(sections, at, derivative=True)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    K = extract_K(omega_matrix(basis_F_torus_twisted(
        ctx, EndDivisor((0.0, ctx.omega1, ctx.omega2, ctx.omega3)))))
    prim = form_primitive([(K[0], K[0]), (K[1], K[2]), (K[0], K[2])])
    for at in (u, u[0]):
        for got, want in zip(prim.evaluate(at), _per_end_primitive(prim, at)):
            assert np.array_equal(got, want)
