"""Sections as (basis, coefficients): row kernels, combinations, frame counts."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from spinorminimal import cli, elliptic, spinor, surface
from spinorminimal.elliptic import PoleEvaluationError, build_context, wp, wp_prime, zeta
from spinorminimal.moduli import CONSTRUCTIONS, klein4_construct, torus4_construct
from spinorminimal.numkit import QuadraturePath
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
    omega_matrix,
    omega_qres_matrix,
    omega_qres_oracle,
    period_matrix,
    polynomial_sphere_basis,
    section_combination,
    section_values,
)
from spinorminimal.surface import GridSpec, WeierstrassData, integrate_surface, real_period


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

    def test_paired_rows_at_an_end_raise(self, klein):
        # the Klein pair's zeta rows read each end's shift by the addition
        # theorem, whose denominator wp(u) - wp(a_i) vanishes at a_i and -a_i:
        # within 1e-12 of either they raise PoleEvaluationError naming the
        # point and the end a_i or -a_i, with no numpy warning, as a zeta
        # section does at its end
        ends = klein.s1.domain.ends.points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (klein.s1, klein.s2):
                for u in (ends[0], ends[4], ends[2] + 1e-14, ends[7] - 1e-14j):
                    with pytest.raises(PoleEvaluationError, match="within 1e-12 of an end") as err:
                        s.evaluate([1.0 + 0.5j, u])
                    assert repr(complex(u)) in str(err.value)
                    assert re.search(r"for the end a = \S+ or -a = \S+:", str(err.value))
                assert np.all(np.isfinite(s.evaluate(np.array(ends) + 1e-6)))
            t4 = torus4_construct(build_context(1.0, 1.0j))
            with pytest.raises(PoleEvaluationError):
                t4.s1.evaluate([t4.s1.domain.ends.points[1]])

    def test_rational(self):
        # the monomial rows z^j phi, polynomials on the sphere without ends
        basis = polynomial_sphere_basis(2)
        formulas = [(lambda z: 1.0 + 0j, lambda z: 0.0j), (lambda z: z, lambda z: 1.0 + 0j),
                    (lambda z: z * z, lambda z: 2 * z)]
        rng = np.random.default_rng(2)
        _check_rows(basis, formulas, rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert [s.label for s in basis] == ["phi", "z phi", "z^2 phi"]
        assert basis[0].domain.ends.n == 0

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
        # s1 lies on the wp_r-type paired sections k_i (t_i - t_{4+i}): on the
        # zeta rows its coefficient at -a_i is minus that at a_i
        c = np.asarray(klein.s1.coefficients)
        assert np.array_equal(c[4:], -c[:4]) and np.all(c[:4])

    def test_mixed_bases_rejected(self, ctx):
        b1 = basis_F_sphere(EndDivisor((0.0, 1.0, INF)))
        b2 = basis_F_sphere(EndDivisor((0.0, 1.0, INF)))
        with pytest.raises(SectionDataError):
            section_combination([1.0, 1.0], [b1[0], b2[1]])
        with pytest.raises(SectionDataError):
            WeierstrassData(s1=b1[0], s2=b2[1])
        with pytest.raises(SectionDataError):
            omega_qres_oracle(b1[0], b2[1])
        with pytest.raises(SectionDataError):
            omega_qres_matrix([b1[0], b1[1], b2[1]])


@pytest.mark.parametrize("family", ["sphere", "twisted", "untwisted1", "untwisted2",
                                    "untwisted3", "paired", "monomial"])
def test_every_basis_carries_its_table(ctx, family):
    # every family has a complex (rows, ends, 2) table of (alpha_-1, alpha_0)
    # and half-integer row weights, and a member's expansions are its row
    ends = (0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j)
    members = {
        "sphere": lambda: basis_F_sphere(EndDivisor(ends + (INF,))),
        "twisted": lambda: basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends)),
        "paired": lambda: basis_F_torus_untwisted_paired(ctx, 1, ends[:2]),
        "monomial": lambda: polynomial_sphere_basis(3),
    }.get(family, lambda: basis_F_torus_untwisted(ctx, int(family[-1]), EndDivisor(ends)))()
    basis = members[0].basis
    rows, n_ends = len(basis.labels), basis.domain.ends.n
    assert isinstance(basis.laurent, np.ndarray) and basis.laurent.dtype == complex
    assert basis.laurent.shape == (rows, n_ends, 2)
    assert isinstance(basis.weights, np.ndarray) and basis.weights.shape == (rows,)
    assert np.all(basis.weights % 1 == 0.5)
    if family == "paired":
        # the paired sections are combinations of the zeta rows of their
        # ends +-a_i, with the rows' table contracted
        assert isinstance(basis, spinor._ZetaBasis) and basis.domain.r == 1
        assert rows == len(members) == n_ends == 4
        for s in members:
            assert np.array_equal(s.expansions, basis.table([s.coefficients])[0])
        return
    assert rows == len(members)
    for j, s in enumerate(members):
        assert np.array_equal(s.expansions, basis.laurent[j])


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
        oracle = omega_qres_matrix(basis)
        assert np.all(np.abs(oracle - omega) <= 1e-12 * np.maximum(1.0, np.abs(omega)))


def _mesh_pair(name, klein):
    """(s1, s2) and the basepoint fractions of a torus mesh."""
    if name == "torus4":
        t4 = torus4_construct(build_context(1.0, 1.0j))
        return (t4.s1, t4.s2), (0.5, 0.25)
    return (klein.s1, klein.s2), (0.5, 0.125)


def _lattice_vertex(dom, n, fractions):
    fx, fy = fractions
    return round((n - 1) * fx) / (n - 1) * 2 * dom.ctx.omega1 \
        + round((n - 1) * fy) / (n - 1) * 2 * dom.ctx.omega3


class TestFrameCounts:
    """One theta frame per point set: a WeierstrassData.omega call, a
    FormPrimitive.evaluate call, a block of integrate_surface and an
    integrand call of period_matrix or omega_qres_matrix each take one.  An
    end whose negative is an end reads its shift from its rows on the
    points; any other end, as a random divisor's, keeps its rows u - a in
    it, laid after them when the points are made."""

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
        # the zeta rows of the eight ends and the chart weight read the one
        # frame row of u
        u = _points(klein.ctx, 40)
        assert self._frames(count_calls, WeierstrassData(s1=klein.s1, s2=klein.s2).omega, u) == 1

    @pytest.mark.parametrize("name", ["torus4", "klein4"])
    def test_one_frame_per_block(self, monkeypatch, count_calls, klein, name):
        # each block of integrate_surface takes one frame, on its vertices
        # alone, and the first block on the primitive's probe point and the
        # basepoint too, where the primitive's constant is fixed, as the
        # domain's shift rules and its chart weight at the ends are read
        # from the evaluation of its ends that its build took: on torus-4
        # the ends are 0 and the half periods, on the Klein pair the eight
        # ends +-a_i, whose shifts the rows and the primitive read from the
        # block's one shift table
        (s1, s2), fractions = _mesh_pair(name, klein)
        data = WeierstrassData(s1=s1, s2=s2)
        calls = count_calls(elliptic, "_theta_frame")
        monkeypatch.setattr(surface, "_BLOCK", 100)
        base = _lattice_vertex(data.domain, 17, fractions)
        mesh = integrate_surface(data, GridSpec(17, 17), base)
        # a torus block is 100 // 2 // 17 = 2 whole grid rows, and the probe
        # and the basepoint lead the first block
        sizes = [np.count_nonzero(mesh.valid[r:r + 2]) + 2 * (r == 0) for r in range(0, 17, 2)]
        assert len(sizes) > 2 and all(sizes)
        assert [np.size(args[1]) for args in calls] == sizes

    @pytest.mark.parametrize("name", ["torus4", "klein4"])
    def test_each_shift_is_formed_once_per_block(self, monkeypatch, count_calls, klein, name):
        # the rows and the primitive of a block read one shift table, whose
        # ends are formed together once: on torus-4 the three half periods
        # from one read of the theta quotients, on the Klein pair the eight
        # ends +-a_i from one broadcast of the addition theorem
        (s1, s2), fractions = _mesh_pair(name, klein)
        data = WeierstrassData(s1=s1, s2=s2)
        rule = count_calls(elliptic._Frame, "half_shifts") if name == "torus4" \
            else count_calls(spinor._Points, "_added")
        frames = count_calls(elliptic, "_theta_frame")
        monkeypatch.setattr(surface, "_BLOCK", 100)
        integrate_surface(data, GridSpec(17, 17), _lattice_vertex(data.domain, 17, fractions))
        assert len(rule) == len(frames) > 2
        if name == "klein4":
            assert all(np.shape(args[1]) == (8, 1) for args in rule)

    @pytest.mark.parametrize("paired", [False, True])
    def test_one_frame_per_integrand_call(self, monkeypatch, count_calls, ctx, paired):
        half = [0.31 + 0.4j, 0.9 + 0.77j]
        basis = basis_F_torus_untwisted_paired(ctx, 2, half) if paired \
            else basis_F_torus_untwisted(ctx, 2, EndDivisor(tuple(half) + (1.3 + 0.2j,)))
        nodes = []
        contour = spinor.contour_integral
        monkeypatch.setattr(spinor, "contour_integral", lambda f, *args, **kwargs: contour(
            lambda x: nodes.append(x) or f(x), *args, **kwargs))
        frames = count_calls(elliptic, "_theta_frame")
        period_matrix(basis[:3], QuadraturePath.segment(0.2 + 0.1j, 0.7 + 0.15j))
        assert len(frames) == len(nodes) > 0
        frames.clear()
        nodes.clear()
        omega_qres_oracle(basis[0], basis[1])
        assert len(frames) == len(nodes) > 0
        frames.clear()
        nodes.clear()
        omega_qres_matrix(basis)
        assert len(frames) == len(nodes) > 0

    def test_form_primitive_takes_its_probe_frame_alone(self, count_calls, ctx):
        # an untwisted domain with the ends +-a, whose shifts have a rule,
        # and b, whose negative is no end: the shift rules and the chart
        # weight at the ends read the evaluation of the ends that the build
        # took, so form_primitive takes one frame, on its probe point u0 and
        # the row u0 - b
        a, b = 0.31 + 0.4j, 0.9 + 0.77j
        t = basis_F_torus_untwisted(ctx, 2, EndDivisor((a, b, -a)))[0]
        calls = count_calls(elliptic, "_theta_frame")
        rules = t.domain.shift_rules
        assert rules[b] is None and {p for p, rule in rules.items() if rule} == {a, -a}
        assert not calls
        form_primitive(((t, t),))
        assert [np.size(args[1]) for args in calls] == [2]

    def test_klein4_construct(self, count_calls):
        # one context, six frames placing a (wp_inverse's scan and five
        # Newton steps), the paired build's evaluation of its ends, which
        # its table-3 values read, one of the deck check on its points and
        # their images, one node batch of the two cycles' joint period
        # quadrature, and form_primitive's probe
        calls = count_calls(elliptic, "_theta_frame")
        klein4_construct()
        assert len(calls) == 11

    def test_zeta_bases_build_from_one_zeta_frame(self, count_calls, ctx):
        calls = count_calls(elliptic, "_theta_frame")
        basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 0.5 + 1.4j)))
        assert len(calls) == 1
        # the zeta table and the pole data 1/wp_r(a_i) share one frame
        basis_F_torus_untwisted(ctx, 2, EndDivisor((0.31 + 0.4j, 0.9 + 0.77j, 1.3 + 0.2j)))
        assert len(calls) == 2
        # and so do the paired build's p_i and wp'(a_i)
        calls.clear()
        basis_F_torus_untwisted_paired(ctx, 2, [0.31 + 0.4j, 0.9 + 0.77j])
        assert len(calls) == 1


class TestDistanceCalls:
    """EllipticContext.lattice_distance takes one array call where a loop
    took one per end or pair of ends: the torus bases' end check, the end
    separation of WeierstrassData, form_primitive's probe and the mesh
    mask, which takes the distances of the grid points around the ends to
    every end in one call, and to every chart singularity in another."""

    @pytest.mark.parametrize("name, build, construct, mesh", [
        ("klein4", {}, 3, 4),
        ("torus4", {"omega1": 1 + 0.4j, "omega3": 1 - 0.4j}, 1, 3),
    ])
    def test_budget(self, count_calls, name, build, construct, mesh):
        entry = CONSTRUCTIONS[name]
        calls = count_calls(elliptic.EllipticContext, "lattice_distance")
        built = entry.build(**build)
        # klein4: the ends' placement, the end check and the probe; torus4:
        # the end check
        assert len(calls) == construct
        entry.mesh(built, GridSpec(33, 33))
        # the end separation, the probe and the mask's one block, which on
        # klein4 takes one call to its ends and one to its chart
        # singularities
        assert len(calls) == construct + mesh
        assert all(np.size(u) > 1 for _, u in calls)

    @pytest.mark.parametrize("domain, ends", [("twisted", "0;0.4+0.33j;1.1+0.7j;0.5+1.4j"),
                                              ("untwisted", "0.31+0.4j;0.9+0.77j;1.3+0.2j;0.2+0.1j")])
    def test_omega(self, count_calls, tmp_path, domain, ends):
        # the end check's one call on four ends
        calls = count_calls(elliptic.EllipticContext, "lattice_distance")
        assert cli.main(["omega", "--domain", domain, "--ends", ends, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


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


def _per_row_paired(ctx, r, half, u):
    """Values and derivatives of the paired sections wp_r/(wp_r - p_i) and
    wp'/(wp_r - p_i) of the ends +-a_i at u, p_i = wp_r(a_i), from a theta
    frame of their own on u and the a_i, and the closed form wp'' = 6 wp^2 -
    g2/2: the row kernel that evaluated them before they became
    combinations of the zeta rows of their ends."""
    u = np.reshape(u, -1)
    frame = elliptic._theta_frame(ctx, np.concatenate([u, half]))
    p, dp = frame.wp()[:u.size], frame.wp_prime()[:u.size]
    pr, pvals = p - ctx.e(r), frame.wp()[u.size:] - ctx.e(r)
    ddp = 6.0 * p * p - ctx.g2 / 2.0
    dens = [pr - q for q in pvals]
    values = [pr / d for d in dens] + [dp / d for d in dens]
    slopes = [-q * dp / d**2 for q, d in zip(pvals, dens)] + [(ddp * d - dp * dp) / d**2 for d in dens]
    return np.array(values), np.array(slopes)


def _per_consumer_mesh(data, mesh):
    """Vertices, normals and identity residual of a torus mesh from one
    frame per consumer: the rows (one per shift on a zeta basis), the chart
    weight (wp on the untwisted tori) and the primitive (one per end)."""
    basis, dom = data.s1.basis, data.domain
    C = np.array([data.s1.coefficients, data.s2.coefficients])
    u = np.concatenate([[mesh.metadata["basepoint"]], mesh.domain_uv])
    f1, f2 = _per_shift_values(basis, C, u)[0]
    weight = 1.0 / (wp(dom.ctx, u) - dom.ctx.e(dom.r)) if dom.h_dim == 0 else 1.0
    prim = form_primitive(((data.s1, data.s1), (data.s2, data.s2), (data.s1, data.s2)))
    products = np.stack([f1 * f1, f2 * f2, f1 * f2]) * weight
    phi, form, size = _per_end_primitive(prim, u)
    identity = np.max(np.abs(products - form) / np.maximum(np.abs(products) + size, 1e-300))
    return (real_period(phi[:, 1:] - phi[:, :1]).T,
            surface._normals(f1[1:], f2[1:], np.empty((len(f1) - 1, 3))),
            float(identity))


# the bound on a value read from the one frame on u, relative to its scale,
# against one from a frame of its own on u - a; 1.2e-14 was the largest of
# 60 draws of test_one_frame_is_pointwise_and_near_a_frame_per_shift's lattices
SHIFT_TOL = 1e-12


def _assert_mesh_is_per_consumer(data, grid, base):
    """integrate_surface, on blocks of 16 vertices, bitwise the mesh of the
    default block, and within SHIFT_TOL of the mesh scale (vertices) or 1
    (normals) of _per_consumer_mesh, whose rows and primitive take a frame
    per shift; both identity residuals are at rounding level."""
    whole = integrate_surface(data, GridSpec(grid, grid), base)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surface, "_BLOCK", 16)
        mesh = integrate_surface(data, GridSpec(grid, grid), base)
    assert len(mesh.vertices) > 3 * 16
    for key in ("vertices", "gauss"):
        assert getattr(mesh, key).tobytes() == getattr(whole, key).tobytes()
    assert repr(mesh.metadata) == repr(whole.metadata)
    verts, normals, identity = _per_consumer_mesh(data, mesh)
    assert np.max(np.abs(verts - mesh.vertices)) <= SHIFT_TOL * mesh.metadata["mesh_scale"]
    assert np.max(np.abs(normals - mesh.gauss)) <= SHIFT_TOL
    assert max(identity, mesh.metadata["identity_residual_max"]) <= 1e-11


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
def test_one_frame_is_pointwise_and_near_a_frame_per_shift(re_tau, thinness, size, angle, k1, k2,
                                                           seed):
    # the skewed lattices of test_spinor's oracle test, reduced Im(tau) up to
    # 4: the rows of random ends, none the negative of another, each read a
    # frame of their own, bitwise the per-shift values; the ends at 0 and
    # the half periods read theirs from the one frame on u, within SHIFT_TOL
    # of the per-shift values, and a point's bits are its own
    lo = np.sqrt(1.0 - re_tau**2)
    b1 = size * np.exp(1j * angle)
    b2 = b1 * complex(re_tau, lo * (4.0 / lo) ** thinness)
    p1 = b1 + k1 * b2
    ctx = build_context(p1 / 2, (b2 + k2 * p1) / 2)
    rng = np.random.default_rng(seed)
    fractions = np.array([(0.13, 0.21), (0.62, 0.37), (0.31, 0.78)]) + rng.uniform(-0.05, 0.05, (3, 2))
    ends = tuple(complex(fx * b1 + fy * b2) for fx, fy in fractions)
    u = rng.uniform(-1, 1, 30) * b1 + rng.uniform(-1, 1, 30) * b2
    bases = [basis_F_torus_untwisted(ctx, r, EndDivisor(ends)) for r in (1, 2, 3)]
    bases += [basis_F_torus_twisted(ctx, EndDivisor((0.0,) + ends))]
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
    # a section without the row of omega1 shares the frame with the
    # primitive, which reads the ends (0, omega2, omega3, omega1)
    gap = K[0].basis.section([1.0, 0.0, 1.0, 1.0], "gap")
    shared = gap.domain.points(u)
    whole = prim.evaluate(shared)
    want = _per_end_primitive(prim, u)
    for got, one, per_end in zip(whole, prim.evaluate(u[0]), want):
        assert np.array_equal(got[:, 0], one)
        assert np.all(np.abs(got - per_end) <= SHIFT_TOL * (np.abs(per_end) + want[2]))
    values = section_values([gap], shared)
    assert np.array_equal(values[:, 0], section_values([gap], u[0]))
    per_shift = _per_shift_values(gap.basis, np.array([gap.coefficients]), u)[0]
    assert np.all(np.abs(values - per_shift) <= SHIFT_TOL * np.max(np.abs(per_shift)))
    # a mesh of a K pair, whose rows' shifts are its primitive's ends
    data = WeierstrassData(s1=K[0], s2=K[1])
    _assert_mesh_is_per_consumer(data, 9, _lattice_vertex(data.domain, 9, (0.5, 0.25)))


@pytest.mark.parametrize("lattice", [(1.0, 1.0j), (1.1, 0.2 + 0.9j)])
@pytest.mark.parametrize("family", ["twisted", "untwisted"])
def test_a_divisor_with_both_kinds_of_end(lattice, family):
    # a half-period end, read from theta quotients, beside an end whose
    # negative is no end, read from its rows u - b in the same frame: the
    # twisted (0, omega1, b) and the untwisted {omega3, b}, r = 1.  The
    # values are pointwise, within SHIFT_TOL of a frame per shift, and
    # omega_qres_matrix, whose integrand evaluates the sections on circles
    # round the ends, agrees with the Laurent tables.  At b the row of b
    # raises, and the sections without it are finite; on the lattice all raise
    ctx, b = build_context(*lattice), 0.3 + 0.2j
    basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, ctx.omega1, b))) if family == "twisted" \
        else basis_F_torus_untwisted(ctx, 1, EndDivisor((ctx.omega3, b)))
    dom, half = basis[0].domain, ctx.omega1 if family == "twisted" else ctx.omega3
    assert dom.shift_rules.keys() == {half, b} and dom.shift_rules[half][0]
    assert dom.shift_rules[b] is None
    sections = list(basis) + [basis[0].basis.section(np.arange(1.0, len(basis) + 1), "combo")]
    C = np.array([s.coefficients for s in sections])
    rng = np.random.default_rng(11)
    u = rng.uniform(0.05, 0.95, 20) * 2 * ctx.omega1 + rng.uniform(0.05, 0.95, 20) * 2 * ctx.omega3
    values, slopes = section_values(sections, u, derivative=True)
    assert values.shape == slopes.shape == (len(sections), u.size)
    assert np.array_equal(values[:, 0], section_values(sections, u[0]))
    for got, want in zip((values, slopes), _per_shift_values(basis[0].basis, C, u)):
        assert np.all(np.abs(got - want) <= SHIFT_TOL * np.max(np.abs(want), axis=1, keepdims=True))
    omega = omega_matrix(basis).matrix.entries
    assert np.all(np.abs(omega_qres_matrix(basis) - omega) <= 1e-12 * np.maximum(1.0, np.abs(omega)))
    with pytest.raises(PoleEvaluationError, match=re.escape(f"{b!r} for the end a = {b!r}")):
        section_values(sections, [u[0], b])
    with pytest.raises(PoleEvaluationError, match="within 1e-12 of a lattice point"):
        section_values(sections, [u[0], 2 * ctx.omega1])
    row = basis[0].basis.shifts.index(b)
    assert np.all(np.isfinite(section_values([s for s in basis if s.coefficients[row] == 0], b)))


def test_a_divisor_with_all_four_kinds_of_end():
    # the twisted (0, omega1, b, -b, c) on (1, i): 0, a half-period, the
    # pair +-b read by the addition theorem, and c, whose negative is no
    # end, read from its row u - c.  The table gives each end one rule;
    # within 1e-14 of each end a section raises and names the end, or both
    # ends of the pair where wp(u) - wp(b) vanishes
    ctx, b, c = build_context(1.0, 1.0j), 0.31 + 0.4j, 0.9 + 0.77j
    basis = basis_F_torus_twisted(ctx, EndDivisor((0.0, ctx.omega1, b, -b, c)))
    dom = basis[0].domain
    rules, at = dom.shift_rules, dom.end_values[0]
    assert rules.keys() == {ctx.omega1, b, -b, c} and rules[ctx.omega1][0] != 0
    for p in (b, -b):
        k = np.flatnonzero(at.u == p)[0]
        assert rules[p] == (0, at.zeta[k], at.wp[k], at.wp_prime[k])
    assert rules[c] is None
    u = _points(ctx, n=20, seed=12)
    C = np.eye(len(basis))
    for got, want in zip(section_values(basis, u, derivative=True),
                         _per_shift_values(basis[0].basis, C, u)):
        assert np.all(np.abs(got - want) <= SHIFT_TOL * np.max(np.abs(want), axis=1, keepdims=True))
    pair = f"for the end a = {b!r} or -a = {-b!r}:"
    for p, named in ((ctx.omega1, f"for the end a = {ctx.omega1!r}:"), (b, pair), (-b, pair),
                     (c, f"for the end a = {c!r}:")):
        with pytest.raises(PoleEvaluationError, match=re.escape(named)):
            section_values(basis, [u[0], p + 1e-14])
    omega = omega_matrix(basis).matrix.entries
    assert np.all(np.abs(omega_qres_matrix(basis) - omega) <= 1e-12 * np.maximum(1.0, np.abs(omega)))


@pytest.mark.parametrize("lattice", ["klein", "square"])
def test_paired_sections_are_the_wp_quotients(klein, lattice):
    # the paired sections, combinations of zeta rows, against the row kernel
    # they replace, on the Klein ends (r = 2) and on (1, i) with r = 1:
    # values and derivatives within SHIFT_TOL of each section's scale
    if lattice == "klein":
        ctx, r, half = klein.ctx, 2, np.array(klein.ends.points[:4])
    else:
        ctx, r, half = build_context(1.0, 1.0j), 1, np.array([0.31 + 0.4j, 0.9 + 0.77j])
    paired = basis_F_torus_untwisted_paired(ctx, r, half)
    u = _points(ctx, n=40, seed=14)
    for got, want in zip(section_values(paired, u, derivative=True),
                         _per_row_paired(ctx, r, half, u)):
        assert np.all(np.abs(got - want) <= SHIFT_TOL * np.max(np.abs(want), axis=1, keepdims=True))


def test_klein_mesh_is_near_a_frame_per_consumer(klein):
    # the rows, the weight and the primitive share one frame per block, on u
    # alone, and come within SHIFT_TOL of a frame per shift
    (s1, s2), fractions = _mesh_pair("klein4", klein)
    data = WeierstrassData(s1=s1, s2=s2)
    _assert_mesh_is_per_consumer(data, 17, _lattice_vertex(data.domain, 17, fractions))
