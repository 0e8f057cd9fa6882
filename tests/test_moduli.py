"""Constructions: spheres, RP^2, tori, the Klein bottle, degeneracy scans."""

from itertools import permutations

import numpy as np
import pytest

from spinorminimal.elliptic import build_context, wp, wp_prime
from spinorminimal.moduli import (
    KLEIN_M,
    _principal_root,
    klein4_construct,
    klein_W,
    klein_det_w_closed,
    klein_det_w_factored,
    mobius_strip_spinor,
    rp2_apply,
    rp2_boundary_point,
    rp2_slice,
    rp2_symmetry_group,
    rp2_variety,
    RP2_GROUP,
    sphere4_solve,
    sphere6_K_basis,
    sphere6_ends,
    sphere6_numeric_pfaffian,
    sphere6_pfaffian,
    square_context_e1_normalized,
    torus3_admissible_pair,
    torus3_degeneracy,
    torus4_construct,
)
from spinorminimal.numkit import QuadraturePath, contour_integral
from spinorminimal.spinor import planar_ends


@pytest.fixture(scope="module")
def sphere4():
    return sphere4_solve()


@pytest.fixture(scope="module")
def klein():
    return klein4_construct()


class TestSphere4:
    def test_root_and_pfaffian(self, sphere4):
        a = sphere4.parameter[0]
        assert a == pytest.approx((np.sqrt(3) + 1j) / 2, abs=1e-12)
        assert sphere4.residuals["pfaffian"] < 1e-10
        assert sphere4.residuals["pfaffian_all_roots"] < 1e-10

    def test_K_matches_printed(self, sphere4):
        assert len(sphere4.K_basis) == 2
        assert sphere4.residuals["printed_K_span"] < 1e-8

    def test_planar_ends(self, sphere4):
        assert sphere4.residuals["planar_ends"] is True
        assert planar_ends(*sphere4.K_basis).tolist() == [True] * 4

    def test_t1_squared_residue_at_zero(self, sphere4):
        assert sphere4.residuals["t1_sq_residue_at_0"] < 1e-12

    def test_quartic_roots_closed_under_symmetries(self):
        # the four roots are {a, 1/a, -a, -1/a}: the configurations they
        # generate are interchangeable
        from spinorminimal.moduli import sphere4_quartic
        from spinorminimal.numkit import poly_roots
        roots = poly_roots(sphere4_quartic())
        a = next(r for r in roots if r.real > 0 and r.imag > 0)
        expected = {a, 1 / a, -a, -1 / a}
        for r in roots:
            assert min(abs(r - e) for e in expected) < 1e-12


class TestSphere6:
    def test_closed_form_values(self):
        assert sphere6_pfaffian((0.0, 0.0, 0.0)) == pytest.approx(-20.0)
        s2 = 2.0 * np.sqrt(5.0) / 3.0
        assert abs(sphere6_pfaffian((0.0, s2, 0.0))) < 1e-12

    def test_normalized_pfaffian_ratio_constant(self):
        rng = np.random.default_rng(100)
        ratios = []
        for _ in range(10):
            sigma = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            _, normalized = sphere6_numeric_pfaffian(sigma)
            ratios.append(normalized / sphere6_pfaffian(sigma))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios + 1.0)) < 1e-9  # exactly -1
        assert np.std(ratios) / np.abs(np.mean(ratios)) < 1e-6

    def test_on_variety_vanishes_numerically(self):
        s2 = 2.0 * np.sqrt(5.0) / 3.0
        pf, _ = sphere6_numeric_pfaffian((0.0, s2, 0.0))
        assert abs(pf) < 1e-10

    def test_K_basis_on_variety(self):
        s2 = 2.0 * np.sqrt(5.0) / 3.0
        (t1, t2), form, residuals = sphere6_K_basis((0.0, s2, 0.0))
        assert max(residuals.values()) < 1e-8
        assert planar_ends(t1, t2).tolist() == [True] * 6

    def test_c3_equals_sigma2(self):
        # c-row: c3 = sigma2 in the printed coefficient table
        s2 = 2.0 * np.sqrt(5.0) / 3.0
        (t1, t2), _, _ = sphere6_K_basis((0.0, s2, 0.0))
        # numerator of t2 is z (c3 z^3 + ...): leading coefficient c3
        # reconstructed from the section's pole at infinity being simple
        assert t2.label == "t2"

    def test_independence(self):
        s2 = 2.0 * np.sqrt(5.0) / 3.0
        (t1, t2), _, _ = sphere6_K_basis((0.0, s2, 0.0))
        probes = np.array([0.3 + 0.1j, -0.7 + 0.9j])
        m = np.array([[t1.evaluate(z), t2.evaluate(z)] for z in probes])
        assert abs(np.linalg.det(m)) > 1e-10

    def test_off_variety_rejected(self):
        with pytest.raises(ValueError):
            sphere6_K_basis((0.0, 0.0, 0.0))


class TestRP2:
    def test_special_values(self):
        assert abs(rp2_variety((np.sqrt(5.0) / 3.0, 0.0, 0.0))) < 1e-12
        assert rp2_variety((0.0, 0.0, 0.0)) == pytest.approx(-5.0)

    def test_d3_point_on_variety(self):
        c = rp2_boundary_point("D3")
        assert c[0] == pytest.approx(c[1])
        assert c[2] == pytest.approx(-c[0])
        assert abs(rp2_variety(c)) < 1e-10

    def test_group_order_and_invariance(self):
        assert len(RP2_GROUP) == 24
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = tuple(rng.uniform(-1, 1, 3))
            v = rp2_variety(c)
            for g in RP2_GROUP:
                assert rp2_variety(rp2_apply(g, c)) == pytest.approx(v, abs=1e-12)

    def test_stabilizers(self):
        assert rp2_symmetry_group(rp2_boundary_point("Z2xZ2")) == "Z2xZ2"
        assert rp2_symmetry_group(rp2_boundary_point("D3")) == "S3"

    def test_generic_boundary_point_reflection(self):
        # a point with c2 = c3 on the variety: one reflection survives
        target = 0.31
        f = lambda x: rp2_variety((x, target, target))
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        c = ((lo + hi) / 2, target, target)
        assert abs(rp2_variety(c)) < 1e-9
        assert rp2_symmetry_group(c) == "Z2"

    def test_off_variety_rejected(self):
        with pytest.raises(ValueError):
            rp2_symmetry_group((0.0, 0.0, 0.0))


# the group as (perm, sign) tuples, stabilizers point by point, element
# orders by composition and the slice by a double loop: the oracle for the
# array forms in moduli
_ORACLE_GROUP = [(perm, s) for perm in permutations(range(3))
                 for s in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))]


def _oracle_variety(c):
    c1, c2, c3 = (float(x) for x in c)
    return (c1 * c1 + 3.0) * (c2 * c2 + 3.0) * (c3 * c3 + 3.0) - 32.0 * (c1 * c2 * c3 + 1.0)


def _oracle_apply(element, c):
    perm, s = element
    return tuple(s[i] * c[perm[i]] for i in range(3))


def _oracle_element_order(g):
    cur, k = g, 1
    while not (cur[0] == (0, 1, 2) and cur[1] == (1, 1, 1)):
        perm = tuple(cur[0][g[0][i]] for i in range(3))
        sign = tuple(cur[1][g[0][i]] * g[1][i] for i in range(3))
        cur, k = (perm, sign), k + 1
    return k


def _oracle_label(c, tol=1e-8):
    c = tuple(float(x) for x in c)
    stab = [g for g in _ORACLE_GROUP
            if max(abs(a - b) for a, b in zip(_oracle_apply(g, c), c)) < tol]
    order = len(stab)
    if order == 4:
        return "Z4" if any(_oracle_element_order(g) == 4 for g in stab) else "Z2xZ2"
    return {1: "trivial", 2: "Z2", 6: "S3", 24: "S4-point"}.get(order, f"order-{order}")


def _oracle_slice(n):
    points = []
    grid = np.linspace(-0.95, 0.95, n)
    for c1 in grid:
        for c2 in grid:
            kq = (c1 * c1 + 3.0) * (c2 * c2 + 3.0)
            a, b, c = kq, -32.0 * c1 * c2, 3.0 * kq - 32.0
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            for sgn in (1.0, -1.0):
                c3 = (-b + sgn * np.sqrt(disc)) / (2 * a)
                if abs(c3) <= 1.0:
                    points.append((float(c1), float(c2), float(c3)))
    return points


class TestRP2Arrays:
    @pytest.fixture(scope="class")
    def scan(self):
        return rp2_slice(41)

    def test_group_matches_the_tuples(self):
        assert RP2_GROUP.shape == (24, 3, 3)
        c = (0.3, -0.7, 0.11)
        for g, element in zip(RP2_GROUP, _ORACLE_GROUP):
            assert tuple(rp2_apply(g, c)) == _oracle_apply(element, c)
        # g g = 1 exactly for the elements of order 1 and 2
        assert [np.array_equal(g @ g, np.eye(3)) for g in RP2_GROUP] \
            == [_oracle_element_order(e) <= 2 for e in _ORACLE_GROUP]

    def test_order_four_elements_fix_only_the_origin(self):
        # so no point of the variety has a Z4 stabilizer: the origin is off it
        eye = np.eye(3)
        order4 = [g for g in RP2_GROUP if not np.array_equal(g @ g, eye)
                  and np.array_equal(np.linalg.matrix_power(g, 4), eye)]
        assert len(order4) == 6
        assert [np.linalg.matrix_rank(g - eye) for g in order4] == [3] * 6
        assert rp2_variety((0.0, 0.0, 0.0)) == -5.0

    def test_slice_equals_the_double_loop(self, scan):
        oracle = np.array(_oracle_slice(41))
        assert scan.shape == oracle.shape == (2250, 3)
        assert np.array_equal(scan, oracle)
        assert np.array_equal(rp2_slice(2), np.array(_oracle_slice(2)).reshape(-1, 3))

    def test_variety_is_elementwise(self, scan):
        batch = rp2_variety(scan)
        assert batch.shape == (2250,)
        assert batch.tolist() == [_oracle_variety(c) for c in scan]
        assert rp2_variety(tuple(scan[7])) == batch[7]

    def test_labels_equal_the_per_point_oracle(self, scan):
        labels = rp2_symmetry_group(scan)
        oracle = [_oracle_label(c) for c in scan]
        assert labels == oracle
        assert {"trivial", "Z2", "Z2xZ2"} <= set(labels)
        special = np.array([rp2_boundary_point("Z2xZ2"), rp2_boundary_point("D3")])
        assert rp2_symmetry_group(special) == [_oracle_label(c) for c in special] \
            == ["Z2xZ2", "S3"]

    def test_labels_of_the_images(self, scan):
        # an image g c has the conjugate stabilizer, hence the label of c
        images = np.concatenate([scan @ g.T for g in RP2_GROUP])
        labels = rp2_symmetry_group(images)
        assert labels == rp2_symmetry_group(scan) * 24
        nontrivial = [k for k, lab in enumerate(labels) if lab != "trivial"]
        assert len(nontrivial) == 162 * 24
        assert [labels[k] for k in nontrivial] == [_oracle_label(images[k]) for k in nontrivial]

    def test_one_point_gives_a_str_and_rows_a_list(self, scan):
        rows = scan[[0, len(scan) // 2]]
        labels = rp2_symmetry_group(rows)
        assert labels == [_oracle_label(c) for c in rows] == ["Z2", "Z2xZ2"]
        for row, label in zip(rows, labels):
            assert rp2_symmetry_group(tuple(row)) == label
            assert type(rp2_symmetry_group(row)) is str
        assert rp2_symmetry_group(scan[:1]) == labels[:1]

    def test_one_off_variety_row_raises(self, scan):
        rows = scan[:5].copy()
        rows[3, 2] += 1e-3
        with pytest.raises(ValueError):
            rp2_symmetry_group(rows)
        with pytest.raises(ValueError):
            rp2_symmetry_group(np.array([rows[0], (np.nan, 0.0, 0.0)]))

    def test_d3_root_matches_a_bisection(self):
        f = lambda c: (c * c + 3.0) ** 3 - 32.0 * (1.0 - c**3)
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        c = rp2_boundary_point("D3")
        assert c == (c[0], c[0], -c[0])
        assert abs(c[0] - 0.5 * (lo + hi)) < 1e-15
        assert rp2_symmetry_group(c) == "S3"


class TestMobius:
    def test_value_at_one(self):
        s1, _ = mobius_strip_spinor()
        sqrt_i = np.exp(1j * np.pi / 4.0)
        assert s1.evaluate(1.0) == pytest.approx(-2.0 * sqrt_i)

    def test_gauss_ratio(self):
        s1, s2 = mobius_strip_spinor()
        for w in (0.7 - 0.2j, -1.4 + 0.9j, 2.2 + 0.1j):
            g = s2.evaluate(w) / s1.evaluate(w)
            assert g == pytest.approx(-w**2 * (w - 1.0) / (w + 1.0), rel=1e-12)


@pytest.fixture(scope="module", params=[(1.0, 1.0j), (1.0, 2.0j), (1.1, 0.2 + 0.9j)],
                ids=["square", "rect2", "generic"])
def ctx3(request):
    return build_context(*request.param)


@pytest.fixture(scope="module", params=[(1.0, 1.0j), (1.0, 2.0j), (1.3, 0.8j)],
                ids=["square", "rect2", "rect-generic"])
def t4(request):
    return torus4_construct(build_context(*request.param))


class TestTorus3:
    def test_admissible_pair_and_g2_condition(self, ctx3):
        a1 = 0.57 * ctx3.omega1 + 0.41 * ctx3.omega3
        a2 = torus3_admissible_pair(ctx3, a1)
        rep = torus3_degeneracy(ctx3, a1, a2)
        scale = abs(ctx3.g2)
        assert abs(rep.g2_condition) < 1e-8 * scale
        assert rep.q1q2_identity < 1e-10 * scale

    def test_cube_root_epsilon_selected(self, ctx3):
        a1 = 0.57 * ctx3.omega1 + 0.41 * ctx3.omega3
        a2 = torus3_admissible_pair(ctx3, a1)
        rep = torus3_degeneracy(ctx3, a1, a2)
        assert rep.epsilon_label.startswith("cube root")
        assert rep.epsilon == pytest.approx((-1.0 + 1j * np.sqrt(3.0)) / 2.0)
        assert rep.epsilon_residuals[rep.epsilon_label] < 1e-8
        other = [v for k, v in rep.epsilon_residuals.items() if k != rep.epsilon_label][0]
        assert other > 1e-2  # the printed glyph fails decisively

    def test_scan_never_degenerate_with_big_a(self, ctx3):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(12):
            a1 = complex(rng.uniform(0.15, 0.85)) * ctx3.omega1 \
                + complex(rng.uniform(0.15, 0.85)) * ctx3.omega3
            try:
                a2 = torus3_admissible_pair(ctx3, a1)
                rep = torus3_degeneracy(ctx3, a1, a2)
            except (ValueError, RuntimeError):
                continue
            hits += 1
            degenerate = abs(rep.degeneracy) < 1e-8 and rep.abs_a > 1.0
            assert not degenerate
        assert hits >= 6


class TestTorus4:
    def test_omega_vanishes(self, t4):
        assert t4.residuals["omega_zero"] < 1e-12

    def test_periods_closed_vs_quadrature(self, t4):
        assert t4.residuals["period_diag_rel"] < 1e-6
        assert t4.residuals["period_offdiag"] < 1e-8

    def test_period1_holds(self, t4):
        assert t4.residuals["period1"] < 1e-7

    def test_planar_ends(self, t4):
        assert t4.residuals["planar_ends"] is True

    def test_branch_condition_nonzero_square(self):
        t4 = torus4_construct(build_context(1.0, 1.0j))
        assert abs(t4.branch_condition) > 1e-3

    def test_p3_offdiagonal_zero(self, t4):
        assert abs(t4.periods_quadrature["P3^12"]) < 1e-8

    def test_that_squared_at_half_zero(self, t4):
        # that_m^2(w_k/2) = 4 (e_k - e_m) at the zeros of that_k
        ctx = t4.ctx
        i, j, k = t4.choice
        zk = ctx.half_period(k) / 2.0
        for mm in (i, j):
            val = t4.K_basis[mm - 1].evaluate(zk) ** 2
            assert val == pytest.approx(4.0 * (ctx.e(k) - ctx.e(mm)), rel=1e-9)

    def test_invalid_choice(self):
        with pytest.raises(ValueError):
            torus4_construct(build_context(1.0, 1.0j), choice=(1, 1, 3))

    @pytest.mark.parametrize("x2", [0.4569465810444635, -2.645386196270941, -1.095530039890875,
                                    1.3815076406835285 + 0.4571353760332737j])
    def test_root_ignores_rounding_noise(self, x2):
        # on a real lattice x^2 is real up to ~1e-17 of noise, whose sign
        # must not choose between +x and -x
        x = _principal_root(x2)
        for noise in (1e-30j, -1e-30j, 1e-18j * abs(x2), -1e-18j * abs(x2)):
            assert _principal_root(x2 + noise) == x
        assert x * x == pytest.approx(x2, rel=1e-15)

    @pytest.mark.parametrize("omega3", [1j, 2j])
    def test_real_lattice_roots_are_real_or_upper_imaginary(self, omega3):
        t4 = torus4_construct(build_context(1.0, omega3))
        (xi2, xj2), (x_i, x_j) = t4.x_squares, t4.x
        assert xi2.real > 0 > xj2.real
        assert x_i.imag == 0.0 and x_i.real > 0
        assert x_j.real == 0.0 and x_j.imag > 0


class TestKlein:
    def test_normalized_lattice(self, klein):
        ctx = klein.ctx
        assert ctx.e1 == pytest.approx(1.0, abs=1e-12)
        assert abs(ctx.e2) < 1e-12
        assert ctx.e3 == pytest.approx(-1.0, abs=1e-12)

    def test_fourth_quadrant_root(self, klein):
        r = klein.r
        assert r.real > 0 and r.imag < 0
        assert abs(r**4 + KLEIN_M * r**2 + 1.0) < 1e-10

    def test_table3(self, klein):
        assert klein.residuals["table3"] < 1e-8
        assert klein.residuals["deck_pairing"] < 1e-9

    def test_W_matches_closed_form(self, klein):
        assert klein.residuals["W_match"] < 1e-10

    def test_det_w_closed_forms_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r = complex(rng.uniform(1.2, 3.0), rng.uniform(-1.5, -0.1))
            closed = klein_det_w_closed(r)
            factored = klein_det_w_factored(r)
            assert abs(closed - factored) < 1e-8 * abs(closed)
        assert klein_det_w_closed(2.0) == pytest.approx(1299.0**2 / 225.0)
        assert klein_det_w_factored(2.0) == pytest.approx(9.0 * 433.0**2 / 225.0)

    def test_matrix_det_carries_extra_vandermonde_factor(self):
        # determinant of the printed matrix = closed form / (r^4 - 1)^2
        r = 1.7 - 0.3j
        det = np.linalg.det(klein_W(r))
        assert det == pytest.approx(klein_det_w_closed(r) / (r**4 - 1.0) ** 2, rel=1e-10)

    def test_kernel_and_deck(self, klein):
        assert klein.residuals["kernel"] < 1e-10
        assert klein.residuals["deck_conjugate"] < 1e-8

    def test_period_equation(self, klein):
        assert klein.residuals["period_equation"] < 1e-8
        assert klein.residuals["gamma1_s1sq_quadrature"] < 1e-8
        assert klein.residuals["gamma1_s1s2_quadrature"] < 1e-8

    def test_gamma3_automatic(self, klein):
        assert klein.residuals["gamma3_auto"] < 1e-8

    def test_abc_factor_two(self, klein):
        assert klein.residuals["ABC_ratio"] < 1e-10

    def test_planar_ends(self, klein):
        assert planar_ends(klein.s1, klein.s2).tolist() == [True] * 8

    def test_report_serializes(self, klein):
        import json
        payload = klein.report()
        text = json.dumps(payload, sort_keys=True)
        assert "residuals" in payload and len(text) > 100

    def test_s1hat_squared_principal_part_reconstruction(self, klein):
        # shat1^2 = (B + sum_g D_g wp(u - a_g)) du: the closed-form primitive's
        # wp sum, subtracted from the form at random probes, leaves B
        from spinorminimal.spinor import form_primitive
        s1h = klein.sections[0]
        prim = form_primitive([(s1h, s1h)])
        ctx = klein.ctx
        probes = np.array([0.29 * 2 * ctx.omega1 + 0.18 * 2 * ctx.omega3,
                           0.12 * 2 * ctx.omega1 + 0.43 * 2 * ctx.omega3])
        direct = s1h.evaluate(probes) ** 2 * s1h.domain.form_weight(probes)
        consts = direct - (prim.evaluate(probes)[1][0] - prim.poly[0, 0])
        scale = max(abs(c) for c in consts)
        assert abs(consts[0] - consts[1]) < 1e-8 * scale
        # the u-chart constant is exactly the printed period coefficient B
        A, B, C = klein.period_coeffs
        assert consts[0] == pytest.approx(B, rel=1e-8)
        assert prim.poly[0, 0] == pytest.approx(B, rel=1e-8)


class TestMobiusCurvature:
    def test_double_cover_total_curvature(self):
        # deg(g) = 3 for the Mobius limit, so the oriented double cover
        # has total curvature -12 pi (the strip itself: -6 pi)
        from spinorminimal.surface import GridSpec, WeierstrassData, total_curvature_estimate
        s1, s2 = mobius_strip_spinor()
        data = WeierstrassData(s1=s1, s2=s2, end_clearance=0.05)
        est = total_curvature_estimate(data, GridSpec(nx=601, ny=601, extent=40.0))
        assert est == pytest.approx(-12.0 * np.pi, rel=0.02)
