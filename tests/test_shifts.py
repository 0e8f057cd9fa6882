"""zeta(u - a) and wp(u - a) read from the one theta frame on u, against
30-digit mpmath values: the half-period ends of torus-4, the Klein
bottle's eight ends +-a_i, and the zeta rows of a Klein pair."""

import mpmath
import numpy as np
import pytest

from spinorminimal.elliptic import build_context
from spinorminimal.moduli import klein4_construct
from spinorminimal.spinor import EndDivisor, basis_F_torus_twisted

from mp_weierstrass import MpWeierstrass

# the bound on a shifted value's error, relative to the largest |zeta(u - a)|
# or |wp(u - a)| of the draw, at points 0.05 |b1| or more from every end
# and lattice point.  The values read 8.1e-15 at most (the Klein ends' wp,
# whose addition theorem cancels next to the lattice point), and a frame of
# their own on u - a 2.7e-15
SHIFT_MP_TOL = 3e-14

# perfbench's four MESH_LATTICES and the thinnest torus4 takes
LATTICES = {"square": (1.0, 1.0j), "rect2": (1.0, 2.0j), "rhombic": (1 + 0.4j, 1 - 0.4j),
            "generic": (1.1 - 0.2j, 0.3 + 0.9j), "thin": (1.0, 7.0j)}


@pytest.fixture(scope="module")
def klein():
    return klein4_construct()


def _away(ctx, avoid, n, seed):
    """n points of the cell at least 0.05 |b1| from each point of avoid and
    from the lattice."""
    b1, b2 = ctx.lattice.reduced_periods
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, 8 * n) * b1 + rng.uniform(-0.5, 0.5, 8 * n) * b2
    far = np.min([ctx.lattice_distance(u - a) for a in list(avoid) + [0.0]], axis=0)
    return u[far > 0.05 * abs(b1)][:n]


def _errors(dom, u):
    """For each end a != 0 of dom, the largest error of zeta(u - a) and of
    wp(u - a) from the frame on u, each relative to the largest mpmath
    value of the draw."""
    mp = MpWeierstrass(*dom.ctx.lattice.reduced_periods)
    at = dom.points(u)
    out = []
    for a in (p for p in dom.ends.points if p != 0):
        zeta, wp = next(at.shifts([a]))
        got = zeta + at.zeta, wp
        want = [np.array([f(v, a) for v in u]) for f in (mp.zeta, mp.wp)]
        out.append([np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want)])
    return np.array(out)


@pytest.mark.parametrize("lattice", LATTICES.values(), ids=LATTICES.keys())
def test_half_period_shifts(lattice):
    # torus-4's ends 0 and omega_1, omega_2, omega_3: each half period is its
    # own negative, so all three read their shifts from theta quotients
    ctx = build_context(*lattice)
    ends = (0.0, ctx.omega1, ctx.omega2, ctx.omega3)
    dom = basis_F_torus_twisted(ctx, EndDivisor(ends))[0].domain
    assert sorted(h for h, *_ in dom.shift_rules.values()) == [1, 2, 3]
    assert np.all(_errors(dom, _away(ctx, ends, 24, seed=3)) <= SHIFT_MP_TOL)


def test_klein_shifts(klein):
    # the eight ends +-a_i, by the addition theorem from wp(u) - wp(a)
    dom = klein.s1.domain
    assert len(dom.shift_rules) == 8 and not any(h for h, *_ in dom.shift_rules.values())
    assert np.all(_errors(dom, _away(klein.ctx, dom.ends.points, 24, seed=5)) <= SHIFT_MP_TOL)


def test_klein_pair_on_zeta_rows(klein):
    # the Klein pair, whose coefficients are on the untwisted zeta rows of its
    # eight ends: sum_j C_j (zeta(u - a_j) - zeta(u) + c_j), within
    # SHIFT_MP_TOL of the mpmath rows' sum, relative to the sum of its terms'
    # sizes
    dom, rows = klein.s1.domain, klein.s1.basis
    assert rows.shifts == list(dom.ends.points)
    C = np.array([s.coefficients for s in (klein.s1, klein.s2)])
    u = _away(klein.ctx, dom.ends.points, 16, seed=7)
    mp = MpWeierstrass(*klein.ctx.lattice.reduced_periods)
    zeta_u = np.array([mp.zeta(v) for v in u])
    terms = np.array([np.array([mp.zeta(v, a) for v in u]) - zeta_u + c
                      for a, c in zip(rows.shifts, rows.constants)])
    got = rows.evaluate(C, u)
    want, size = C @ terms, np.abs(C) @ (np.abs(terms) + np.abs(zeta_u))
    assert np.all(np.abs(got - want) <= SHIFT_MP_TOL * size.max(axis=1, keepdims=True))


@pytest.mark.parametrize("lattice", LATTICES.values(), ids=LATTICES.keys())
def test_e_differences(lattice):
    # e_i - e_j from theta constants, against mpmath's wp at the half periods
    ctx = build_context(*lattice)
    mp = MpWeierstrass(*ctx.lattice.reduced_periods)
    for i, j in ((1, 2), (1, 3), (2, 3), (3, 1)):
        with mpmath.workdps(30):
            want = complex(mp.wp_mpc(ctx.half_period(i)) - mp.wp_mpc(ctx.half_period(j)))
        assert abs(ctx.e_difference(i, j) - want) <= 1e-14 * abs(want)
