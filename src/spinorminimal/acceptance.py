"""The acceptance gate: every criterion as a runnable check.

Each criterion function takes a seed (unused where it draws nothing) and
returns a list of CheckResult records; `run` executes a named suite (or
everything) and is shared by the pytest acceptance module and the
`spinor-minimal verify` command.  Tolerances are pinned here, next to the
checks that use them, or are a construction's, where a row reads its
checks() by name.  One run() builds each construction once.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import replace
from operator import attrgetter

import numpy as np

from . import arf as arfmod
from .elliptic import build_context, wp_with_prime
from .numkit import QuadraturePath, SkewMatrix, pfaffian
from .reportio import CheckResult, check
from .spinor import (
    INF,
    EndDivisor,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    omega_matrix,
    omega_qres_matrix,
)
from . import moduli
from .moduli import CONSTRUCTIONS
from .surface import (
    GridSpec,
    gauss_degree,
    integrate_position,
    quadrature_edges,
    quadrature_loop_residual,
)

__all__ = ["CheckResult", "run", "SUITES", "ACCEPTANCE_LATTICES"]

ACCEPTANCE_LATTICES = [
    ("square", (1.0, 1.0j)),
    ("rect2", (1.0, 2.0j)),
    ("rect3", (1.5, 0.5j)),
    ("rhombic", (1.0 + 0.4j, 1.0 - 0.4j)),
    ("generic", (1.1 - 0.2j, 0.3 + 0.9j)),
]


# the builds of the run() in progress, {(name, *args): built}
_BUILDS = ContextVar("builds")


def _build(name, *args):
    """CONSTRUCTIONS[name].build(*args), once per run() and shared by its
    criteria; outside a run each call builds afresh."""
    builds, key = _BUILDS.get({}), (name, *args)
    if key not in builds:
        builds[key] = CONSTRUCTIONS[name].build(*args)
    return builds[key]


def _rows(checks, texts: dict) -> list:
    """The checks named in texts, in its order, each under its row text."""
    by_name = {c.name: c for c in checks}
    return [replace(by_name[name], name=text) for name, text in texts.items()]


def _random_skew(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SkewMatrix.antisymmetrize(a)


def criterion_1_pfaffian(seed=0):
    """pf^2 = det on 100 random skew matrices per even size; odd -> 0;
    the published 2/4/6-term expansions match elimination."""
    rng = np.random.default_rng(seed)
    out = []
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(100):
            m = _random_skew(n, rng)
            pf = pfaffian(m)
            det = np.linalg.det(m.entries)
            worst = max(worst, abs(pf * pf - det) / max(abs(det), 1e-300))
    out.append(check("1a pfaffian^2 = det (n=2,4,6,8 x100)", worst, 1e-9))
    odd_worst = max(abs(pfaffian(_random_skew(n, rng))) for n in (1, 3, 5, 7) for _ in range(5))
    out.append(check("1b odd sizes return exactly 0", odd_worst, 0.0))

    def expansion4(a):
        return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]

    def expansion6(m):
        a = lambda i, j: m[i - 1, j - 1]
        return (a(1, 2) * a(3, 4) * a(5, 6) - a(1, 2) * a(3, 5) * a(4, 6)
                + a(1, 2) * a(3, 6) * a(4, 5) - a(1, 3) * a(2, 4) * a(5, 6)
                + a(1, 3) * a(2, 5) * a(4, 6) - a(1, 3) * a(2, 6) * a(4, 5)
                + a(1, 4) * a(2, 3) * a(5, 6) - a(1, 4) * a(2, 5) * a(3, 6)
                + a(1, 4) * a(2, 6) * a(3, 5) - a(1, 5) * a(2, 3) * a(4, 6)
                + a(1, 5) * a(2, 4) * a(3, 6) - a(1, 5) * a(2, 6) * a(3, 4)
                + a(1, 6) * a(2, 3) * a(4, 5) - a(1, 6) * a(2, 4) * a(3, 5)
                + a(1, 6) * a(2, 5) * a(3, 4))

    worst = 0.0
    for _ in range(20):
        m2 = _random_skew(2, rng)
        worst = max(worst, abs(pfaffian(m2) - m2.entries[0, 1]))
        m4 = _random_skew(4, rng)
        worst = max(worst, abs(pfaffian(m4) - expansion4(m4.entries))
                    / max(abs(pfaffian(m4)), 1e-300))
        m6 = _random_skew(6, rng)
        worst = max(worst, abs(pfaffian(m6) - expansion6(m6.entries))
                    / max(abs(pfaffian(m6)), 1e-300))
    out.append(check("1c term-expansion oracles (m=1,2,3 pairs, x20)", worst, 1e-10))
    return out


def criterion_2_elliptic(seed=0):
    """Legendre to 1e-10 and the wp-ODE to 1e-8 on 5 lattices x 100 points."""
    out = []
    rng = np.random.default_rng(seed)
    legendre_worst = 0.0
    ode_worst = 0.0
    esum_worst = 0.0
    for name, (o1, o3) in ACCEPTANCE_LATTICES:
        ctx = build_context(o1, o3)
        legendre_worst = max(legendre_worst,
                             abs(ctx.eta1 * ctx.omega3 - ctx.eta3 * ctx.omega1 - 1j * np.pi / 2))
        esum_worst = max(esum_worst, abs(ctx.e1 + ctx.e2 + ctx.e3)
                         / max(abs(ctx.e1), abs(ctx.e3), 1e-300))
        x = rng.uniform(0.05, 0.45, 100)
        y = rng.uniform(0.05, 0.45, 100)
        u = x * 2 * ctx.omega1 + y * 2 * ctx.omega3
        p, dp = wp_with_prime(ctx, u)
        resid = dp**2 - (4 * p**3 - ctx.g2 * p - ctx.g3)
        scale = np.abs(dp) ** 2 + np.abs(4 * p**3) + abs(ctx.g2) * np.abs(p) + abs(ctx.g3)
        ode_worst = max(ode_worst, float(np.max(np.abs(resid) / scale)))
    out.append(check("2a Legendre |eta1 w3 - eta3 w1 - i pi/2| (5 lattices)",
                     legendre_worst, 1e-10))
    out.append(check("2b wp-ODE residual (5 lattices x 100 pts)", ode_worst, 1e-8))
    out.append(check("2c e1+e2+e3 = 0", esum_worst, 1e-10))
    return out


def criterion_3_oracle(seed=0):
    """The table Omega vs the qres contour oracle on every ordered pair of
    five bases, from one oracle matrix per basis."""
    rng = np.random.default_rng(seed)
    ends6 = tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)) + (INF,)
    ctx = build_context(1.0, 1.0j)
    worst, pairs = 0.0, 0
    # the first is sphere-4's, at a = (sqrt3 + i)/2
    for form in (_build("sphere4").form, *map(omega_matrix, (
            basis_F_sphere(EndDivisor(ends6)),
            basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j))),
            basis_F_torus_twisted(ctx, EndDivisor((0.0, 0.4 + 0.33j, 1.1 + 0.7j, 1.5 + 1.4j))),
            basis_F_torus_untwisted_paired(ctx, 1, [0.31 + 0.4j, 0.9 + 0.77j])))):
        omega, oracle = form.matrix.entries, omega_qres_matrix(form.basis)
        scale = np.maximum(np.maximum(np.abs(omega), np.abs(oracle)), 1.0)
        worst = max(worst, float(np.max(np.abs(omega - oracle) / scale)))
        pairs += len(form.basis) * (len(form.basis) - 1)
    return [check(f"3 omega_pair vs qres oracle ({pairs} pairs)", worst, 1e-6)]


def criterion_4_sphere4(seed=0):
    return _rows(_build("sphere4").checks(), {
        "pfaffian": "4a |pfaffian| at a = (sqrt3+i)/2",
        "dim_K": "4b dim K = 2",
        "printed_K_span": "4c printed t1, t2 span match",
        "planar_ends": "4d planar-end test at all four ends"})


def criterion_5_sphere6(seed=0):
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(10):
        sigma = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        _, normalized = moduli.sphere6_numeric_pfaffian(sigma)
        ratios.append(normalized / moduli.sphere6_pfaffian(sigma))
    ratios = np.array(ratios)
    spread = float(np.std(ratios) / abs(np.mean(ratios)))
    out = [check("5a Vandermonde-normalized pf / closed form constant (10 sigma)",
                 spread, 1e-6,
                 detail=f"ratio {np.mean(ratios):.6f}")]
    s2 = 2.0 * np.sqrt(5.0) / 3.0
    return out + _rows(_build("sphere6", (0.0, s2, 0.0)).checks(),
                       {"printed_K": "5b printed K basis in ker Omega (on-variety)"})


def criterion_6_rp2(seed=0):
    out = [check("6a variety value at (sqrt5/3, 0, 0)",
                 abs(moduli.rp2_variety((np.sqrt(5.0) / 3.0, 0.0, 0.0))), 1e-12)]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        c = tuple(rng.uniform(-1, 1, 3))
        v = moduli.rp2_variety(c)
        for g in moduli.RP2_GROUP:
            worst = max(worst, abs(moduli.rp2_variety(g @ c) - v))
    out.append(check("6b group invariance (24 elements x 20 points)", worst, 1e-12))
    lab1 = moduli.rp2_symmetry_group(moduli.rp2_boundary_point("Z2xZ2"))
    lab2 = moduli.rp2_symmetry_group(moduli.rp2_boundary_point("D3"))
    out.append(check("6c stabilizer labels Z2xZ2 and S3",
                     0.0 if (lab1, lab2) == ("Z2xZ2", "S3") else 1.0, 0.0,
                     detail=f"{lab1}, {lab2}"))
    return out


def criterion_7_arf(seed=0):
    out = []
    from itertools import combinations
    mismatch = 0
    for g in (1, 2, 3):
        branch = tuple(range(2 * g + 1))
        for b in range(g + 1):
            for B in combinations(branch, b):
                spin = arfmod.HyperellipticSpin(branch, frozenset(B))
                if arfmod.arf_bruteforce(spin) != arfmod.arf_closed_form(g, b):
                    mismatch += 1
    out.append(check("7a brute-force Arf = closed form (g <= 3, all B)", mismatch, 0.0))
    expected = [("du", (0, 1, 1, 1), -1), ("(wp(u)-e1)du", (0, 1, 0, 0), 1),
                ("(wp(u)-e2)du", (0, 0, 1, 0), 1), ("(wp(u)-e3)du", (0, 0, 0, 1), 1)]
    rows = [(r["eta"], r["q"], r["arf"]) for r in arfmod.torus_spin_table()]
    out.append(check("7b torus table reproduced exactly",
                     0.0 if rows == expected else 1.0, 0.0))
    bad = 0
    for g in (1, 2):
        branch = tuple(range(2 * g + 1))
        evens = [frozenset(c) for k in range(0, 2 * g + 2, 2)
                 for c in combinations(branch, k)]
        for b in range(g + 1):
            for B in combinations(branch, b):
                spin = arfmod.HyperellipticSpin(branch, frozenset(B))
                for c1 in evens:
                    for c2 in evens:
                        lhs = arfmod.q_value(spin, c1 ^ c2)
                        rhs = (arfmod.q_value(spin, c1) + arfmod.q_value(spin, c2)
                               + len(c1 & c2)) % 2
                        if lhs != rhs:
                            bad += 1
    out.append(check("7c quadratic law exhaustive (g <= 2)", bad, 0.0))
    count_bad = 0
    for g in (1, 2, 3):
        plus, minus = arfmod.spin_structure_counts(g)
        if (plus, minus) != (2 ** (2 * g - 1) + 2 ** (g - 1), 2 ** (2 * g - 1) - 2 ** (g - 1)):
            count_bad += 1
    out.append(check("7d spin-structure counts 2^(2g-1) +- 2^(g-1)", count_bad, 0.0))
    return out


def criterion_8_torus4(seed=0):
    # square, rect2 and a generic rectangle: each period check's worst of
    # the three, and the square's branch condition
    square, *rest = [{c.name: c for c in _build("torus4", o1, o3).checks()}
                     for o1, o3 in ((1.0, 1.0j), (1.0, 2.0j), (1.3, 0.8j))]
    worst = [max((t4[k] for t4 in (square, *rest)), key=attrgetter("value"))
             for k in ("period_diag_rel", "period_offdiag", "period1")]
    return _rows(worst + [square["branch"]], {
        "period_diag_rel": "8a closed-form periods vs quadrature (3 lattices)",
        "period_offdiag": "8b off-diagonal periods",
        "period1": "8c solved (x_i, x_j) satisfies the period conditions",
        "branch": "8d branch-condition residual on the square torus"})


def criterion_9_klein(seed=0):
    out = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        r = complex(rng.uniform(1.2, 3.0), rng.uniform(-1.5, -0.1))
        closed = moduli.klein_det_w_closed(r)
        factored = moduli.klein_det_w_factored(r)
        worst = max(worst, abs(closed - factored) / abs(closed))
    out.append(check("9a det W factorization identity (10 random r)", worst, 1e-8))
    out.append(check("9b det W closed form at r = 2 equals 1299^2/225",
                     abs(moduli.klein_det_w_closed(2.0) - 1299.0**2 / 225.0), 1e-8))
    kb = _build("klein4")
    out += _rows(kb.checks(), {
        "rank": "9c rank Omega = 4 at the fourth-quadrant root",
        "period_equation": "9d period equation residual (closed form)",
        "gamma1_s1sq_quadrature": "9e quadrature cross-check of int s1^2 on gamma1",
        "gamma3_auto": "9f gamma3 period conditions automatic"})
    # g + n - 1 = 1 + 8 - 1 on the torus with the eight ends: a branch
    # point anywhere lowers the degree by its order, at least 1
    out.append(check("9g Gauss-map degree of the Klein pair = g + n - 1 = 8",
                     abs(gauss_degree(CONSTRUCTIONS["klein4"].weierstrass(kb)) - 8), 1e-6))
    return out


def criterion_10_geometry(seed=0):
    out = []
    enneper = CONSTRUCTIONS["enneper"]
    mesh = enneper.mesh(_build("enneper"), GridSpec(nx=65, ny=65, extent=2.0))
    d = mesh.vertices[mesh.vertex_at(1.0)] - mesh.vertices[mesh.vertex_at(0.0)]
    out.append(check("10a Enneper X(1) - X(0) = (2/3, 0, 1)",
                     float(np.max(np.abs(d - np.array([2 / 3, 0.0, 1.0])))), 1e-8))
    sphere4 = CONSTRUCTIONS["sphere4"]
    fam = _build("sphere4")
    data = sphere4.weierstrass(fam)
    grid61 = GridSpec(nx=61, ny=61, extent=2.0)
    mesh4, edges61 = sphere4.mesh(fam, grid61), quadrature_edges(data, grid61)
    out.append(check("10b sphere-4 mesh loop periods",
                     quadrature_loop_residual(edges61) / mesh4.metadata["mesh_scale"], 1e-7))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    keep = data.end_distance(z) > 0.05
    w = data.omega(z[keep])
    null = float(np.max(np.abs(np.sum(w * w, axis=0)) / np.max(np.abs(w)) ** 2))
    out.append(check("10c null-curve identity omega . omega", null, 1e-10))
    a = fam.ends.points[0]
    base = sphere4.basepoint(data.domain, grid61)

    def plane_residual(radius):
        thetas = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        pts = np.array([integrate_position(
            data, [QuadraturePath.segment(base, a + radius * np.exp(1j * th))])
            for th in thetas])
        centered = pts - pts.mean(axis=0)
        return np.linalg.svd(centered, compute_uv=False)[-1] / np.sqrt(len(pts))

    residuals = [plane_residual(r) for r in (0.2, 0.1, 0.05)]
    monotone = residuals[0] > residuals[1] > residuals[2]
    out.append(check("10d planar-end best-fit plane residual decreasing",
                     0.0 if monotone else 1.0, 0.0,
                     detail="residuals " + ", ".join(f"{r:.4f}" for r in residuals)))
    # every closed-form edge increment X(b) - X(a) against its Gauss-Legendre integral
    torus4 = CONSTRUCTIONS["torus4"]
    t4 = _build("torus4", 1.0, 1.0j)
    data4, grid33 = torus4.weierstrass(t4), GridSpec(nx=33, ny=33)
    worst = 0.0
    for (valid, _, h, v), mesh in ((edges61, mesh4),
                                   (quadrature_edges(data4, grid33), torus4.mesh(t4, grid33))):
        X = np.full(valid.shape + (3,), np.nan)
        X[valid] = mesh.vertices
        gap = max(np.nanmax(np.abs(X[1:] - X[:-1] - h)), np.nanmax(np.abs(X[:, 1:] - X[:, :-1] - v)))
        worst = max(worst, gap / mesh.metadata["mesh_scale"])
    out.append(check("10e closed-form mesh edges vs Gauss-Legendre (sphere-4 grid 61, "
                     "torus-4 grid 33)", worst, 1e-9))
    return out


def criterion_11_nonexistence(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    violations = 0
    parity_violations = 0
    for n in (2, 3, 5, 7):
        for _ in range(100):
            if n == 2:
                ends = (complex(rng.standard_normal(), rng.standard_normal()), INF)
            else:
                finite = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
                ends = tuple(finite) + (INF,)
            try:
                form = omega_matrix(basis_F_sphere(EndDivisor(ends)))
            except ValueError:
                continue  # coincident random ends: resample not needed at this density
            K = extract_K(form)
            if len(K) >= 2:
                violations += 1
            if (n - len(K)) % 2 != 0:
                parity_violations += 1
    out.append(check("11a dim K < 2 for n in {2,3,5,7} (100 trials each)",
                     violations, 0.0))
    out.append(check("11b parity n - dim K even never fails", parity_violations, 0.0))
    # a three-ended torus needs degeneracy 0 where |a| > 1; it depends on the lattice alone
    margins = {}
    for name, (o1, o3) in ACCEPTANCE_LATTICES:
        ctx = build_context(o1, o3)
        a1 = 0.57 * ctx.omega1 + 0.41 * ctx.omega3
        rep = moduli.torus3_degeneracy(ctx, a1, moduli.torus3_admissible_pair(ctx, a1))
        if rep.abs_a > 1.0:
            margins[name] = abs(rep.degeneracy)
    out.append(check("11c three-ended torus: least |degeneracy| where |a| > 1 (5 lattices)",
                     min(margins.values(), default=0.0), 1e-8, invert=True,
                     detail="|a| > 1 on " + (", ".join(margins) or "no lattice")))
    return out


SUITES = {
    "pfaffian": [criterion_1_pfaffian],
    "elliptic": [criterion_2_elliptic],
    "omega": [criterion_3_oracle],
    "sphere4": [criterion_4_sphere4],
    "sphere6": [criterion_5_sphere6],
    "rp2": [criterion_6_rp2],
    "arf": [criterion_7_arf],
    "torus4": [criterion_8_torus4],
    "klein4": [criterion_9_klein],
    "geometry": [criterion_10_geometry],
    "nonexistence": [criterion_11_nonexistence],
}
SUITES["acceptance"] = [f for fs in SUITES.values() for f in fs]


def run(suite: str = "acceptance", seed: int = 0):
    """Run a named suite; returns a list of CheckResult."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results, token = [], _BUILDS.set({})
    try:
        for fn in SUITES[suite]:
            try:
                results.extend(fn(seed))
            except Exception as exc:  # a crashed criterion is a failed criterion
                results.append(CheckResult(name=f"{fn.__name__} crashed", passed=False,
                                           value=float("inf"), tol=0.0,
                                           detail=f"{type(exc).__name__}: {exc} (seed {seed})"))
    finally:
        _BUILDS.reset(token)
    return results
