"""Explicit constructions: 4/6-ended spheres, RP^2 variety, 4-ended tori,
the 4-ended Klein bottle, and the 3-ended-torus degeneracy evaluators.

sphere4_solve, sphere6_K_basis, torus3_degeneracy, torus4_construct and
klein4_construct each return a dataclass bundling the inputs, the results
(Omega, kernel sections, periods, as each construction has them) and the
residuals of every identity checked; all but the 3-ended torus give
their report payload, as built, with `.report()` (reportio.report_text
writes it in one walk) and judge it with `.checks()`, which the CLI and
the acceptance gate both read.  Both spheres are SphereFamily:
their printed K pairs are built by printed_K_pair, as coefficient vectors
on basis_F_sphere, the basis of the Omega they test.
CONSTRUCTIONS is the one table of named constructions: the CLI, the
tests and the acceptance gate build and mesh through it.  Each entry names
one chart point of its domain, and its meshes start from the grid vertex
ChartMap.nearest snaps that point to (Construction.basepoint).

Conventions pinned here (each cross-checked numerically at build time):

* sphere-4 picks the first-quadrant root of the pfaffian quartic;
* the 6-end pfaffian satisfies  pf(Omega) * V = -(tau1 tau3 + s1 s3 - 20)
  where V is the Vandermonde product over the five finite ends in basis
  order; the raw pf alone carries that configuration-dependent factor;
* the 3-ended-torus basis rotation is the cube root EPSILON, not the
  printed (-1+sqrt3)/2, which misses the identity int t1 t2 = -6 eta_k
  along the periods; torus3_degeneracy reports EPSILON's residual;
* the Klein bottle's lattice is the square one with e1 = 1, from the
  lemniscatic closed form, and its end a is the root of wp(a) = r that
  elliptic.wp_inverse finds, taken with the sign that puts it on the
  anti-invariant locus;
* the Klein bottle solves its period equation with the closed-form
  A, B, C coefficients, which match the full 8-end principal-part sums
  up to one overall factor (irrelevant: the equation is homogeneous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import attrgetter
from typing import Callable

import numpy as np

from .elliptic import EllipticContext, build_context, wp, wp_inverse, wp_prime, wp_with_prime
from .numkit import QuadraturePath, pfaffian, poly_roots, scale_parts
from .reportio import check
from .spinor import (
    INF,
    EndDivisor,
    OmegaForm,
    SpinorSection,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    form_primitive,
    omega_matrix,
    period_matrix,
    planar_ends,
    section_combination,
    section_values,
)
from .surface import GridSpec, WeierstrassData, _chart_map, enneper_data, integrate_surface

__all__ = [
    "ConstructionError",
    "SphereFamily",
    "OffVarietyError",
    "TorusFourEnd",
    "KleinFourEnd",
    "Torus3Report",
    "sphere4_solve",
    "sphere6_pfaffian",
    "sphere6_ends",
    "sphere6_numeric_pfaffian",
    "vandermonde_pfaffian",
    "sphere6_K_basis",
    "printed_K_pair",
    "rp2_variety",
    "rp2_on_variety",
    "rp2_slice",
    "rp2_symmetry_group",
    "rp2_boundary_point",
    "RP2_GROUP",
    "EPSILON",
    "torus3_admissible_pair",
    "torus3_degeneracy",
    "torus4_construct",
    "TORUS4_MAX_IM_TAU",
    "klein4_construct",
    "klein_W",
    "klein_det_w_closed",
    "klein_det_w_factored",
    "KLEIN_M",
    "square_context_e1_normalized",
    "Construction",
    "CONSTRUCTIONS",
]


class ConstructionError(ValueError):
    """A construction refuses its input: a kernel or rank check fails, or
    the lattice is out of range."""


def _torus_cycle(domain, k: int) -> QuadraturePath:
    """Closed cycle along 2 omega_k as a period path, midway across the
    widest strip along it that holds none of domain.singular_points(),
    measured in fractions of the other period 2 omega_o: the trapezoid's
    error falls geometrically with the distance to the nearest singularity
    (Trefethen and Weideman, SIAM Review 56, 2014).  The fractions are
    rounded to 12 digits, so points on one line share one; on the
    half-lattice ends of torus4 the cycle runs at omega_o / 2."""
    ctx = domain.ctx
    wk, wo = (ctx.omega1, ctx.omega3) if k == 1 else (ctx.omega3, ctx.omega1)
    y = np.sort(np.round(np.imag(np.array(domain.singular_points()) / wk)
                         / (2 * (wo / wk).imag), 12) % 1.0)
    gaps = np.diff(y, append=y[0] + 1.0)
    c = 2 * (y[np.argmax(gaps)] + gaps.max() / 2) * wo
    return QuadraturePath.period(-wk + c, wk + c, samples=64)


# ---------------------------------------------------------------------------
# spheres with four and six ends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereFamily:
    n: int
    parameter: tuple  # (a,) for sphere4_solve, n = 4; sigma for sphere6_K_basis, n = 6
    ends: EndDivisor
    form: OmegaForm
    K_basis: tuple
    residuals: dict

    def report(self):
        return {
            "n": self.n,
            "parameter": self.parameter,
            "ends": self.ends.points,
            "omega": self.form.matrix.entries,
            "K_coefficients": [k.coefficients for k in self.K_basis],
            "residuals": self.residuals,
        }

    def checks(self) -> list:
        """reportio.CheckResult of each verdict on the residuals."""
        r = self.residuals
        if self.n == 6:
            return [check("printed_K", np.max(list(r.values())), SPHERE6_K_TOL)]
        return [check("pfaffian", r["pfaffian"], SPHERE4_PFAFFIAN_TOL),
                check("dim_K", abs(len(self.K_basis) - 2), 0.0),
                check("printed_K_span", r["printed_K_span"], SPHERE4_SPAN_TOL),
                check("planar_ends", 0.0 if r["planar_ends"] else 1.0, 0.0)]


SPHERE4_PFAFFIAN_TOL = 1e-10  # |pf| on the 4-end pfaffian variety
SPHERE4_SPAN_TOL = 1e-8  # the printed pair's relative distance from the span of K
SPHERE6_K_TOL = 1e-8  # each printed-pair residual of sphere6_K_basis
SPHERE6_RATIO_TOL = 1e-6  # |pf V / closed form + 1| on a scan of random sigma


def sphere4_quartic() -> tuple:
    """(a^2 - sqrt3 a + 1)(a^2 + sqrt3 a + 1) = a^4 - a^2 + 1, ascending."""
    return (1.0, 0.0, -1.0, 0.0, 1.0)


def printed_K_pair(basis, q, n1, n2):
    """The printed K pair t1 = N1/(z Q) and t2 = z N2/Q = z^2 N2/(z Q) on a
    sphere basis whose ends are the roots of Q, 0 and infinity; Q, N1 and N2
    ascending."""
    zq, rows = (0.0, *q), basis[0].basis
    return rows.fraction(n1, zq, "t1"), rows.fraction((0.0, 0.0, *n2), zq, "t2")


def sphere4_solve() -> SphereFamily:
    """Solve the 4-end pfaffian variety and extract the K plane.

    Picks the first-quadrant quartic root a = (sqrt3 + i)/2, checks that
    all four roots kill the pfaffian, and verifies the planar-end test at
    every end for the extracted K pair.
    """
    roots = poly_roots(sphere4_quartic())
    a = next(r for r in roots if r.real > 0 and r.imag > 0)
    divisor = EndDivisor((a, 1.0 / a, 0.0, INF))
    basis = basis_F_sphere(divisor)
    form = omega_matrix(basis)
    pf = pfaffian(form.matrix)
    K = extract_K(form)
    if len(K) != 2:
        raise ConstructionError(f"sphere4 kernel has dimension {len(K)}, expected 2")
    residuals = {"pfaffian": abs(pf)}
    residuals["pfaffian_all_roots"] = max([abs(pf)] + [
        abs(pfaffian(omega_matrix(basis_F_sphere(EndDivisor((r, 1.0 / r, 0.0, INF)))).matrix))
        for r in roots if r != a])
    # the published pair at a: q = z^2 - sqrt3 z + 1, N1 = sqrt3 z - 1, N2 = z - sqrt3
    s3 = np.sqrt(3.0)
    t1, t2 = printed_K_pair(basis, (1.0, -s3, 1.0), (-1.0, s3), (-s3, 1.0))
    Kmat = np.array([k.coefficients for k in K]).T
    worst = 0.0
    for v in np.array([t1.coefficients, t2.coefficients]):
        sol, *_ = np.linalg.lstsq(Kmat, v, rcond=None)
        worst = max(worst, float(np.linalg.norm(Kmat @ sol - v) / np.linalg.norm(v)))
    residuals["printed_K_span"] = worst
    residuals["planar_ends"] = bool(planar_ends(K[0], K[1]).all())
    am1, a0 = t1.expansions[2]  # the end 0
    residuals["t1_sq_residue_at_0"] = abs(2 * am1 * a0)
    return SphereFamily(n=4, parameter=(a,), ends=form.divisor, form=form,
                        K_basis=tuple(K), residuals=residuals)


def sphere6_pfaffian(sigma) -> complex:
    """tau1 tau3 + sigma1 sigma3 - 20 with tau_i = sigma_i^2 + 3 sigma2."""
    s1, s2, s3 = (complex(s) for s in sigma)
    tau1 = s1 * s1 + 3.0 * s2
    tau3 = s3 * s3 + 3.0 * s2
    return tau1 * tau3 + s1 * s3 - 20.0


def _sphere6_printed(sigma):
    """(Q, B, C) of the printed pair t1 = B/(z Q), t2 = z C/Q at sigma,
    ascending, with the quartic Q = z^4 - s1 z^3 - s2 z^2 - s3 z + 1."""
    s1, s2, s3 = (complex(s) for s in sigma)
    tau1, tau3 = s1 * s1 + 3.0 * s2, s3 * s3 + 3.0 * s2
    return ((1.0, -s3, -s2, -s1, 1.0),
            (s2, -s2 * s3, s2 * tau3 - 2.0 * s1 * s3 - 10.0, s1 * tau3 + 5.0 * s3),
            (s3 * tau1 + 5.0 * s1, s2 * tau1 - 2.0 * s1 * s3 - 10.0, -s1 * s2, s2))


def sphere6_ends(sigma):
    """Ends {a1..a4, 0, inf}: the roots of the quartic Q, 0 and inf."""
    q, _, _ = _sphere6_printed(sigma)
    return EndDivisor(tuple(poly_roots(q)) + (0.0, INF))


def vandermonde_pfaffian(form):
    """(pf(Omega), pf(Omega) V), V the Vandermonde product over the finite
    ends in basis order: pf carries the configuration-dependent factor 1/V,
    and on sphere6_ends pf V equals -(tau1 tau3 + sigma1 sigma3 - 20)."""
    pf = pfaffian(form.matrix)
    finite = [p for p in form.divisor.points if not np.isinf(p.real)]
    return pf, pf * math.prod(b - a for a, b in combinations(finite, 2))


def sphere6_numeric_pfaffian(sigma):
    """vandermonde_pfaffian of the 6x6 Omega on sphere6_ends(sigma)."""
    return vandermonde_pfaffian(omega_matrix(basis_F_sphere(sphere6_ends(sigma))))


class OffVarietyError(ConstructionError):
    """sphere6_K_basis's refusal of a sigma off the pfaffian variety; `family`
    is the family it built, whose printed pair is in F but not in K."""

    def __init__(self, family):
        super().__init__(f"the printed K basis fails its kernel/K test: {family.residuals}")
        self.family = family


def sphere6_K_basis(sigma) -> SphereFamily:
    """The six-end family at sigma, its K basis the printed pair t1 = B/(z Q),
    t2 = z C/Q, which decides membership of the pfaffian variety: off it (a
    failed check) OffVarietyError names the residuals."""
    basis = basis_F_sphere(sphere6_ends(sigma))
    form = omega_matrix(basis)
    residuals, K = {}, printed_K_pair(basis, *_sphere6_printed(sigma))
    for t in K:
        v = np.array(t.coefficients)
        residuals[f"{t.label}_kernel"] = float(
            np.linalg.norm(form.matrix.entries @ v) / max(np.linalg.norm(v), 1e-300))
        am1, a0 = np.hypot(t.expansions.real, t.expansions.imag).T
        residuals[f"{t.label}_alpha0"] = float(a0.max() / max(am1.max(), 1e-300))
    family = SphereFamily(n=6, parameter=tuple(sigma), ends=form.divisor, form=form,
                          K_basis=K, residuals=residuals)
    if not all(c.passed for c in family.checks()):
        raise OffVarietyError(family)
    return family


# ---------------------------------------------------------------------------
# projective planes with three ends
# ---------------------------------------------------------------------------

def rp2_variety(c):
    """(c1^2+3)(c2^2+3)(c3^2+3) - 32 (c1 c2 c3 + 1) on direction cosines,
    elementwise over the last axis."""
    c1, c2, c3 = np.moveaxis(np.asarray(c, dtype=float), -1, 0)
    # a large c overflows to inf, or to NaN (inf - inf); cmd_rp2 rejects either
    with np.errstate(over="ignore", invalid="ignore"):
        return (c1 * c1 + 3.0) * (c2 * c2 + 3.0) * (c3 * c3 + 3.0) - 32.0 * (c1 * c2 * c3 + 1.0)


# the order-24 action as signed permutation matrices M[i, perm[i]] = s_i:
# coordinate permutations times the double sign flips
RP2_GROUP = np.array([np.eye(3)[list(perm)] * np.array(s, dtype=float)[:, None]
                      for perm in permutations(range(3))
                      for s in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))])
_RP2_TOL = 1e-8
# row i of each element: the column of its entry and whether that is -1
_RP2_COLUMN = np.argmax(np.abs(RP2_GROUP), axis=2)
_RP2_NEGATIVE = (RP2_GROUP.sum(axis=2) < 0).astype(np.intp)
# label by stabilizer order; an order-4 stabilizer is Z2xZ2, because each
# order-4 element fixes only the origin, which is off the variety
_RP2_LABELS = np.array([{1: "trivial", 2: "Z2", 4: "Z2xZ2", 6: "S3"}.get(k, f"order-{k}")
                        for k in range(25)])


def rp2_on_variety(c):
    """|rp2_variety(c)| at most 1e-6 of its constant 32, elementwise; NaN is off."""
    return np.abs(rp2_variety(c)) <= 1e-6 * 32.0


def rp2_symmetry_group(c):
    """Label of the stabilizer of c under the 24-element action: a str for
    one point, a list for an (n, 3) array of points.

    Labels: trivial | Z2 | Z2xZ2 | S3, by the stabilizer's order.
    """
    c = np.asarray(c, dtype=float)
    pts = np.atleast_2d(c)
    if not np.all(rp2_on_variety(pts)):
        raise ValueError("point is off the admissibility variety")
    # entry i of g c - c is s c_j - c_i, with g's sign s and column j in
    # row i: test the 18 such differences once, then read g's three
    x = pts.T
    close = np.stack([np.abs(x - x[:, None]) < _RP2_TOL, np.abs(-x - x[:, None]) < _RP2_TOL])
    fixed = close[_RP2_NEGATIVE, np.arange(3), _RP2_COLUMN].all(axis=1)
    order = np.count_nonzero(fixed, axis=0)
    labels = _RP2_LABELS[order].tolist()
    return labels[0] if c.ndim == 1 else labels


def rp2_slice(n: int) -> np.ndarray:
    """Real points (c1, c2, c3) on the variety with |c_i| <= 1, as an (m, 3)
    array: the quadratic in c3 solved on an n x n grid of (c1, c2) in
    [-0.95, 0.95]^2, rows ordered by c1, then c2, then the root (+ first)."""
    grid = np.linspace(-0.95, 0.95, n)
    c1, c2 = np.meshgrid(grid, grid, indexing="ij")
    kq = (c1 * c1 + 3.0) * (c2 * c2 + 3.0)
    a, b, c = kq, -32.0 * c1 * c2, 3.0 * kq - 32.0
    disc = b * b - 4 * a * c
    root = np.sqrt(np.maximum(disc, 0.0))[..., None] * np.array([1.0, -1.0])
    c3 = (-b[..., None] + root) / (2 * a[..., None])
    keep = (disc >= 0)[..., None] & (np.abs(c3) <= 1.0)
    points = np.stack(np.broadcast_arrays(c1[..., None], c2[..., None], c3), axis=-1)
    return points[keep]


def rp2_boundary_point(kind: str = "D3") -> tuple:
    """Special points on the variety: 'Z2xZ2' -> (sqrt5/3, 0, 0);
    'D3' -> (c, c, -c) with the root of (c^2+3)^3 = 32 (1 - c^3) in (0, 1),
    that is of c^6 + 9 c^4 + 32 c^3 + 27 c^2 - 5."""
    if kind == "Z2xZ2":
        return (np.sqrt(5.0) / 3.0, 0.0, 0.0)
    if kind == "D3":
        roots = poly_roots((-5.0, 0.0, 27.0, 32.0, 9.0, 0.0, 1.0))
        c = next(r.real for r in roots if 0.0 < r.real < 1.0)
        return (c, c, -c)
    raise ValueError(f"unknown special point {kind!r}")


# ---------------------------------------------------------------------------
# tori with three ends: degeneracy evaluators
# ---------------------------------------------------------------------------

# the basis rotation of the three-ended torus; the paper prints (-1+sqrt3)/2,
# which misses int t1 t2 = -6 eta_k by more than 0.1 on the acceptance lattices
EPSILON = (-1.0 + 1j * np.sqrt(3.0)) / 2.0


@dataclass(frozen=True)
class Torus3Report:
    ctx: EllipticContext
    a1: complex
    a2: complex
    g2_condition: complex
    degeneracy: complex
    abs_a: float
    q1q2_identity: float
    epsilon_residual: float


def torus3_admissible_pair(ctx: EllipticContext, a1) -> complex:
    """Given a1, return a2 != -a1 with wp'(a1) + wp'(a2) = 0.

    wp(a2) is a root of 4 p^3 - g2 p - g3 = wp'(a1)^2 other than wp(a1);
    the sign of a2 is fixed by the wp' condition.
    """
    p1, p1p = wp_with_prime(ctx, complex(a1))
    cubic = (-ctx.g3 - p1p * p1p, -ctx.g2, 0.0, 4.0)
    candidates = [p for p in poly_roots(cubic) if abs(p - p1) > 1e-6 * ctx.wp_floor(2)]
    root = wp_inverse(ctx, candidates[0])
    for a2 in (root, -root):
        if not abs(wp_prime(ctx, a2) + p1p) > 1e-7 * max(ctx.wp_floor(3), abs(p1p)):
            return a2
    raise ConstructionError("failed to place an admissible second end")


def _epsilon_residual(ctx: EllipticContext, a1, a2, eps) -> float:
    """Largest relative miss of int t1h t2h = -6 eta_k over the two cycles,
    with t1h = t1 + eps t2 and t2h = t1 + eps^2 t2 at ends {0, a1, a2}."""
    tw = basis_F_torus_twisted(ctx, EndDivisor((0.0, complex(a1), complex(a2))))
    sections = [section_combination([0.0, 1.0, c], tw, "that") for c in (eps, eps * eps)]

    cycles = period_matrix(sections, [_torus_cycle(tw[0].domain, k) for k in (1, 3)])
    return max(abs(M[0, 1] + 6.0 * eta_k) / max(abs(6.0 * eta_k), 1e-300)
               for M, eta_k in zip(cycles, (ctx.eta1, ctx.eta3)))


def _real_structure(ctx: EllipticContext) -> np.ndarray:
    """B = A^{-1} conj(A) for A = [[eta1, omega1], [eta3, omega3]], so that
    conj(A) = A B: complex conjugation of the rows (eta_k, omega_k) in
    their own basis, and B conj(B) = 1."""
    A = np.array([[ctx.eta1, ctx.omega1], [ctx.eta3, ctx.omega3]], dtype=complex)
    return np.linalg.solve(A, np.conj(A))


def torus3_degeneracy(ctx: EllipticContext, a1, a2) -> Torus3Report:
    """Degeneracy data for the three-ended twisted torus at ends {0, a1, a2}.

    Returns the residual of the end-placement condition
    g2 = 4 (p1^2 + p1 p2 + p2^2), the period-degeneracy expression
    -conj(a) - a b^2 q1 q2 + a d^2 built from B = A^{-1} conj(A), |a|
    for the |a| > 1 obstruction, and EPSILON's _epsilon_residual.
    """
    a1, a2 = complex(a1), complex(a2)
    if ctx.lattice_distance(a1 + a2) < 1e-9 * 4.0 ** ctx.lattice.chart_exponent:
        raise ValueError("a1 + a2 = 0 is a limit case, not handled directly")
    p1, p2 = wp(ctx, a1), wp(ctx, a2)
    g2_condition = ctx.g2 - 4.0 * (p1 * p1 + p1 * p2 + p2 * p2)
    q1 = -((EPSILON - EPSILON**2) * p1 + (EPSILON - 1.0) * p2) / 3.0
    q2 = -((EPSILON**2 - EPSILON) * p1 + (EPSILON**2 - 1.0) * p2) / 3.0
    q1q2_identity = abs(q1 * q2 - ctx.g2 / 12.0)
    B = _real_structure(ctx)
    a_, b_ = B[0, 0], B[0, 1]
    d_ = B[1, 1]
    degeneracy = -np.conj(a_) - a_ * b_ * b_ * q1 * q2 + a_ * d_ * d_
    return Torus3Report(ctx=ctx, a1=a1, a2=a2,
                        g2_condition=complex(g2_condition),
                        degeneracy=complex(degeneracy),
                        abs_a=float(abs(a_)),
                        q1q2_identity=float(q1q2_identity),
                        epsilon_residual=_epsilon_residual(ctx, a1, a2, EPSILON))


# ---------------------------------------------------------------------------
# tori with four ends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusFourEnd:
    ctx: EllipticContext
    choice: tuple  # permutation (i, j, k), 1-based
    ends: EndDivisor
    K_basis: tuple  # (t1hat, t2hat, t3hat)
    periods_closed: dict
    periods_quadrature: dict
    x_squares: tuple
    x: tuple
    branch_condition: complex
    branch_relative: float
    s1: SpinorSection
    s2: SpinorSection
    residuals: dict

    def report(self):
        return {
            "omega1": self.ctx.omega1, "omega3": self.ctx.omega3,
            "choice": self.choice,
            "ends": self.ends.points,
            "periods_closed": self.periods_closed,
            "x_squares": self.x_squares,
            "x": self.x,
            "branch_condition": self.branch_condition,
            "branch_relative": self.branch_relative,
            "residuals": self.residuals,
        }

    def checks(self) -> list:
        """The period checks, and the branch condition relative to its two
        terms (branch_relative), which reads neither the lattice's scale
        nor its thinness."""
        r = self.residuals
        return [check("period_diag_rel", r["period_diag_rel"], TORUS4_DIAG_TOL),
                check("period_offdiag", r["period_offdiag"], TORUS4_OFFDIAG_TOL),
                check("period1", r["period1"], TORUS4_PERIOD_TOL),
                check("branch", self.branch_relative, TORUS4_BRANCH_TOL, invert=True)]


TORUS4_DIAG_TOL = 1e-6  # relative miss of a closed-form diagonal period
TORUS4_OFFDIAG_TOL = 1e-8  # off-diagonal periods, in the unit chart
TORUS4_PERIOD_TOL = 1e-7  # the period conditions on the solved (x_i, x_j)
# the least branch condition of an immersion, relative to its two terms:
# it reads 0.91 to 1 on the unbranched tori (1, t i) up to t = 7 and 6e-16
# on the branched choices 132 and 312 of (1, i)
TORUS4_BRANCH_TOL = 1e-3


TORUS4_MIX = np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=complex)


def _principal_root(x2) -> complex:
    """Principal square root of x2, read as real when its imaginary part is
    at rounding level (at most 1e-12 of |x2|): on a real lattice x_i^2 is
    real, and the sign of its rounding noise must not pick the branch."""
    x2 = complex(x2)
    if abs(x2.imag) <= 1e-12 * abs(x2):
        x2 = complex(x2.real, 0.0)
    return complex(np.sqrt(x2))


# The closed-form periods -8 (eta_k + w_k e_i) cancel as the lattice thins:
# their mismatch with quadrature grows about as eps * exp(pi Im tau) in the
# reduced tau.  At 7 the period checks hold (period1 1.8e-8 against
# TORUS4_PERIOD_TOL, period_diag_rel 7e-8); at 8 both fail, at 13 a period rounds to 0,
# and from about 20 the quadrature stops converging.
TORUS4_MAX_IM_TAU = 7.0


def torus4_construct(ctx: EllipticContext, choice=(1, 2, 3)) -> TorusFourEnd:
    """Four-ended twisted torus at ends {0, w1, w2, w3}.

    Builds the diagonalizing t-hat basis, evaluates the periods
    P_k^{ii} = -8 (eta_k + w_k e_i) (off-diagonal zero) with a quadrature
    cross-check, solves the period equations for (x_i^2, x_j^2), and
    evaluates the branch-point necessary condition
    B = (e_k - e_i) x_i^2 - (e_k - e_j) x_j^2 (nonzero for an immersion) and
    B relative to its terms, |B| / (|e_k - e_i| |x_i^2| + |e_k - e_j| |x_j^2|),
    the e-differences from theta constants (EllipticContext.e_difference):
    B itself falls as the e_i draw together on a thin cell.
    A lattice whose reduced Im tau exceeds TORUS4_MAX_IM_TAU raises
    ConstructionError before any of it.
    """
    i, j, k = choice
    if sorted(choice) != [1, 2, 3]:
        raise ValueError("choice must be a permutation of (1, 2, 3)")
    b1, b2 = ctx.lattice.reduced_periods
    if (b2 / b1).imag > TORUS4_MAX_IM_TAU:
        raise ConstructionError(
            f"torus4 takes lattices of reduced Im(tau) <= {TORUS4_MAX_IM_TAU:g}; this one has "
            f"{(b2 / b1).imag:.6g}, too thin for its closed-form periods")
    divisor = EndDivisor((0.0, ctx.omega1, ctx.omega2, ctx.omega3))
    tw = basis_F_torus_twisted(ctx, divisor)
    form = omega_matrix(tw)
    s = 4.0 ** ctx.lattice.chart_exponent  # Omega and off-diagonal periods scale as 1/s
    residuals = {"omega_zero": float(np.max(np.abs(form.matrix.entries))) * s}
    K = extract_K(form)
    if len(K) != 3:
        raise ConstructionError(f"torus4 kernel has dimension {len(K)}, expected 3")
    that = [section_combination(np.concatenate([[0.0], TORUS4_MIX[m]]), tw, f"that{m + 1}")
            for m in range(3)]

    rhs = _real_structure(ctx) @ np.array([1.0, np.conj(ctx.e(k))])
    # the e row read in the unit chart, times s^2 for the chart scale s, so
    # that the solve's pivot, and so x, do not depend on s
    unit = np.array([1.0, s * s])
    M2 = scale_parts(np.array([[1.0, 1.0], [ctx.e(i), ctx.e(j)]]), unit[:, None])
    xi2, xj2 = np.linalg.solve(M2, scale_parts(rhs, unit))
    x_i, x_j = _principal_root(xi2), _principal_root(xj2)
    d_ki, d_kj = ctx.e_difference(k, i), ctx.e_difference(k, j)
    branch = d_ki * xi2 - d_kj * xj2
    relative = abs(branch) / max(abs(d_ki) * abs(xi2) + abs(d_kj) * abs(xj2), 1e-300)

    coeff = x_i * TORUS4_MIX[i - 1] + x_j * TORUS4_MIX[j - 1]
    s1 = section_combination(np.concatenate([[0.0], coeff]), tw, "s1")
    s2 = that[k - 1]

    # the period matrices of both cycles on (that1, that2, that3, s1) from one
    # quadrature; s2 = that_k
    periods_closed, periods_quad = {}, {}
    worst_diag, worst_off, period1_res = 0.0, 0.0, 0.0
    cycles = period_matrix(that + [s1], [_torus_cycle(tw[0].domain, kk) for kk in (1, 3)])
    for kk, eta_k, w_k, M in zip((1, 3), (ctx.eta1, ctx.eta3), (ctx.omega1, ctx.omega3), cycles):
        for m in range(3):
            closed = -8.0 * (eta_k + w_k * ctx.e(m + 1))
            periods_closed[f"P{kk}^{m + 1}{m + 1}"] = closed
            periods_quad[f"P{kk}^{m + 1}{m + 1}"] = M[m, m]
            worst_diag = max(worst_diag, abs(M[m, m] - closed) / abs(closed))
        for m in range(3):
            for mm in range(m + 1, 3):
                periods_quad[f"P{kk}^{m + 1}{mm + 1}"] = M[m, mm]
                worst_off = max(worst_off, abs(M[m, mm]))
        q11, q22, q12 = M[3, 3], M[k - 1, k - 1], M[3, k - 1]
        scale = max(abs(q11), abs(q22), 1e-300)
        period1_res = max(period1_res, abs(q11 - np.conj(q22)) / scale,
                          abs(q12.real) / scale)
    residuals["period_diag_rel"] = worst_diag
    residuals["period_offdiag"] = worst_off * s
    residuals["period1"] = period1_res
    residuals["planar_ends"] = bool(planar_ends(s1, s2).all())
    return TorusFourEnd(ctx=ctx, choice=tuple(choice), ends=divisor,
                        K_basis=tuple(that),
                        periods_closed=periods_closed, periods_quadrature=periods_quad,
                        x_squares=(complex(xi2), complex(xj2)),
                        x=(complex(x_i), complex(x_j)),
                        branch_condition=complex(branch), branch_relative=float(relative),
                        s1=s1, s2=s2, residuals=residuals)


# ---------------------------------------------------------------------------
# the Klein bottle
# ---------------------------------------------------------------------------

KLEIN_M = -2.0 * (1.0 - 4.0 * np.sqrt(2.0) * 1j) / 3.0


def square_context_e1_normalized() -> EllipticContext:
    """Square lattice (lam, i lam) with wp(w1) = 1 (then e2 = 0, e3 = -1):
    on (1, i), the lemniscatic case, e1 = Gamma(1/4)^4 / (32 pi) (DLMF
    23.5(iii)), so lam = sqrt(e1) = Gamma(1/4)^2 / sqrt(32 pi), real, and
    omega1 is exactly real and omega3 exactly imaginary."""
    lam = math.gamma(0.25) ** 2 / math.sqrt(32.0 * math.pi)
    return build_context(lam, lam * 1.0j)


def klein_W(r) -> np.ndarray:
    """The published 4x4 W block: 4/(p_i - p_j) off the diagonal and
    (p_i^2 - c_p c_q)/(p_i (p_i - c_p)(p_i - c_q)) on it, with
    p = (r, -1/r, -r, 1/r) and c_p, c_q = +-1."""
    r = complex(r)
    p = [r, -1.0 / r, -r, 1.0 / r]
    W = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i != j:
                W[i, j] = 4.0 / (p[i] - p[j])
            else:
                W[i, i] = (p[i] ** 2 + 1.0) / (p[i] * (p[i] - 1.0) * (p[i] + 1.0))
    return W


def klein_det_w_closed(r) -> complex:
    """(3 r^8 - 4 r^6 + 50 r^4 - 4 r^2 + 3)^2 / (r^4 - 1)^2 as printed.

    Note: the determinant of the printed W matrix itself equals this
    expression divided by a further (r^4 - 1)^2; the printed denominator
    exponent is off, but the numerator (whose zeros drive the
    construction) and the factorization below are exact.
    """
    r = complex(r)
    num = 3 * r**8 - 4 * r**6 + 50 * r**4 - 4 * r**2 + 3
    return num * num / (r**4 - 1.0) ** 2


def klein_det_w_factored(r) -> complex:
    """9 (r^4 + m r^2 + 1)^2 (r^4 + conj(m) r^2 + 1)^2 / (r^4 - 1)^2."""
    r = complex(r)
    m = KLEIN_M
    return 9.0 * (r**4 + m * r**2 + 1.0) ** 2 * (r**4 + np.conj(m) * r**2 + 1.0) ** 2 \
        / (r**4 - 1.0) ** 2


def klein_fourth_quadrant_root() -> complex:
    roots = poly_roots((1.0, 0.0, KLEIN_M, 0.0, 1.0))
    fourth = [z for z in roots if z.real > 0 and z.imag < 0]
    if len(fourth) != 1:
        raise ConstructionError("expected exactly one fourth-quadrant root")
    return fourth[0]


def _klein_end(ctx: EllipticContext, r: complex) -> complex:
    """The end a with wp(a) = r on the anti-invariant locus I(a) = -a:
    whichever of +-wp_inverse(ctx, r) has its lattice representative
    (Lattice.reduce) on the segment Re a = w1/2, 0 < Im a < Im w3."""
    root = wp_inverse(ctx, r)
    w1, h3 = ctx.omega1.real, ctx.omega3.imag
    for a in ctx.lattice.reduce(np.array([root, -root]))[0].tolist():
        if abs(a.real - w1 / 2.0) <= 1e-9 * w1 and 0.0 < a.imag < h3:
            return a
    raise ConstructionError(f"wp(a) = {r:.6g} has no root a on the anti-invariant locus")


@dataclass(frozen=True)
class KleinFourEnd:
    ctx: EllipticContext
    r: complex
    a: complex
    ends: EndDivisor
    W: np.ndarray
    form: OmegaForm
    rank: int  # of Omega; not in the report
    sections: tuple  # (s1hat, s2hat, s3hat, s4hat)
    period_coeffs: tuple  # (A, B, C)
    solution: tuple  # (x1, x2)
    s1: SpinorSection
    s2: SpinorSection
    residuals: dict

    def report(self):
        return {
            "r": self.r, "a": self.a,
            "ends": self.ends.points,
            "W": self.W,
            "period_coeffs": self.period_coeffs,
            "solution": self.solution,
            "residuals": self.residuals,
        }

    def checks(self) -> list:
        return [check("rank", abs(self.rank - 4), 0.0),
                *(check(k, self.residuals[k], KLEIN_TOL)
                  for k in ("period_equation", "gamma1_s1sq_quadrature", "gamma3_auto"))]


KLEIN_TOL = 1e-8  # each of the Klein bottle's period residuals


def klein4_construct() -> KleinFourEnd:
    """The amphichiral minimal Klein bottle with four planar ends.

    Steps: normalize the square lattice to e1 = 1; take the
    fourth-quadrant root r of r^4 + m r^2 + 1; place a on the I(a) = -a
    locus with wp(a) = r (_klein_end) and lay out the eight ends; build
    the paired sections on the zeta rows of those ends, read Table 3 at the
    ends from their domain, and check rank(Omega) = 4 and the W block;
    assemble the kernel sections s-hat (the deck conjugates live on the
    wp'-type half of the paired sections); solve the single period
    equation with the closed-form A, B, C and cross-check every identity
    by quadrature.  Whether the pair is unbranched is surface.gauss_degree's
    question: it reads g + n - 1 = 8 exactly when s1 and s2 share no zero
    (acceptance 9g).
    """
    ctx = square_context_e1_normalized()
    r = klein_fourth_quadrant_root()
    a = _klein_end(ctx, r)
    half = [a, a + ctx.omega2, -1j * a, -1j * a + ctx.omega2]
    basis = basis_F_torus_untwisted_paired(ctx, 2, half)
    dom = basis[0].domain
    # Table 3: the published wp and wp' at the eight ends +-a_i, read
    # against the domain's evaluation of its ends, and their I-pairing
    at = dom.end_values[0]
    rp = at.wp_prime[0]
    wpp4 = [rp, rp / r**2, -1j * rp, -1j * rp / r**2]
    residuals = {"table3": float(max(np.max(np.abs(at.wp - [r, -1.0 / r, -r, 1.0 / r] * 2)),
                                     np.max(np.abs(at.wp_prime - (wpp4 + [-v for v in wpp4])))))}
    I = lambda u: np.conj(u) + ctx.omega1
    residuals["deck_pairing"] = float(np.max(
        ctx.lattice_distance(I(at.u) - at.u[[4, 5, 3, 2, 0, 1, 7, 6]])))

    # Omega on the paired sections, whose rank is that of the zeta rows they
    # combine, as the change of basis is invertible
    form = omega_matrix(basis)
    rank, _ = omega_matrix(basis[0].basis.members()).rank_kernel()
    if rank != 4:
        raise ConstructionError(f"rank Omega = {rank}, expected 4 at the quartic root")
    W_num = -2.0 * form.matrix.entries[:4, 4:]
    residuals["W_match"] = float(np.max(np.abs(W_num - klein_W(r))))

    c1 = np.array([2 * (r**2 - 1) ** 2, (r**2 + 1) * (r**2 - 3),
                   (r**2 + 1) * (3 * r**2 - 1), -2 * (r**2 - 1) ** 2], dtype=complex)
    c2 = np.array([(r**2 + 1) * (3 * r**2 - 1), -2 * (r**2 - 1) ** 2,
                   2 * (r**2 - 1) ** 2, (r**2 + 1) * (r**2 - 3)], dtype=complex)

    # deck conjugates i conj(I* s): on the wp'-type half, with the
    # wp-value classes permuted (3 <-> 4) by conjugation
    pbar = [np.conj(p) for p in (r, -1 / r, -r, 1 / r)]
    def deck_coefficients(cc):
        d = [1j * np.conj(c) / (2.0 * (1.0 - pb)) for c, pb in zip(cc, pbar)]
        v = np.zeros(8, dtype=complex)
        v[4], v[5], v[7], v[6] = d[0], d[1], d[2], d[3]
        return v
    # s-hat in the coordinates of the paired sections, which Omega's kernel reads
    paired = [np.concatenate([c1, np.zeros(4)]), np.concatenate([c2, np.zeros(4)]),
              deck_coefficients(c1), deck_coefficients(c2)]
    s1h, s2h, s3h, s4h = (section_combination(v, basis, f"s{k + 1}hat")
                          for k, v in enumerate(paired))
    kernel_res = max(float(np.linalg.norm(form.matrix.entries @ v) / np.linalg.norm(v))
                     for v in paired)
    residuals["kernel"] = kernel_res / np.abs(form.matrix.entries).max()

    rng = np.random.default_rng(17)
    pts = (rng.uniform(0.04, 0.96, 50) * 2 * ctx.omega1
           + rng.uniform(0.04, 0.96, 50) * 2 * ctx.omega3)
    # the sections at pts and at I(pts), and wp and wp' at pts, from one frame
    on, n = dom.points(np.concatenate([pts, I(pts)])), len(pts)
    values = section_values((s3h, s4h, s1h, s2h), on)
    lhs = values[:2, :n]
    pull = on.wp_prime[:n] / (2.0 * (on.wp[:n] + 1.0))
    rhs = 1j * np.conj(values[2:, n:]) * pull
    residuals["deck_conjugate"] = float(max(
        np.max(np.abs(lhs[k] - rhs[k])) / np.max(np.abs(lhs[k])) for k in range(2)))

    A = -32.0 * r**2 * (r**4 + 4 * r**2 + 1.0) / 3.0
    B = 4.0 * r * (r**2 + 1.0) ** 3
    C = -2.0 * (r**4 - 1.0) ** 2
    P11 = A * ctx.eta1 + B * ctx.omega1
    P12 = C * ctx.eta1
    P22 = A * ctx.eta1 - B * ctx.omega1
    disc = np.sqrt(P12 * P12 - P11 * P22)
    x1 = (-P12 + disc) / P11
    x2 = 1.0 + 0.0j
    residuals["period_equation"] = float(
        abs(x1 * x1 * P11 + 2 * x1 * x2 * P12 + x2 * x2 * P22)
        / max(abs(P11), abs(P12), abs(P22)))

    s1 = section_combination([x1, x2], [s1h, s2h], "s1")
    s2 = section_combination([np.conj(x1), np.conj(x2)], [s3h, s4h], "s2")
    # both cycles from one quadrature
    ((q11, q12), (_, q22)), ((g11, g12), (_, g22)) = period_matrix(
        (s1, s2), [QuadraturePath.segment(-w, w, samples=128) for w in (ctx.omega1, ctx.omega3)])
    scale = sum(abs(x) for x in (P11, P12, P22)) * max(abs(x1), 1.0) ** 2
    residuals["gamma1_s1sq_quadrature"] = float(abs(q11) / scale)
    residuals["gamma1_s1s2_quadrature"] = float(abs(q12) / scale)
    residuals["gamma1_conj_pair"] = float(abs(q11 - np.conj(q22)) / scale)
    residuals["gamma3_auto"] = float(
        max(abs(g11 - np.conj(g22)), abs(g12.real)) / scale)

    # numeric A, B, C from the 8-end principal parts of s1hat^2 (factor 2
    # vs printed): its wp sum and its constant
    prim = form_primitive(((s1h, s1h),))
    A_num, B_num = -2.0 * np.sum(prim.c), 2.0 * prim.poly[0, 0]
    residuals["ABC_ratio"] = float(max(abs(A_num / A - 2.0), abs(B_num / B - 2.0)))
    return KleinFourEnd(ctx=ctx, r=r, a=a, ends=form.divisor, W=W_num, form=form,
                        rank=rank, sections=(s1h, s2h, s3h, s4h),
                        period_coeffs=(complex(A), complex(B), complex(C)),
                        solution=(complex(x1), complex(x2)),
                        s1=s1, s2=s2, residuals=residuals)


# ---------------------------------------------------------------------------
# the construction table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Construction:
    """How a named construction is built, the spinor pair it meshes, and
    the chart point of its domain, domain -> point, that its meshes start
    from (basepoint)."""

    build: Callable
    pair: Callable
    point: Callable

    def basepoint(self, domain, grid: GridSpec) -> complex:
        """The grid vertex nearest the chart point (ChartMap.nearest)."""
        chart = _chart_map(domain, grid)
        i, j = chart.nearest(self.point(domain))
        return complex(chart.x[i] + chart.y[j])

    def weierstrass(self, built, eps=None) -> WeierstrassData:
        s1, s2 = self.pair(built)
        return WeierstrassData(s1=s1, s2=s2, end_clearance=eps)

    def mesh(self, built, grid: GridSpec, eps=None):
        """The closed-form mesh of the built construction on the grid."""
        data = self.weierstrass(built, eps)
        return integrate_surface(data, grid, self.basepoint(data.domain, grid))


# builds look their function up among this module's globals at call time,
# so that a function replaced on the module (a wrapper or a test double)
# is the one called
CONSTRUCTIONS = {
    "enneper": Construction(enneper_data, lambda d: (d.s1, d.s2), lambda dom: 0j),
    "sphere4": Construction(lambda: sphere4_solve(), attrgetter("K_basis"),
                            lambda dom: -1.0 - 1.0j),
    "sphere6": Construction(lambda sigma: sphere6_K_basis(sigma), attrgetter("K_basis"),
                            lambda dom: -1.5 - 1.5j),
    "torus4": Construction(lambda omega1=1.0, omega3=1.0j, choice=(1, 2, 3):
                           torus4_construct(build_context(omega1, omega3), choice),
                           lambda t4: (t4.s1, t4.s2),
                           lambda dom: dom.ctx.omega1 + dom.ctx.omega3 / 2),
    "klein4": Construction(lambda: klein4_construct(), lambda kb: (kb.s1, kb.s2),
                           lambda dom: dom.ctx.omega1 + dom.ctx.omega3 / 4),
}
