"""Explicit constructions: 4/6-ended spheres, RP^2 variety, 4-ended tori,
the 4-ended Klein bottle, and the 3-ended-torus degeneracy evaluators.

sphere4_solve, torus3_degeneracy, torus4_construct and klein4_construct
each return a dataclass bundling the inputs, the results (Omega, kernel
sections, periods, as each construction has them) and the residuals of
every identity checked; all but the 3-ended torus serialize it to a
JSON-ready dict with `.report()`.
sphere6_K_basis returns the tuple ((t1, t2), form, residuals).

Conventions pinned here (each cross-checked numerically at build time):

* sphere-4 picks the first-quadrant root of the pfaffian quartic;
* the 6-end pfaffian satisfies  pf(Omega) * V = -(tau1 tau3 + s1 s3 - 20)
  where V is the Vandermonde product over the five finite ends in basis
  order; the raw pf alone carries that configuration-dependent factor;
* the 3-ended-torus basis rotation epsilon is selected at run time
  between the two candidate values by the integral identity
  int t1 t2 = -6 eta_k along the periods;
* the Klein bottle solves its period equation with the closed-form
  A, B, C coefficients, which match the full 8-end principal-part sums
  up to one overall factor (irrelevant: the equation is homogeneous).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .elliptic import EllipticContext, build_context, wp, wp_inverse, wp_prime
from .numkit import ComplexPolynomial, QuadraturePath, pfaffian, poly_roots, skew_rank_kernel
from .spinor import (
    INF,
    EndDivisor,
    OmegaForm,
    SphereDomain,
    SpinorSection,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted_paired,
    extract_K,
    form_primitive,
    omega_matrix,
    period_matrix,
    planar_ends,
    rational_sphere_basis,
    section_combination,
    section_values,
)

__all__ = [
    "ConstructionError",
    "SphereFamily",
    "TorusFourEnd",
    "KleinFourEnd",
    "Torus3Report",
    "sphere4_solve",
    "sphere6_pfaffian",
    "sphere6_ends",
    "sphere6_numeric_pfaffian",
    "sphere6_K_basis",
    "rp2_variety",
    "rp2_slice",
    "rp2_symmetry_group",
    "rp2_boundary_point",
    "rp2_apply",
    "RP2_GROUP",
    "mobius_strip_spinor",
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
]


class ConstructionError(ValueError):
    """A construction fails its kernel or rank check at the given
    tolerance or lattice."""


def _vandermonde(points):
    points = list(points)
    out = 1.0 + 0.0j
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            out *= points[j] - points[i]
    return out


def _torus_cycle(ctx: EllipticContext, k: int) -> QuadraturePath:
    """Closed cycle parallel to omega_k as a period path, offset by 0.2371
    of the other half-period off the half-lattice lines."""
    wk = ctx.omega1 if k == 1 else ctx.omega3
    other = ctx.omega3 if k == 1 else ctx.omega1
    c = 0.2371 * other
    return QuadraturePath.period(-wk + c, wk + c, samples=64)


# ---------------------------------------------------------------------------
# spheres with four ends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereFamily:
    n: int
    parameter: tuple  # (a,): sphere4_solve builds the only family, n = 4
    ends: EndDivisor
    form: OmegaForm
    K_basis: tuple
    residuals: dict

    def report(self):
        from .reportio import jsonify
        return jsonify({
            "n": self.n,
            "parameter": self.parameter,
            "ends": self.ends.points,
            "omega": self.form.matrix.entries,
            "K_coefficients": [k.coefficients for k in self.K_basis],
            "residuals": self.residuals,
        })


def sphere4_quartic() -> ComplexPolynomial:
    """(a^2 - sqrt3 a + 1)(a^2 + sqrt3 a + 1) = a^4 - a^2 + 1, ascending."""
    return ComplexPolynomial((1.0, 0.0, -1.0, 0.0, 1.0))


def sphere4_printed_K(dom: SphereDomain):
    """The published K basis for ends {a, 1/a, 0, inf} at a = (sqrt3+i)/2."""
    s3 = np.sqrt(3.0)
    t1, t2 = rational_sphere_basis(dom, [([-1.0, s3], [0.0, 1.0, -s3, 1.0]),
                                         ([0.0, -s3, 1.0], [1.0, -s3, 1.0])], ("t1", "t2"))
    return t1, t2


def sphere4_solve(tol: float = 1e-9) -> SphereFamily:
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
    K = extract_K(form, tol)
    if len(K) != 2:
        raise ConstructionError(f"sphere4 kernel has dimension {len(K)}, expected 2")
    residuals = {"pfaffian": abs(pf)}
    residuals["pfaffian_all_roots"] = max(
        abs(pfaffian(omega_matrix(basis_F_sphere(EndDivisor((r, 1.0 / r, 0.0, INF)))).matrix))
        for r in roots)
    t1, t2 = sphere4_printed_K(basis[0].domain)
    Kmat = np.array([k.coefficients for k in K]).T
    worst = 0.0
    for t in (t1, t2):
        v = _sphere_coefficients(t)
        sol, *_ = np.linalg.lstsq(Kmat, v, rcond=None)
        worst = max(worst, float(np.linalg.norm(Kmat @ sol - v) / np.linalg.norm(v)))
    residuals["printed_K_span"] = worst
    residuals["planar_ends"] = bool(planar_ends(K[0], K[1]).all())
    am1, a0 = t1.expansions[2]  # the end 0
    residuals["t1_sq_residue_at_0"] = abs(2 * am1 * a0)
    return SphereFamily(n=4, parameter=(a,), ends=form.divisor, form=form,
                        K_basis=tuple(K), residuals=residuals)


def _sphere_coefficients(section: SpinorSection):
    """Coefficients on the basis {phi/(z-a_i), phi}: alpha_-1 at each end, over i at inf."""
    am1 = section.expansions[:, 0]
    return np.append(am1[:-1], am1[-1] / 1j)


# ---------------------------------------------------------------------------
# spheres with six ends
# ---------------------------------------------------------------------------

def sphere6_pfaffian(sigma) -> complex:
    """tau1 tau3 + sigma1 sigma3 - 20 with tau_i = sigma_i^2 + 3 sigma2."""
    s1, s2, s3 = (complex(s) for s in sigma)
    tau1 = s1 * s1 + 3.0 * s2
    tau3 = s3 * s3 + 3.0 * s2
    return tau1 * tau3 + s1 * s3 - 20.0


def sphere6_ends(sigma):
    """Ends {a1..a4, 0, inf}: roots of z^4 - s1 z^3 - s2 z^2 - s3 z + 1."""
    s1, s2, s3 = (complex(s) for s in sigma)
    quartic = ComplexPolynomial((1.0, -s3, -s2, -s1, 1.0))
    roots = poly_roots(quartic)
    return EndDivisor(tuple(roots) + (0.0, INF))


def sphere6_numeric_pfaffian(sigma):
    """(pfaffian of the 6x6 Omega, Vandermonde-normalized pfaffian).

    The normalized value pf * V(finite ends, basis order) equals
    -(tau1 tau3 + sigma1 sigma3 - 20) exactly; the raw pfaffian carries
    the configuration-dependent basis factor 1/V.
    """
    divisor = sphere6_ends(sigma)
    basis = basis_F_sphere(divisor)
    form = omega_matrix(basis)
    pf = pfaffian(form.matrix)
    finite = [p for p in form.divisor.points if not np.isinf(p.real)]
    return pf, pf * _vandermonde(finite)


def sphere6_K_basis(sigma, tol: float = 1e-8):
    """The printed two-section K basis at a point of the pfaffian variety."""
    s1, s2, s3 = (complex(s) for s in sigma)
    value = sphere6_pfaffian(sigma)
    if abs(value) > 1e-6 * max(1.0, abs(s1) ** 4 + abs(s2) ** 2 + abs(s3) ** 4):
        raise ValueError(f"sigma is off the pfaffian variety (value {value:.3e})")
    tau1 = s1 * s1 + 3.0 * s2
    tau3 = s3 * s3 + 3.0 * s2
    b = (s2, -s2 * s3, s2 * tau3 - 2.0 * s1 * s3 - 10.0, s1 * tau3 + 5.0 * s3)
    c = (s3 * tau1 + 5.0 * s1, s2 * tau1 - 2.0 * s1 * s3 - 10.0, -s1 * s2, s2)
    divisor = sphere6_ends(sigma)
    basis = basis_F_sphere(divisor)
    dom = basis[0].domain
    # t1 = (b3 z^3 + ... + b0) / (z * quartic), t2 = z (c3 z^3 + ... + c0) / quartic
    quartic_asc = np.array((1.0, -s3, -s2, -s1, 1.0), dtype=complex)
    z_quartic = np.concatenate([[0.0 + 0.0j], quartic_asc])
    t1, t2 = rational_sphere_basis(dom, [(list(b), z_quartic), ([0.0] + list(c), quartic_asc)],
                                   ("t1", "t2"))
    form = omega_matrix(basis)
    residuals = {}
    for t, name in ((t1, "t1"), (t2, "t2")):
        v = _sphere_coefficients(t)
        residuals[f"{name}_kernel"] = float(
            np.linalg.norm(form.matrix.entries @ v) / max(np.linalg.norm(v), 1e-300))
        am1, a0 = np.hypot(t.expansions.real, t.expansions.imag).T
        residuals[f"{name}_alpha0"] = float(a0.max() / max(am1.max(), 1e-300))
    if max(residuals.values()) > tol:
        raise ConstructionError(f"printed K basis fails kernel/K test: {residuals}")
    return (t1, t2), form, residuals


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
# label by stabilizer order; an order-4 stabilizer is Z2xZ2, because each
# order-4 element fixes only the origin, which is off the variety
_RP2_LABELS = np.array([{1: "trivial", 2: "Z2", 4: "Z2xZ2", 6: "S3"}.get(k, f"order-{k}")
                        for k in range(25)])


def rp2_apply(g, c):
    return g @ np.asarray(c, dtype=float)


def rp2_symmetry_group(c):
    """Label of the stabilizer of c under the 24-element action: a str for
    one point, a list for an (n, 3) array of points.

    Labels: trivial | Z2 | Z2xZ2 | S3, by the stabilizer's order.
    """
    c = np.asarray(c, dtype=float)
    pts = np.atleast_2d(c)
    if not np.all(np.abs(rp2_variety(pts)) <= 1e-6 * 32.0):
        raise ValueError("point is off the admissibility variety")
    order = np.zeros(len(pts), dtype=int)
    for g in RP2_GROUP:
        order += np.max(np.abs(pts @ g.T - pts), axis=1) < _RP2_TOL
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
        roots = poly_roots(ComplexPolynomial((-5.0, 0.0, 27.0, 32.0, 9.0, 0.0, 1.0)))
        c = next(r.real for r in roots if 0.0 < r.real < 1.0)
        return (c, c, -c)
    raise ValueError(f"unknown special point {kind!r}")


def mobius_strip_spinor():
    """Degenerate-limit Mobius strip pair sqrt(i) (-(w+1)/w^2, w-1) sqrt(dw).

    These are the limit sections on C*; they are not members of an F
    space (the first has a double pole), so no Laurent tables attach.
    """
    sqrt_i = np.exp(1j * np.pi / 4.0)
    dom = SphereDomain(ends=EndDivisor((0.0, INF)))
    s1, s2 = rational_sphere_basis(dom, [(-sqrt_i * np.ones(2), [0.0, 0.0, 1.0]),
                                         (sqrt_i * np.array([-1.0, 1.0]), [1.0])],
                                   ("mobius_s1", "mobius_s2"), laurent=False)
    return s1, s2


# ---------------------------------------------------------------------------
# tori with three ends: degeneracy evaluators
# ---------------------------------------------------------------------------

EPSILON_CANDIDATES = {
    "printed (-1+sqrt3)/2": (-1.0 + np.sqrt(3.0)) / 2.0,
    "cube root (-1+i sqrt3)/2": (-1.0 + 1j * np.sqrt(3.0)) / 2.0,
}


@dataclass(frozen=True)
class Torus3Report:
    ctx: EllipticContext
    a1: complex
    a2: complex
    g2_condition: complex
    degeneracy: complex
    abs_a: float
    q1q2_identity: float
    epsilon: complex
    epsilon_label: str
    epsilon_residuals: dict


def torus3_admissible_pair(ctx: EllipticContext, a1) -> complex:
    """Given a1, return a2 != -a1 with wp'(a1) + wp'(a2) = 0.

    wp(a2) is a root of 4 p^3 - g2 p - g3 = wp'(a1)^2 other than wp(a1);
    the sign of a2 is fixed by the wp' condition.
    """
    a1 = complex(a1)
    p1p = wp_prime(ctx, a1)
    cubic = ComplexPolynomial((-ctx.g3 - p1p * p1p, -ctx.g2, 0.0, 4.0))
    candidates = [p for p in poly_roots(cubic) if abs(p - wp(ctx, a1)) > 1e-6]
    p2 = candidates[0]
    a2 = wp_inverse(ctx, p2)
    if abs(wp_prime(ctx, a2) + p1p) > 1e-7 * max(1.0, abs(p1p)):
        a2 = -a2
    if abs(wp_prime(ctx, a2) + p1p) > 1e-7 * max(1.0, abs(p1p)):
        raise RuntimeError("failed to place an admissible second end")
    return a2


def _select_epsilon(ctx: EllipticContext, a1, a2):
    """Pick the epsilon candidate that satisfies int t1h t2h = -6 eta_k.

    The printed value (-1+sqrt3)/2 and the cube root of unity are both
    evaluated; the one reproducing the period integral wins.
    """
    divisor = EndDivisor((0.0, complex(a1), complex(a2)))
    tw = basis_F_torus_twisted(ctx, divisor)
    # (t1hat, t2hat) of both candidates in one period matrix per cycle
    sections = [section_combination([0.0, 1.0, c], tw, "that")
                for eps in EPSILON_CANDIDATES.values() for c in (eps, eps * eps)]
    results = dict.fromkeys(EPSILON_CANDIDATES, 0.0)
    for k, eta_k in ((1, ctx.eta1), (3, ctx.eta3)):
        M = period_matrix(sections, _torus_cycle(ctx, k))
        for m, label in enumerate(results):
            rel = abs(M[2 * m, 2 * m + 1] + 6.0 * eta_k) / max(abs(6.0 * eta_k), 1e-300)
            results[label] = max(results[label], rel)
    label = min(results, key=results.get)
    return EPSILON_CANDIDATES[label], label, results


def torus3_degeneracy(ctx: EllipticContext, a1, a2) -> Torus3Report:
    """Degeneracy data for the three-ended twisted torus at ends {0, a1, a2}.

    Returns the residual of the end-placement condition
    g2 = 4 (p1^2 + p1 p2 + p2^2), the period-degeneracy expression
    -conj(a) - a b^2 q1 q2 + a d^2 built from B = A^{-1} conj(A), and |a|
    for the |a| > 1 obstruction.
    """
    a1, a2 = complex(a1), complex(a2)
    if ctx.lattice_distance(a1 + a2) < 1e-9:
        raise ValueError("a1 + a2 = 0 is a limit case, not handled directly")
    p1, p2 = wp(ctx, a1), wp(ctx, a2)
    g2_condition = ctx.g2 - 4.0 * (p1 * p1 + p1 * p2 + p2 * p2)
    eps, eps_label, eps_residuals = _select_epsilon(ctx, a1, a2)
    q1 = -((eps - eps**2) * p1 + (eps - 1.0) * p2) / 3.0
    q2 = -((eps**2 - eps) * p1 + (eps**2 - 1.0) * p2) / 3.0
    q1q2_identity = abs(q1 * q2 - ctx.g2 / 12.0)
    A = np.array([[ctx.eta1, ctx.omega1], [ctx.eta3, ctx.omega3]], dtype=complex)
    B = np.linalg.solve(A, np.conj(A))
    a_, b_ = B[0, 0], B[0, 1]
    d_ = B[1, 1]
    degeneracy = -np.conj(a_) - a_ * b_ * b_ * q1 * q2 + a_ * d_ * d_
    return Torus3Report(ctx=ctx, a1=a1, a2=a2,
                        g2_condition=complex(g2_condition),
                        degeneracy=complex(degeneracy),
                        abs_a=float(abs(a_)),
                        q1q2_identity=float(q1q2_identity),
                        epsilon=complex(eps), epsilon_label=eps_label,
                        epsilon_residuals={k: float(v) for k, v in eps_residuals.items()})


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
    s1: SpinorSection
    s2: SpinorSection
    residuals: dict

    def report(self):
        from .reportio import jsonify
        return jsonify({
            "omega1": self.ctx.omega1, "omega3": self.ctx.omega3,
            "choice": self.choice,
            "ends": self.ends.points,
            "periods_closed": self.periods_closed,
            "x_squares": self.x_squares,
            "x": self.x,
            "branch_condition": self.branch_condition,
            "residuals": self.residuals,
        })


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
# reduced tau.  At 7 the period checks hold (period1 1.8e-8 against its 1e-7
# gate, period_diag_rel 7e-8); at 8 both fail, at 13 a period rounds to 0,
# and from about 20 the quadrature stops converging.
TORUS4_MAX_IM_TAU = 7.0


def torus4_construct(ctx: EllipticContext, choice=(1, 2, 3)) -> TorusFourEnd:
    """Four-ended twisted torus at ends {0, w1, w2, w3}.

    Builds the diagonalizing t-hat basis, evaluates the periods
    P_k^{ii} = -8 (eta_k + w_k e_i) (off-diagonal zero) with a quadrature
    cross-check, solves the period equations for (x_i^2, x_j^2), and
    evaluates the branch-point necessary condition
    (e_k - e_i) x_i^2 - (e_k - e_j) x_j^2 (nonzero for an immersion).
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
    residuals = {"omega_zero": float(np.max(np.abs(form.matrix.entries)))}
    K = extract_K(form, 1e-9)
    if len(K) != 3:
        raise ConstructionError(f"torus4 kernel has dimension {len(K)}, expected 3")
    that = [section_combination(np.concatenate([[0.0], TORUS4_MIX[m]]), tw, f"that{m + 1}")
            for m in range(3)]

    A = np.array([[ctx.eta1, ctx.omega1], [ctx.eta3, ctx.omega3]], dtype=complex)
    B = np.linalg.solve(A, np.conj(A))
    rhs = B @ np.array([1.0, np.conj(ctx.e(k))])
    M2 = np.array([[1.0, 1.0], [ctx.e(i), ctx.e(j)]], dtype=complex)
    xi2, xj2 = np.linalg.solve(M2, rhs)
    x_i, x_j = _principal_root(xi2), _principal_root(xj2)
    branch = (ctx.e(k) - ctx.e(i)) * xi2 - (ctx.e(k) - ctx.e(j)) * xj2

    coeff = x_i * TORUS4_MIX[i - 1] + x_j * TORUS4_MIX[j - 1]
    s1 = section_combination(np.concatenate([[0.0], coeff]), tw, "s1")
    s2 = that[k - 1]

    # one period matrix per cycle on (that1, that2, that3, s1); s2 = that_k
    periods_closed, periods_quad = {}, {}
    worst_diag, worst_off, period1_res = 0.0, 0.0, 0.0
    for kk, eta_k, w_k in ((1, ctx.eta1, ctx.omega1), (3, ctx.eta3, ctx.omega3)):
        M = period_matrix(that + [s1], _torus_cycle(ctx, kk))
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
    residuals["period_offdiag"] = worst_off
    residuals["period1"] = period1_res
    residuals["planar_ends"] = bool(planar_ends(s1, s2).all())
    return TorusFourEnd(ctx=ctx, choice=tuple(choice), ends=divisor,
                        K_basis=tuple(that),
                        periods_closed=periods_closed, periods_quadrature=periods_quad,
                        x_squares=(complex(xi2), complex(xj2)),
                        x=(complex(x_i), complex(x_j)),
                        branch_condition=complex(branch),
                        s1=s1, s2=s2, residuals=residuals)


# ---------------------------------------------------------------------------
# the Klein bottle
# ---------------------------------------------------------------------------

KLEIN_M = -2.0 * (1.0 - 4.0 * np.sqrt(2.0) * 1j) / 3.0


def square_context_e1_normalized() -> EllipticContext:
    """Square lattice scaled so that wp(w1) = 1 (then e2 = 0, e3 = -1)."""
    base = build_context(1.0, 1.0j)
    lam = np.sqrt(base.e1)
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
    roots = poly_roots(ComplexPolynomial((1.0, 0.0, KLEIN_M, 0.0, 1.0)))
    fourth = [z for z in roots if z.real > 0 and z.imag < 0]
    if len(fourth) != 1:
        raise RuntimeError("expected exactly one fourth-quadrant root")
    return fourth[0]


def _locate_a(ctx: EllipticContext, r: complex) -> complex:
    """Point a with wp(a) = r on the anti-invariant locus I(a) = -a.

    That locus is the vertical line Re(u) = w1/2 (mod lattice); a coarse
    scan seeds a one-real-parameter Gauss-Newton iteration.
    """
    w1 = ctx.omega1.real
    h3 = ctx.omega3.imag
    ys = np.linspace(0.03, 0.97, 600) * h3
    us = w1 / 2.0 + 1j * ys
    y = ys[int(np.argmin(np.abs(wp(ctx, us) - r)))]
    for _ in range(100):
        u = w1 / 2.0 + 1j * y
        f = wp(ctx, u) - r
        d = 1j * wp_prime(ctx, u)
        step = (np.conj(d) * f).real / abs(d) ** 2
        y -= step
        if abs(step) < 1e-16 * h3:
            break
    a = w1 / 2.0 + 1j * y
    if abs(wp(ctx, a) - r) > 1e-10 * max(1.0, abs(r)):
        raise RuntimeError("failed to locate the end point a with wp(a) = r")
    return a


@dataclass(frozen=True)
class KleinFourEnd:
    ctx: EllipticContext
    r: complex
    a: complex
    ends: EndDivisor
    W: np.ndarray
    form: OmegaForm
    sections: tuple  # (s1hat, s2hat, s3hat, s4hat)
    period_coeffs: tuple  # (A, B, C)
    solution: tuple  # (x1, x2)
    s1: SpinorSection
    s2: SpinorSection
    residuals: dict

    def report(self):
        from .reportio import jsonify
        return jsonify({
            "r": self.r, "a": self.a,
            "ends": self.ends.points,
            "W": self.W,
            "period_coeffs": self.period_coeffs,
            "solution": self.solution,
            "residuals": self.residuals,
        })


def _klein_table3(ctx, r, a):
    """The eight ends with their published wp / wp' values and I-pairing."""
    w2 = ctx.omega1 + ctx.omega3
    rp = wp_prime(ctx, a)
    half = [a, a + w2, -1j * a, -1j * a + w2]
    wp_vals = [r, -1.0 / r, -r, 1.0 / r]
    wpp_vals = [rp, rp / r**2, -1j * rp, -1j * rp / r**2]
    ends8 = half + [-u for u in half]
    wp8 = wp_vals + wp_vals
    wpp8 = wpp_vals + [-v for v in wpp_vals]
    return half, ends8, wp8, wpp8


def klein4_construct(tol: float = 1e-8) -> KleinFourEnd:
    """The amphichiral minimal Klein bottle with four planar ends.

    Steps: normalize the square lattice to e1 = 1; take the
    fourth-quadrant root r of r^4 + m r^2 + 1; place a on the I(a) = -a
    locus with wp(a) = r and lay out the eight ends; build the paired
    basis and check rank(Omega) = 4 and the W block; assemble the kernel
    sections s-hat (the deck conjugates live on the wp'-type half of the
    basis); solve the single period equation with the closed-form A, B, C
    and cross-check every identity by quadrature.  Whether the pair is
    unbranched is surface.branch_points's question (acceptance 9g).
    """
    ctx = square_context_e1_normalized()
    r = klein_fourth_quadrant_root()
    a = _locate_a(ctx, r)
    residuals = {}
    half, ends8, wp8, wpp8 = _klein_table3(ctx, r, a)
    u8 = np.array(ends8)
    wp_ends = wp(ctx, u8)
    residuals["table3"] = float(max(np.max(np.abs(wp_ends - wp8)),
                                    np.max(np.abs(wp_prime(ctx, u8) - wpp8))))
    I = lambda u: np.conj(u) + ctx.omega1
    residuals["deck_pairing"] = float(np.max(
        ctx.lattice_distance(I(u8) - u8[[4, 5, 3, 2, 0, 1, 7, 6]])))

    basis = basis_F_torus_untwisted_paired(ctx, 2, half)
    form = omega_matrix(basis)
    rank, _ = skew_rank_kernel(form.matrix, tol, scale=form.alpha_scale)
    if rank != 4:
        raise ConstructionError(f"rank Omega = {rank}, expected 4 at the quartic root")
    W_num = -2.0 * form.matrix.entries[:4, 4:]
    residuals["W_match"] = float(np.max(np.abs(W_num - klein_W(r))))

    c1 = np.array([2 * (r**2 - 1) ** 2, (r**2 + 1) * (r**2 - 3),
                   (r**2 + 1) * (3 * r**2 - 1), -2 * (r**2 - 1) ** 2], dtype=complex)
    c2 = np.array([(r**2 + 1) * (3 * r**2 - 1), -2 * (r**2 - 1) ** 2,
                   2 * (r**2 - 1) ** 2, (r**2 + 1) * (r**2 - 3)], dtype=complex)
    s1h = section_combination(np.concatenate([c1, np.zeros(4)]), basis, "s1hat")
    s2h = section_combination(np.concatenate([c2, np.zeros(4)]), basis, "s2hat")

    # deck conjugates i conj(I* s): on the wp'-type half, with the
    # wp-value classes permuted (3 <-> 4) by conjugation
    pbar = [np.conj(p) for p in (r, -1 / r, -r, 1 / r)]
    def deck_coefficients(cc):
        d = [1j * np.conj(c) / (2.0 * (1.0 - pb)) for c, pb in zip(cc, pbar)]
        v = np.zeros(8, dtype=complex)
        v[4], v[5], v[7], v[6] = d[0], d[1], d[2], d[3]
        return v
    s3h = section_combination(deck_coefficients(c1), basis, "s3hat")
    s4h = section_combination(deck_coefficients(c2), basis, "s4hat")
    kernel_res = max(
        float(np.linalg.norm(form.matrix.entries @ np.asarray(s.coefficients))
              / np.linalg.norm(s.coefficients))
        for s in (s1h, s2h, s3h, s4h))
    residuals["kernel"] = kernel_res / form.alpha_scale

    rng = np.random.default_rng(17)
    pts = (rng.uniform(0.04, 0.96, 50) * 2 * ctx.omega1
           + rng.uniform(0.04, 0.96, 50) * 2 * ctx.omega3)
    lhs = section_values((s3h, s4h), pts)
    pull = wp_prime(ctx, pts) / (2.0 * (wp(ctx, pts) + 1.0))
    rhs = 1j * np.conj(section_values((s1h, s2h), I(pts))) * pull
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
    (q11, q12), (_, q22) = period_matrix(
        (s1, s2), QuadraturePath.segment(-ctx.omega1, ctx.omega1, samples=128))
    scale = sum(abs(x) for x in (P11, P12, P22)) * max(abs(x1), 1.0) ** 2
    residuals["gamma1_s1sq_quadrature"] = float(abs(q11) / scale)
    residuals["gamma1_s1s2_quadrature"] = float(abs(q12) / scale)
    residuals["gamma1_conj_pair"] = float(abs(q11 - np.conj(q22)) / scale)
    (g11, g12), (_, g22) = period_matrix(
        (s1, s2), QuadraturePath.segment(-ctx.omega3, ctx.omega3, samples=128))
    residuals["gamma3_auto"] = float(
        max(abs(g11 - np.conj(g22)), abs(g12.real)) / scale)

    # numeric A, B, C from the 8-end principal parts of s1hat^2 (factor 2
    # vs printed): its wp sum and its constant
    prim = form_primitive(((s1h, s1h),))
    A_num, B_num = -2.0 * np.sum(prim.c), 2.0 * prim.poly[0, 0]
    residuals["ABC_ratio"] = float(max(abs(A_num / A - 2.0), abs(B_num / B - 2.0)))
    return KleinFourEnd(ctx=ctx, r=r, a=a, ends=form.divisor, W=W_num, form=form,
                        sections=(s1h, s2h, s3h, s4h),
                        period_coeffs=(complex(A), complex(B), complex(C)),
                        solution=(complex(x1), complex(x2)),
                        s1=s1, s2=s2, residuals=residuals)

