"""Spinor sections, the spaces F/H/K, the skew form Omega, and the spin cover.

A section is (basis, coefficients): a coefficient vector on the rows of
one Basis.  Each family of F has one basis kernel: phi/(z - a_i) and phi
on the sphere; one zeta-difference form zeta(u - a_i) - zeta(u) + c_i
(with an optional constant row) on the twisted and untwisted tori;
wp_r/(wp_r - p_i) and wp'/(wp_r - p_i) for paired untwisted ends; and
N/D rows for rational sphere sections.  A kernel evaluates only the rows
some coefficient uses, from one theta frame on all their shifts, and adds
each row into every section it evaluates.  A linear combination is a
coefficient sum.  The Laurent data of a basis is one (rows, ends, 2)
table T of (alpha_-1, alpha_0); a section's table is its coefficients
contracted with T.  Omega, its residue-sum check, the K test and the
log-end residues and pole coefficients of form_primitive all contract
the stacked tables of the sections they read: Omega(s_i, s_j) is
einsum('ik,jk->ij', A_0, A_-1), antisymmetrized.  The periods int s t are
bilinear too: period_matrix gives int s_i s_j along a path for every pair
of sections on one basis from one quadrature, each node evaluating the
basis rows once.  For pairs whose forms s t have no residues,
form_primitive gives the primitive of s t in closed form (see FormPrimitive).

Rows are chart functions f = s/phi_dom, where phi_dom is the family's
reference spinor: phi^2 = dz on the sphere, phi0^2 = du on the twisted
torus, phi_r^2 = du/wp_r(u) on the untwisted tori.  Per-end
Laurent data (alpha_-1, alpha_0) is stored in an honest local chart at
each end, i.e. one whose coordinate differential is the square of the
local reference spinor.  For the untwisted tori phi_r is not a square
root of du, so the raw coefficients (beta_-1, beta_0) of f in u convert
by the chart weight mu = 1/wp_r:

    alpha_-1 = mu(p) * beta_-1,
    alpha_0  = beta_0 + beta_-1 * mu'(p) / (2 mu(p)).

With that normalization Omega(s, t) = sum_p alpha_0(s) alpha_-1(t) agrees
with the coordinate-free quadratic-residue definition (checked against
the contour-integral oracle), is skew, and reproduces the printed sphere
and twisted-torus matrices verbatim.

The infinity end of the sphere uses the chart w = 1/z with phi = (i/w)
phi_w, the sign fixed once globally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as P

from . import elliptic
from .elliptic import EllipticContext, wp, wp_prime, wp_second, zeta
from .numkit import QuadraturePath, SkewMatrix, contour_integral, skew_rank_kernel

__all__ = [
    "INF",
    "is_infinity",
    "EndDivisor",
    "SphereDomain",
    "TwistedTorusDomain",
    "UntwistedTorusDomain",
    "Basis",
    "SpinorSection",
    "OmegaForm",
    "SectionDataError",
    "sigma_map",
    "spin_cover",
    "omega_pair",
    "omega_qres_oracle",
    "basis_F_sphere",
    "basis_F_torus_twisted",
    "basis_F_torus_untwisted",
    "basis_F_torus_untwisted_paired",
    "omega_matrix",
    "extract_K",
    "planar_ends",
    "section_combination",
    "section_values",
    "period_matrix",
    "FormPrimitive",
    "form_primitive",
    "rational_sphere_basis",
    "evaluation_matrix",
    "verify_laurent_consistency",
]

INF = complex(math.inf, 0.0)


def is_infinity(p) -> bool:
    return math.isinf(complex(p).real) or math.isinf(complex(p).imag)


class SectionDataError(ValueError):
    """Inconsistent section data (residue sum, kernel shape, shared basis)."""


@dataclass(frozen=True)
class EndDivisor:
    """Divisor of distinct marked points; INF is an explicit sphere end."""

    points: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        finite = [p for p in pts if not is_infinity(p)]
        if sum(1 for p in pts if is_infinity(p)) > 1:
            raise ValueError("at most one end at infinity")
        if len(finite) >= 2:
            scale = max(1.0, max(abs(p) for p in finite))
            for i in range(len(finite)):
                for j in range(i + 1, len(finite)):
                    if abs(finite[i] - finite[j]) < 1e-12 * scale:
                        raise ValueError("ends must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)


class _DomainBase:
    ends: EndDivisor

    def form_weight(self, u):
        """mu(u) in s t = f g mu du: 1 except on the untwisted tori."""
        return 1.0

    def chart_singularities(self):
        """Chart points where the form weight is singular and the forms
        are regular: none, except 0 and omega_r on the untwisted tori."""
        return []

    def singular_points(self):
        """The finite ends and the chart singularities, which qres contours avoid."""
        return [p for p in self.ends.points if not is_infinity(p)] + self.chart_singularities()

    def distance(self, p, q):
        """Chart distance; elementwise when p is an array."""
        return abs(p - q)

    def qres_radius(self, p) -> float:
        if is_infinity(p):
            ws = [abs(1.0 / q) for q in self.singular_points() if q != 0]
            return 0.25 * min(ws) if ws else 0.5
        ds = self.distance(p, np.array(self.singular_points(), dtype=complex))
        ds = ds[ds > 1e-12]
        return 0.25 * float(np.min(ds)) if ds.size else 0.5

    @cached_property
    def qres_radii(self) -> np.ndarray:
        """qres_radius of each end, in the order of the ends, once per domain."""
        return np.array([self.qres_radius(p) for p in self.ends.points])


@dataclass(frozen=True)
class SphereDomain(_DomainBase):
    """Riemann sphere, unique spin structure, chart z with phi^2 = dz."""

    ends: EndDivisor
    genus = 0
    h_dim = 0


class _TorusDomain(_DomainBase):
    """A torus chart u modulo the lattice of ctx."""

    def distance(self, p, q):
        return self.ctx.lattice_distance(p - q)

    def qres_radius(self, p) -> float:
        # the distances leave out p itself, and with it its translates p +- b1
        return min(super().qres_radius(p), 0.25 * abs(self.ctx.lattice.reduced_periods[0]))


@dataclass(frozen=True)
class TwistedTorusDomain(_TorusDomain):
    """Torus with spin structure du (Arf -1); phi0^2 = du."""

    ends: EndDivisor
    ctx: EllipticContext
    genus = 1
    h_dim = 1


@dataclass(frozen=True)
class UntwistedTorusDomain(_TorusDomain):
    """Torus with spin structure (wp - e_r) du; phi_r^2 = du / wp_r(u)."""

    ends: EndDivisor
    ctx: EllipticContext
    r: int
    genus = 1
    h_dim = 0

    def wp_r(self, u):
        return wp(self.ctx, u) - self.ctx.e(self.r)

    def form_weight(self, u):
        return 1.0 / self.wp_r(u)

    def chart_singularities(self):
        return [0.0, self.ctx.half_period(self.r)]


@dataclass(eq=False)
class Basis:
    """Rows of one family spanning F (or some limit sections) over a domain.

    laurent is the complex (rows, ends, 2) table T, T[j, k] = (alpha_-1,
    alpha_0) of row j at the k-th end, or None for rows outside F.  A family
    adds its row data and _rows(active, u, derivative), which yields
    (j, f_j(u), f_j'(u) or None) for each active j.
    """

    domain: _DomainBase
    labels: tuple
    laurent: Optional[np.ndarray]

    def members(self):
        """The basis sections: unit coefficient rows."""
        return [self.section(row, label)
                for row, label in zip(np.eye(len(self.labels), dtype=complex), self.labels)]

    def section(self, coefficients, label):
        """sum_j coefficients[j] * row j."""
        return SpinorSection(self, tuple(complex(x) for x in np.asarray(coefficients, complex)),
                             label)

    def table(self, coefficients):
        """Laurent tables sum_j C[i, j] T[j] of the sections with coefficient
        rows C, shape (rows of C, ends, 2)."""
        if self.laurent is None:
            raise SectionDataError("the basis rows carry no Laurent data")
        C = np.asarray(coefficients, dtype=complex).reshape(-1, len(self.labels))
        return np.sum(C[:, :, None, None] * self.laurent, axis=1)

    def evaluate(self, coefficients, u, derivative=False):
        """Sections with the given coefficient rows at u, shape (rows,) + u.shape;
        (values, derivatives) when derivative is set.

        Basis rows are evaluated one at a time, and only where some
        coefficient is nonzero, then added into each section.
        """
        C = np.asarray(coefficients, dtype=complex).reshape(-1, len(self.labels))
        u = np.asarray(u, dtype=complex)
        out = np.zeros((2 if derivative else 1, len(C), u.size), dtype=complex)
        for j, *jet in self._rows(np.flatnonzero(C.any(axis=0)), u.reshape(-1), derivative):
            for k in np.flatnonzero(C[:, j]):
                for acc, f in zip(out, jet):
                    acc[k] += C[k, j] * f
        out = out.reshape(out.shape[:2] + u.shape)
        return (out[0], out[1]) if derivative else out[0]

    def _polynomial_part(self, pairs):
        """Ascending coefficients, shape (degree + 1, pairs), of the polynomial
        part of f g for each pair; None on a torus, where it is a constant
        that form_primitive fixes at a probe point."""
        return None


@dataclass(eq=False)
class _SphereBasis(Basis):
    """phi/(z - a_i) for the finite ends a_i, then phi."""

    poles: list

    def _rows(self, active, z, derivative):
        for j in active:
            if j == len(self.poles):
                yield j, 1.0, 0.0
                continue
            d = z - self.poles[j]
            yield j, 1.0 / d, (-1.0 / d**2 if derivative else None)

    def _polynomial_part(self, pairs):
        n = len(self.poles)
        return np.array([[s.coefficients[n] * t.coefficients[n] for s, t in pairs]])


@dataclass(eq=False)
class _ZetaBasis(Basis):
    """(zeta(u - a_i) - zeta(u) + c_i) phi_dom, after an optional constant row.

    One theta frame on u and u - a_i for every active shift gives zeta, and
    wp when the derivative is asked, for all rows.  A shift of None marks
    the constant row, row 0.
    """

    shifts: list
    constants: list

    def _rows(self, active, u, derivative):
        shifted = [j for j in active if self.shifts[j] is not None]
        if len(shifted) < len(active):
            yield 0, 1.0, 0.0
        if not shifted:
            return
        frame = elliptic._theta_frame(self.domain.ctx, np.concatenate(
            [u] + [u - self.shifts[j] for j in shifted]))
        zeta_s = frame.zeta().reshape(-1, u.size)
        wp_s = frame.wp().reshape(-1, u.size) if derivative else None
        for i, j in enumerate(shifted, 1):
            yield j, zeta_s[i] - zeta_s[0] + self.constants[j], \
                (wp_s[0] - wp_s[i] if derivative else None)


@dataclass(eq=False)
class _PairedBasis(Basis):
    """wp_r/(wp_r - p_i) phi_r, then wp'/(wp_r - p_i) phi_r, from one frame."""

    pvals: list

    def _rows(self, active, u, derivative):
        if not active.size:
            return
        ctx = self.domain.ctx
        frame = elliptic._theta_frame(ctx, u)
        p, dp = frame.wp(), frame.wp_prime()
        del frame  # the rows need none of its theta arrays
        pr = p - ctx.e(self.domain.r)
        m = len(self.pvals)
        for j in active:
            p_i = self.pvals[j % m]
            den = pr - p_i
            if j < m:
                yield j, pr / den, (-p_i * dp / den**2 if derivative else None)
            else:
                ddp = 6.0 * p * p - ctx.g2 / 2.0 if derivative else None
                yield j, dp / den, ((ddp * den - dp * dp) / den**2 if derivative else None)


@dataclass(eq=False)
class _RationalBasis(Basis):
    """Rows (N_j(z)/D_j(z)) phi on the sphere, ascending coefficient arrays."""

    fractions: list

    def _rows(self, active, z, derivative):
        for j in active:
            numer, denom = self.fractions[j]
            D = P.polyval(z, denom)
            N = P.polyval(z, numer)
            yield j, N / D, ((P.polyval(z, P.polyder(numer)) * D
                              - N * P.polyval(z, P.polyder(denom))) / D**2
                             if derivative else None)

    def _polynomial_part(self, pairs):
        """Sum over the rows i, j of each pair of the quotients of N_i N_j by D_i D_j."""
        out = np.zeros((1, len(pairs)), dtype=complex)
        for k, (s, t) in enumerate(pairs):
            for (i, a), (j, b) in itertools.product(enumerate(s.coefficients),
                                                    enumerate(t.coefficients)):
                (ni, di), (nj, dj) = self.fractions[i], self.fractions[j]
                q = a * b * P.polydiv(P.polymul(ni, nj), P.polymul(di, dj))[0]
                out = np.pad(out, ((0, max(0, len(q) - len(out))), (0, 0)))
                out[:len(q), k] += q
        return out


@dataclass(frozen=True, eq=False)
class SpinorSection:
    """The section sum_j coefficients[j] * (row j of basis).

    evaluate/derivative act on the chart function f = s/phi_dom; its
    Laurent data is derived from the basis table (see expansions).
    """

    basis: Basis
    coefficients: tuple
    label: str

    @property
    def domain(self):
        return self.basis.domain

    @property
    def expansions(self):
        """(ends, 2) array of (alpha_-1, alpha_0) at each end in its honest
        local chart (see module docstring), from the basis table; None outside F."""
        return None if self.basis.laurent is None else self.basis.table(self.coefficients)[0]

    def evaluate(self, u):
        return self.basis.evaluate([self.coefficients], u)[0]

    def derivative(self, u):
        return self.basis.evaluate([self.coefficients], u, derivative=True)[1][0]

    def __call__(self, u):
        return self.evaluate(u)


def _shared_basis(sections) -> Basis:
    basis = sections[0].basis
    if any(s.basis is not basis for s in sections):
        raise SectionDataError("sections must share a basis")
    return basis


def _end_sizes(tables):
    """|alpha_-1| + |alpha_0| at each end, by hypot, as abs() rounds; the
    alpha scales of pairs, sums of their products, size Omega and residues."""
    return np.hypot(tables.real, tables.imag).sum(axis=-1)


def section_values(sections, u, derivative=False):
    """Sections on one basis evaluated in one pass: shape (len(sections),) +
    u.shape, and (values, derivatives) when derivative is set."""
    return _shared_basis(sections).evaluate([s.coefficients for s in sections], u, derivative)


def period_matrix(sections, path: QuadraturePath, rel_tol=1e-10) -> np.ndarray:
    """Symmetric M[i, j] = int s_i s_j = int f_i f_j mu du along the path for
    sections on one basis: one quadrature of the upper triangle gives all."""
    dom = _shared_basis(sections).domain
    i, j = np.triu_indices(len(sections))

    def integrand(u):
        f = section_values(sections, u)
        return f[i] * f[j] * dom.form_weight(u)
    M = np.zeros((len(sections), len(sections)), dtype=complex)
    M[i, j] = M[j, i] = contour_integral(integrand, path, rel_tol=rel_tol)
    return M


# relative end residue above which a pair has a log end; the mesh gate
# holds smaller residues to 1e-6
LOG_END_TOL = 1e-4


@dataclass(frozen=True)
class FormPrimitive:
    """Closed-form primitives of residue-free 1-forms s t, one row per pair.

    With c[p, k] = alpha_-1(s, k) alpha_-1(t, k) / mu(a_k) at the finite
    ends a_k, pair p's form is (P_p(u) + sum_k c[p, k] W(u - a_k)) du and
    its primitive Phi_p(u) = (int P_p)(u) - sum_k c[p, k] Z(u - a_k), with
    (Z, W) = (zeta, wp) on a torus and (1/z, 1/z^2) on the sphere.  The
    columns of poly hold the ascending coefficients of the P_p.
    """

    domain: _DomainBase
    ends: tuple
    poly: np.ndarray
    c: np.ndarray
    end_residue_max: float

    def evaluate(self, u):
        """(Phi, form, size) at u, each of shape (pairs,) + u.shape, from one
        theta frame on u - a_k for all ends on a torus; size = |P| +
        sum_k |c_k W(u - a_k)| sets the scale of the form's rounding error."""
        u = np.asarray(u, dtype=complex)
        d = u - np.array(self.ends, dtype=complex).reshape((-1,) + (1,) * u.ndim)
        if self.domain.genus == 1:
            frame = elliptic._theta_frame(self.domain.ctx, d.ravel())
            Z, W = frame.zeta().reshape(d.shape), frame.wp().reshape(d.shape)
        else:
            Z = 1.0 / d
            W = Z * Z
        # the few ends summed in their order, point by point, so a point's
        # bits do not depend on the other points of the call
        shape = (len(self.c),) + u.shape
        cZ, cW, size = np.zeros(shape, complex), np.zeros(shape, complex), np.zeros(shape)
        for c, z, w in zip(self.c.T.reshape(self.c.T.shape + (1,) * u.ndim), Z, W):
            cZ += c * z
            cW += c * w
            size += np.abs(c) * np.abs(w)
        poly = P.polyval(u, self.poly)
        return P.polyval(u, P.polyint(self.poly)) - cZ, poly + cW, np.abs(poly) + size


def form_primitive(pairs) -> FormPrimitive:
    """FormPrimitive of the forms s t for pairs (s, t) on one basis.

    A residue above LOG_END_TOL of the pair's alpha scale is a log end,
    which the closed form does not cover: SectionDataError names the end.
    On a torus P_p is a constant: f g mu minus the wp sum at the one of
    7 x 7 lattice fractions farthest from the chart's singular points.
    """
    basis = _shared_basis([x for pair in pairs for x in pair])
    dom = basis.domain
    tables = basis.table([[x.coefficients for x in pair] for pair in pairs]).reshape(
        len(pairs), 2, dom.ends.n, 2)
    s, t = tables[:, 0], tables[:, 1]
    # res_k(s t) = alpha_-1(s) alpha_0(t) + alpha_0(s) alpha_-1(t), relative
    # to the pair's alpha scale
    res = np.einsum("pkl,pkl->pk", s, t[..., ::-1])
    scale = np.einsum("pk,pk->p", _end_sizes(s), _end_sizes(t))
    res = np.hypot(res.real, res.imag) / np.maximum(scale, 1e-30)[:, None]
    if np.any(res > LOG_END_TOL):
        p, k = np.unravel_index(np.argmax(res), res.shape)
        raise SectionDataError(f"the 1-form {pairs[p][0].label} {pairs[p][1].label} has residue "
                               f"{res[p, k]:.2e} at the end {dom.ends.points[k]}: a log end")
    finite = [k for k, p in enumerate(dom.ends.points) if not is_infinity(p)]
    ends = tuple(dom.ends.points[k] for k in finite)
    # einsum rounds as the scalar product does
    c = np.einsum("pk,pk->pk", s[:, finite, 0], t[:, finite, 0]) \
        / dom.form_weight(np.array(ends, complex))
    poly = basis._polynomial_part(pairs)
    prim = FormPrimitive(dom, ends, np.zeros((1, len(pairs))) if poly is None else poly, c,
                         float(res.max(initial=0.0)))
    if poly is None:
        frac = (np.arange(7) + 0.5) / 7
        grid = (frac[:, None] * 2 * dom.ctx.omega1 + frac * 2 * dom.ctx.omega3).ravel()
        u0 = grid[np.argmax(np.min([dom.distance(grid, q) for q in dom.singular_points()], 0))]
        fg = np.array([np.prod(section_values(pair, u0)) for pair in pairs]) * dom.form_weight(u0)
        prim = replace(prim, poly=(fg - prim.evaluate(u0)[1])[None, :])
    return prim


@dataclass(frozen=True)
class OmegaForm:
    """Matrix of Omega on the members of one basis of F; kernel vectors are
    coefficients on that basis, and the known H subspace is spanned by its
    leading h_dim members (phi0 on the twisted torus).

    alpha_scale is the natural magnitude Omega entries would have for this
    basis; rank decisions measure against it so that an Omega that is pure
    rounding noise is recognized as the zero form.
    """

    matrix: SkewMatrix
    basis: tuple
    alpha_scale: float = 1.0

    @property
    def divisor(self) -> EndDivisor:
        return self.basis[0].domain.ends

    @property
    def h_dim(self) -> int:
        return self.basis[0].domain.h_dim


def sigma_map(z1, z2):
    """Null vector (z1^2 - z2^2, i(z1^2 + z2^2), 2 z1 z2)."""
    z1, z2 = complex(z1), complex(z2)
    return (z1 * z1 - z2 * z2, 1j * (z1 * z1 + z2 * z2), 2.0 * z1 * z2)


_PAULI = (
    np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [-1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _adjugate2(a):
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=complex)


def spin_cover(a):
    """Factor the induced action on C^3 as (det A) * R with R in SO(3, C).

    C^3 is identified with trace-free 2x2 matrices; the action is
    X -> A X A' with A' the classical adjoint, which covers the linear
    conformal group two-to-one (A and -A act identically).
    """
    a = np.asarray(a, dtype=complex)
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if det == 0:
        raise ValueError("spin_cover requires det A != 0")
    y = np.array([a @ x @ _adjugate2(a) for x in _PAULI])
    t = np.array([-(y[:, 0, 1] + y[:, 1, 0]) / 2.0, (y[:, 0, 1] - y[:, 1, 0]) / 2j, y[:, 0, 0]])
    return complex(det), t / det


def _omega_table(tables):
    """Raw M[i, j] = sum over ends of alpha_0(s_i) alpha_-1(s_j) and alpha
    scales S[i, j] of stacked tables.  Off the diagonal M + M^T holds the
    residue sums of the forms s_i s_j: above 1e-8 S the data is inconsistent."""
    M = np.einsum("ik,jk->ij", tables[..., 1], tables[..., 0])
    B = _end_sizes(tables)
    S = np.einsum("ik,jk->ij", B, B)
    res_sum = np.abs(M + M.T)
    np.fill_diagonal(res_sum, 0.0)
    bad = res_sum > 1e-8 * S
    if bad.any():
        raise SectionDataError(f"residue sum {res_sum[bad][0]:.2e} over ends is not zero")
    return M, S


def omega_pair(s: SpinorSection, t: SpinorSection):
    """Omega(s, t) = sum over ends of alpha_0(s) alpha_-1(t), for sections on
    one basis: the two-section case of omega_matrix's contraction, before
    antisymmetrizing, with the same residue-sum check."""
    return _omega_table(_shared_basis((s, t)).table([s.coefficients, t.coefficients]))[0][0, 1]


def omega_qres_oracle(s: SpinorSection, t: SpinorSection, rel_tol: float = 1e-9):
    """-1/2 sum_p qres_p(s dt - t ds) by small-circle contour quadrature.

    Independent of the Laurent tables: uses only the evaluators.  In the
    domain chart the Hopf integrand is mu(u) (f g' - g f')(u), and
    qres_p = (1/2 pi i) * integral of (u - p) times that around p, on the
    circle u = p + r e^(2 pi i x), r = qres_radius(p): the integral over x
    in [0, 1) of the periodic lead (f g' - g f'), lead = (u - p)^2 mu, and
    u^2 at infinity, where the chart is 1/u = r e^(2 pi i x).  One trapezoid
    on the stack of all the ends' circles, its rows summed, gives sum_p
    qres_p; its floor is the L1 of |lead| (|f g'| + |g f'|).  Swapping s
    and t negates every product, so the oracle is skew to the bit.
    """
    _shared_basis((s, t))
    dom = s.domain
    ends = np.array(dom.ends.points, dtype=complex)
    at_inf = np.isinf(ends)
    center, radius = np.where(at_inf, 0.0, ends)[:, None], dom.qres_radii[:, None]

    def integrand(x):
        du = radius * np.exp(2j * np.pi * x)
        u = center + du
        u[at_inf] = 1.0 / du[at_inf]
        (f, g), (df, dg) = section_values((s, t), u, derivative=True)
        lead = du * du * dom.form_weight(u)
        lead[at_inf] = u[at_inf] ** 2
        return (np.sum(lead * (f * dg - g * df), axis=0),
                np.sum(np.abs(lead) * (np.abs(f * dg) + np.abs(g * df)), axis=0))
    return -0.5 * contour_integral(integrand, QuadraturePath.period(0.0, 1.0, samples=64),
                                   rel_tol=rel_tol)


def planar_ends(s1: SpinorSection, s2: SpinorSection, tol: float = 1e-8) -> np.ndarray:
    """One bool per end, in divisor order: True where the pair has an
    embedded planar end (Lemma ends).

    alpha_0 of both sections vanishes and at least one has a pole;
    equivalently res of s1^2, s1 s2, s2^2 all vanish with a pole present.
    Both are measured against the largest |alpha| of the pair at the end.
    """
    mags = np.abs(_shared_basis((s1, s2)).table([s1.coefficients, s2.coefficients])).max(axis=0)
    bound = tol * np.maximum(mags.max(axis=1), 1e-30)
    return (mags[:, 0] > bound) & (mags[:, 1] <= bound)


def section_combination(coefficients, sections, label="combo"):
    """Linear combination of sections on one basis: the coefficient sum."""
    c = np.asarray(coefficients, dtype=complex)
    rows = np.array([s.coefficients for s in sections])
    return _shared_basis(sections).section(np.sum(c[:, None] * rows, axis=0), label)


# ---------------------------------------------------------------------------
# bases of F
# ---------------------------------------------------------------------------

def basis_F_sphere(divisor: EndDivisor):
    """{phi/(z - a_1), ..., phi/(z - a_{n-1}), phi} on the sphere.

    The divisor must contain infinity; it is moved to the last slot.
    alpha-data at infinity comes from the w = 1/z chart: each phi/(z-a)
    has (0, i) there and phi itself has (i, 0).
    """
    pts = list(divisor.points)
    inf_idx = [k for k, p in enumerate(pts) if is_infinity(p)]
    if not inf_idx:
        raise ValueError("sphere basis requires an end at infinity")
    finite = [p for p in pts if not is_infinity(p)]
    divisor = EndDivisor(tuple(finite) + (INF,))
    laurent = np.array([[(1.0, 0.0) if j == i else (0.0, 1.0 / (b - a))
                         for j, b in enumerate(finite)] + [(0.0, 1j)]
                        for i, a in enumerate(finite)]
                       + [[(0.0, 1.0)] * len(finite) + [(1j, 0.0)]], dtype=complex)
    labels = [f"phi/(z-a{i + 1})" for i in range(len(finite))] + ["phi"]
    return _SphereBasis(SphereDomain(ends=divisor), labels, laurent, finite).members()


def basis_F_torus_twisted(ctx: EllipticContext, divisor: EndDivisor):
    """{phi0, t_1, ..., t_{n-1}} with t_i = (zeta(u-a_i) - zeta(u) + zeta(a_i)) phi0.

    The divisor must contain 0; remaining ends must be off-lattice.
    H = C phi0 for this spin structure.
    """
    pts = list(divisor.points)
    if any(is_infinity(p) for p in pts):
        raise ValueError("twisted ends must be finite")
    zero_idx = [k for k, p in enumerate(pts) if ctx.lattice_distance(p) < 1e-10]
    if len(zero_idx) != 1:
        raise ValueError("twisted basis requires exactly one end on the lattice (at 0)")
    others = [p for k, p in enumerate(pts) if k != zero_idx[0]]
    for p in others:
        if ctx.lattice_distance(p) < 1e-9:
            raise ValueError("nonzero ends must be off-lattice")
    divisor = EndDivisor((0.0,) + tuple(others))
    constants, shifted = _zeta_table(ctx, others, others)
    laurent = np.array([[(0.0, 1.0)] * divisor.n] + [
        [(-1.0, 0.0)] + [(1.0, 0.0) if j == i else (0.0, shifted[i, j] - zeta_b + c)
                         for j, zeta_b in enumerate(constants)]
        for i, c in enumerate(constants)], dtype=complex)
    labels = ["phi0"] + [f"t{i + 1}" for i in range(len(others))]
    return _ZetaBasis(TwistedTorusDomain(ends=divisor, ctx=ctx), labels, laurent,
                      [None] + others, [0.0] + constants).members()


def basis_F_torus_untwisted(ctx: EllipticContext, r: int, divisor: EndDivisor):
    """t_i = (zeta(u-a_i) - zeta(u) - zeta(w_r - a_i) + zeta(w_r)) phi_r.

    Ends must avoid 0 and w_r mod the lattice.  In the honest charts the
    pole data of t_i at a_i is (1/wp_r(a_i), 0); values at the other ends
    pick up no chart correction.
    """
    wr = ctx.half_period(r)
    for p in divisor.points:
        if is_infinity(p) or ctx.lattice_distance(p) < 1e-9 \
                or ctx.lattice_distance(p - wr) < 1e-9:
            raise ValueError("untwisted ends must be finite and avoid 0 and omega_r (mod lattice)")
    dom = UntwistedTorusDomain(ends=divisor, ctx=ctx, r=r)
    ends = list(divisor.points)
    n = len(ends)
    zeta_at, shifted = _zeta_table(ctx, [wr] + [wr - a for a in ends] + ends, ends)
    constants = [-z + zeta_at[0] for z in zeta_at[1:n + 1]]
    wp_r = _checked_wp_r(r, ends, dom.wp_r(np.array(ends, dtype=complex)))
    laurent = np.array([[(1.0 / complex(wp_r[i]), 0.0) if j == i
                         else (0.0, shifted[i, j] - zeta_b + c)
                         for j, zeta_b in enumerate(zeta_at[n + 1:])]
                        for i, c in enumerate(constants)], dtype=complex)
    labels = [f"t{i + 1}" for i in range(n)]
    return _ZetaBasis(dom, labels, laurent, ends, constants).members()


def _checked_wp_r(r, ends, values):
    """values, wp(a) - e_r at the ends a.  The ends have passed the distance
    check against omega_r, so an exact 0 means e_r rounded onto another root
    of the cubic: the lattice is too thin for double precision."""
    for a, v in zip(ends, values):
        if v == 0:
            raise elliptic.DegenerateLatticeError(
                f"wp(a) = e{r} at the end a = {a}: e{r} rounds onto another root, "
                "the lattice is too thin for double precision")
    return values


def _zeta_table(ctx: EllipticContext, points, ends):
    """zeta at each of points, as a list of complex, and the matrix
    Z[i, j] = zeta(ends[j] - ends[i]) off the diagonal, from one array call
    (values bitwise equal to scalar calls, which the frames guarantee)."""
    a = np.array(ends, dtype=complex)
    off = ~np.eye(len(ends), dtype=bool)
    values = zeta(ctx, np.concatenate([np.array(points, dtype=complex),
                                       (a[None, :] - a[:, None])[off]]))
    shifted = np.zeros((len(ends), len(ends)), dtype=complex)
    shifted[off] = values[len(points):]
    return [complex(v) for v in values[:len(points)]], shifted


def basis_F_torus_untwisted_paired(ctx: EllipticContext, r: int, half_points):
    """Paired-end basis t-hat for ends {a_i} u {-a_i}.

    t-hat_i = wp_r/(wp_r - p_i) phi_r and t-hat_{m+i} = wp'/(wp_r - p_i) phi_r,
    with p_i = wp_r(a_i).  Omega in this basis is block off-diagonal; the
    textbook W matrix equals -2 times the upper block.
    """
    half_points = [complex(a) for a in half_points]
    m = len(half_points)
    wr = ctx.half_period(r)
    ends = tuple(half_points) + tuple(-a for a in half_points)
    divisor = EndDivisor(ends)
    for p in ends:
        if ctx.lattice_distance(p) < 1e-9 or ctx.lattice_distance(p - wr) < 1e-9:
            raise ValueError("untwisted ends must avoid 0 and omega_r (mod lattice)")
    er = ctx.e(r)
    pvals = _checked_wp_r(r, half_points, [wp(ctx, a) - er for a in half_points])
    dpvals = [wp_prime(ctx, a) for a in half_points]
    ddvals = [wp_second(ctx, a) for a in half_points]
    # poles at a_i and -a_i (ends i and m + i); values elsewhere
    laurent = []
    for i, (p_i, dp_i, dd_i) in enumerate(zip(pvals, dpvals, ddvals)):
        a0 = 0.5 - p_i * dd_i / (2.0 * dp_i**2)
        laurent.append(tuple((1.0 / dp_i, a0) if j == i else (-1.0 / dp_i, a0) if j == m + i
                             else (0.0j, p_j / (p_j - p_i)) for j, p_j in enumerate(pvals * 2)))
    for i, (p_i, dp_i, dd_i) in enumerate(zip(pvals, dpvals, ddvals)):
        a0 = dd_i / (2.0 * dp_i) - dp_i / (2.0 * p_i)
        laurent.append(tuple(
            (1.0 / p_i, a0) if j == i else (1.0 / p_i, -a0) if j == m + i
            else (0.0j, (1.0 if j < m else -1.0) * dp_j / (p_j - p_i))
            for j, (p_j, dp_j) in enumerate(zip(pvals * 2, dpvals * 2))))
    labels = [f"that{i + 1}" for i in range(2 * m)]
    return _PairedBasis(UntwistedTorusDomain(ends=divisor, ctx=ctx, r=r), labels,
                        np.array(laurent, dtype=complex), pvals).members()


def rational_sphere_basis(dom: SphereDomain, fractions, labels, laurent=True):
    """Sections (N_j(z)/D_j(z)) phi, one per (numer, denom) pair of ascending
    coefficients, with analytically derived Laurent data.

    Poles of N/D must lie among the finite ends; the expansion at
    infinity comes from the w = 1/z chart series of i f(1/w)/w.  With
    laurent=False the rows need not lie in F and carry no Laurent table.
    """
    fractions = [(np.atleast_1d(np.asarray(n, dtype=complex)),
                  np.atleast_1d(np.asarray(d, dtype=complex))) for n, d in fractions]
    table = np.array([_rational_laurent(dom, n, d) for n, d in fractions],
                     dtype=complex) if laurent else None
    return _RationalBasis(dom, labels, table, fractions).members()


def _rational_laurent(dom: SphereDomain, numer, denom):
    """(alpha_-1, alpha_0) of (N/D) phi at each end of the domain."""
    dn = P.polyder(numer)
    exps = []
    scale_d = max(np.abs(denom))
    for p0 in dom.ends.points:
        if is_infinity(p0):
            exps.append(_rational_infinity_alpha(numer, denom))
            continue
        if abs(P.polyval(p0, denom)) < 1e-8 * scale_d * max(1.0, abs(p0)) ** len(denom):
            quot, rem = P.polydiv(denom, np.array([-p0, 1.0], dtype=complex))
            e_val = P.polyval(p0, quot)
            am1 = P.polyval(p0, numer) / e_val
            de = P.polyder(quot)
            a0 = (P.polyval(p0, dn) * e_val - P.polyval(p0, numer) * P.polyval(p0, de)) / e_val**2
            exps.append((complex(am1), complex(a0)))
        else:
            exps.append((0.0j, complex(P.polyval(p0, numer) / P.polyval(p0, denom))))
    return tuple(exps)


def _rational_infinity_alpha(numer, denom):
    """(alpha_-1, alpha_0) at infinity of (N/D) phi in the w-chart."""
    dn = len(numer) - 1
    dd = len(denom) - 1
    k = dd - dn
    if k < 0:
        raise ValueError("section has a higher-order pole at infinity")
    rev_n = numer[::-1]
    rev_d = denom[::-1]
    # first two series coefficients of revN/revD at w = 0
    q0 = rev_n[0] / rev_d[0]
    q1 = ((rev_n[1] if dn >= 1 else 0.0) - q0 * (rev_d[1] if dd >= 1 else 0.0)) / rev_d[0]
    if k == 0:
        return (1j * q0, 1j * q1)
    if k == 1:
        return (0.0j, 1j * q0)
    return (0.0j, 0.0j)


def omega_matrix(basis) -> OmegaForm:
    """Omega on sections of one basis, their tables contracted and
    antisymmetrized; alpha_scale is the largest off-diagonal alpha scale."""
    M, S = _omega_table(_shared_basis(basis).table([s.coefficients for s in basis]))
    np.fill_diagonal(S, 0.0)
    scale = max(float(S.max()), 1e-30) if len(basis) > 1 else 1.0
    return OmegaForm(matrix=SkewMatrix.antisymmetrize(M), basis=tuple(basis), alpha_scale=scale)


def extract_K(form: OmegaForm, tol: float = 1e-9):
    """Kernel of Omega with the known H subspace projected out.

    Returned sections are normalized (first nonzero coefficient = 1) and
    each is verified to satisfy the K test: alpha_0 vanishes at every end.
    """
    rank, kernel = skew_rank_kernel(form.matrix, tol, scale=form.alpha_scale)
    if len(kernel) < form.h_dim:
        raise SectionDataError(
            f"kernel dimension {len(kernel)} below h_dim {form.h_dim}")
    if kernel:
        # project out H (the leading h_dim coordinates); rows of vh span
        # the row space of the stacked projected vectors
        stack = np.array(kernel, dtype=complex)
        stack[:, :form.h_dim] = 0.0
        u, s, vh = np.linalg.svd(stack)
        keep = [vh[i, :] for i in range(len(s)) if s[i] > 1e-8 * max(s[0], 1e-30)]
    else:
        keep = []
    expected = len(kernel) - form.h_dim
    if len(keep) != expected:
        raise SectionDataError(
            f"K dimension {len(keep)} does not match kernel {len(kernel)} minus h_dim {form.h_dim}")
    basis = form.basis[0].basis
    V = np.array([v / v[np.argmax(np.abs(v) > 1e-8 * np.abs(v).max())] for v in keep],
                 dtype=complex).reshape(-1, len(basis.labels))
    mags = np.abs(basis.table(V))
    a0_max, am1_max = mags[..., 1].max(axis=1), mags[..., 0].max(axis=1)
    failed = a0_max > max(tol * 100, 1e-6) * np.maximum(am1_max, 1.0)
    if failed.any():
        raise SectionDataError(
            f"extracted kernel vector fails the K test (alpha0 max {a0_max[failed][0]:.2e})")
    return [basis.section(v, f"K{idx + 1}") for idx, v in enumerate(V)]


def evaluation_matrix(sections, probes):
    """Matrix of section chart values at probe points (independence checks)."""
    return section_values(sections, np.asarray(probes, dtype=complex)).T


def verify_laurent_consistency(section: SpinorSection, rtol: float = 1e-6):
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
