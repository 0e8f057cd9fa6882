"""Spinor sections, the spaces F/H/K and the skew form Omega.

A section is (basis, coefficients): a coefficient vector on the rows of
one Basis.  Each family of F has one basis kernel: phi/(z - a_i) and phi
on the sphere; one zeta-difference form zeta(u - a_i) - zeta(u) + c_i
(with an optional constant row) on the twisted and untwisted tori;
wp_r/(wp_r - p_i) and wp'/(wp_r - p_i) for paired untwisted ends, whose
table is the untwisted one in another basis; and the monomials z^j phi
on the sphere without ends, Enneper's rows.  A section (N/D) phi of F is a
coefficient vector on the sphere rows (_SphereBasis.fraction).
A kernel evaluates only the rows some coefficient uses, and adds each
row into every section it evaluates.  On a torus the rows
read a theta frame on u and their shifts u - a_i; a caller that also
needs the chart weight or a primitive at the same points takes one frame
for all of them (chart_points) and passes that in place of u.  Both torus
builders check their ends in one lattice distance call (_torus_end_check),
and an untwisted build takes one theta frame.  A linear combination is a
coefficient sum.  The Laurent data of a basis is one
(rows, ends, 2) table T of (alpha_-1, alpha_0); a section's table is its
coefficients contracted with T.  Omega, its residue-sum check, the K test and the
log-end residues and pole coefficients of form_primitive all contract
the stacked tables of the sections they read: Omega(s_i, s_j) is
einsum('ik,jk->ij', A_0, A_-1), antisymmetrized.  The periods int s t are
bilinear too: period_matrix gives int s_i s_j along a path for every pair
of sections on one basis from one quadrature, each node evaluating the
basis rows once.  For pairs whose forms s t have no residues,
form_primitive gives the primitive of s t in closed form (see FormPrimitive).

Every decision reads magnitudes in the unit chart u / s, those in u times
exact powers of two (_DomainBase): scaling u by 4^k changes none.

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

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np
from numpy.polynomial import polynomial as P

from . import elliptic
from .elliptic import EllipticContext
from .numkit import (RANK_TOL, QuadraturePath, SkewMatrix, chart_exponent, contour_integral,
                     scale_parts, skew_rank_kernel)

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
    "sigma_quadratic",
    "omega_pair",
    "omega_qres_matrix",
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
    "chart_points",
    "period_matrix",
    "FormPrimitive",
    "form_primitive",
    "polynomial_sphere_basis",
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
    # numkit.chart_exponent of the finite ends' median modulus, 0 if none
    chart_exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(map(complex, self.points))
        a = np.array(pts, dtype=complex)
        if np.isinf(a).sum() > 1:
            raise ValueError("at most one end at infinity")
        a = a[~np.isinf(a)]
        # |a_i - a_j| and |a_i| by hypot, as abs() of a Python complex rounds
        d = np.hypot((a[:, None] - a).real, (a[:, None] - a).imag)
        np.fill_diagonal(d, np.inf)
        r = sorted(np.hypot(a.real, a.imag).tolist()) or [0.0]
        m = chart_exponent((r[(len(r) - 1) // 2] + r[len(r) // 2]) / 2)
        if (d < 1e-12 * max(4.0 ** m, r[-1])).any():
            raise ValueError("ends must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "chart_exponent", m)

    @property
    def n(self) -> int:
        return len(self.points)


class _Points:
    """Chart points u and, on a torus, one theta frame on u - s for each shift
    s that its readers name, equal shifts once, in the order named; s = 0
    gives u itself.  The frame is taken on those rows laid end to end.  Its
    readers, the basis rows, the chart weight and the closed-form
    primitive, each take their own rows as a (shifts, points) array.  A
    frame's bits do not depend on its batch, so each reads bitwise what a
    frame of its own would give."""

    def __init__(self, dom, u, shifts):
        u = np.asarray(u, dtype=complex)
        self.shape, self.u = u.shape, u.reshape(-1)
        self._row = {s: k for k, s in enumerate(dict.fromkeys(map(complex, shifts)))}
        if self._row and getattr(dom, "ctx", None) is not None:
            self._frame = elliptic._theta_frame(
                dom.ctx, (self.u - np.array(list(self._row), dtype=complex)[:, None]).ravel())

    def _finish(self, name, shifts):
        """Frame method name on the rows of shifts: one slice when they are
        consecutive rows, else row by row, so no row is a copy."""
        k, n = [self._row[s] for s in shifts], self.u.size
        method = getattr(self._frame, name)
        if k == list(range(k[0], k[0] + len(k))):
            return method(slice(k[0] * n, (k[0] + len(k)) * n)).reshape(len(k), n)
        return np.stack([method(slice(i * n, (i + 1) * n)) for i in k])

    def zeta(self, shifts):
        return self._finish("zeta", shifts)

    def wp(self, shifts):
        return self._finish("wp", shifts)

    def wp_prime(self, shifts):
        return self._finish("wp_prime", shifts)


def _points(dom, u, shifts) -> _Points:
    """u when it is already a _Points (its frame must hold the shifts), else
    u with a frame of its own on the shifts."""
    return u if isinstance(u, _Points) else _Points(dom, u, shifts)


class _DomainBase:
    """Decisions read the unit chart u / s, s = 4^chart_exponent of the
    lattice or the ends.  Under u -> s u, (alpha_-1, alpha_0) have weights
    (e, -e) at a finite end and (-e, e) at infinity, e = end_weight."""

    ends: EndDivisor
    # the shifts whose frame rows form_weight reads
    weight_shifts = ()
    end_weight = 0.5

    @property
    def chart_exponent(self) -> int:
        return self.ctx.lattice.chart_exponent if self.genus else self.ends.chart_exponent

    @cached_property
    def column_factors(self) -> np.ndarray:
        """(ends, 2) exact powers of two s^-w that take each alpha, of weight
        w, to the unit chart."""
        w = np.array([[1, -1] if is_infinity(p) else [-1, 1] for p in self.ends.points])
        w = 2 * self.chart_exponent * self.end_weight * w.reshape(-1, 2)
        return np.ldexp(1.0, w.astype(int))

    def unit_sizes(self, tables):
        """|alpha_-1| and |alpha_0| of (..., ends, 2) tables in the unit chart,
        by hypot, as abs() rounds: the magnitudes every decision reads."""
        return np.hypot(tables.real, tables.imag) * self.column_factors

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
        ds = ds[ds > 1e-12 * 4.0 ** self.chart_exponent]
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
    weight_shifts = (0j,)
    end_weight = 1.5  # the honest chart d(u - a) / wp_r(a) has weight 3

    def wp_r(self, u):
        """wp(u) - e_r, shaped as u: the one place e_r is subtracted; the
        weight and the paired rows read it from the frame row of u itself."""
        at = _points(self, u, self.weight_shifts)
        w = at.wp(self.weight_shifts)[0]
        w -= self.ctx.e(self.r)
        return w.reshape(at.shape)

    def form_weight(self, u):
        w = self.wp_r(u)
        # in place on a block: one array for the weight, as for wp_r
        return 1.0 / complex(w) if w.ndim == 0 else np.divide(1.0, w, out=w)

    def chart_singularities(self):
        return [0.0, self.ctx.half_period(self.r)]


@dataclass(eq=False)
class Basis:
    """Rows of one family spanning F (or some limit sections) over a domain.

    laurent is the complex (rows, ends, 2) table T, T[j, k] = (alpha_-1,
    alpha_0) of row j at the k-th end; on a domain without ends it is
    empty.  weights holds the half-integer w_j with row j on the divisor
    times s equal to s^w_j times row j.  A family adds its
    row data, _shifts(active), the frame shifts its active rows read, and
    _rows(active, at, derivative), which yields (j, f_j(u), f_j'(u) or
    None) for each active j at the flat points of the _Points at.
    """

    domain: _DomainBase
    labels: tuple
    laurent: np.ndarray
    weights: np.ndarray

    def members(self):
        """The basis sections: unit coefficient rows."""
        return [self.section(row, label)
                for row, label in zip(np.eye(len(self.labels), dtype=complex), self.labels)]

    @cached_property
    def qres_matrix(self) -> np.ndarray:
        """omega_qres_matrix of the members, once per basis and read-only: the
        bilinear oracle reads every pair of sections on the basis from it.  A
        NonConvergenceError is not kept, so each later read runs the whole
        quadrature again."""
        W = omega_qres_matrix(self.members())
        W.flags.writeable = False
        return W

    def section(self, coefficients, label):
        """sum_j coefficients[j] * row j."""
        return SpinorSection(self, tuple(complex(x) for x in np.asarray(coefficients, complex)),
                             label)

    def table(self, coefficients):
        """Laurent tables sum_j C[i, j] T[j] of the sections with coefficient
        rows C, shape (rows of C, ends, 2)."""
        C = np.asarray(coefficients, dtype=complex).reshape(-1, len(self.labels))
        return np.sum(C[:, :, None, None] * self.laurent, axis=1)

    @property
    def row_factors(self) -> np.ndarray:
        """s^-w_j: they take the rows to those of the unit chart."""
        return np.ldexp(1.0, (-2 * self.domain.chart_exponent * self.weights).astype(int))

    def evaluate(self, coefficients, u, derivative=False):
        """Sections with the given coefficient rows at u, shape (rows,) + u.shape;
        (values, derivatives) when derivative is set.

        Basis rows are evaluated one at a time, and only where some
        coefficient is nonzero, then added into each section.
        """
        C = np.asarray(coefficients, dtype=complex).reshape(-1, len(self.labels))
        active = np.flatnonzero(C.any(axis=0))
        at = _points(self.domain, u, self._shifts(active))
        out = np.zeros((2 if derivative else 1, len(C), at.u.size), dtype=complex)
        for j, *jet in self._rows(active, at, derivative):
            for k in np.flatnonzero(C[:, j]):
                for acc, f in zip(out, jet):
                    acc[k] += C[k, j] * f
        out = out.reshape(out.shape[:2] + at.shape)
        return (out[0], out[1]) if derivative else out[0]

    def _shifts(self, active):
        return ()

    def _polynomial_part(self, pairs):
        """Ascending coefficients, shape (degree + 1, pairs), of the polynomial
        part of f g for each pair; None on a torus, where it is a constant
        that form_primitive fixes at a probe point."""
        return None


@dataclass(eq=False)
class _SphereBasis(Basis):
    """phi/(z - a_i) for the finite ends a_i, then phi."""

    poles: list

    def _rows(self, active, at, derivative):
        z = at.u
        for j in active:
            if j == len(self.poles):
                yield j, 1.0, 0.0
                continue
            d = z - self.poles[j]
            yield j, 1.0 / d, (-1.0 / d**2 if derivative else None)

    def _polynomial_part(self, pairs):
        n = len(self.poles)
        return np.array([[s.coefficients[n] * t.coefficients[n] for s, t in pairs]])

    def fraction(self, numer, denom, label):
        """The section (N/D) phi, N and D ascending, D written over the finite
        ends: N(a_i)/D'(a_i) on phi/(z - a_i) and the leading ratio of N/D at
        infinity on phi.  No pole test: ValueError when deg D is not the
        number of finite ends, or deg N exceeds it."""
        numer, denom = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (numer, denom))
        n, a = len(self.poles), np.array(self.poles, dtype=complex)
        if len(denom) != n + 1 or denom[n] == 0 or len(numer) > n + 1:
            raise ValueError(f"(N/D) phi in F on {n} finite ends needs deg N <= deg D = {n}")
        lead = numer[n] / denom[n] if len(numer) > n else 0.0
        return self.section(np.append(P.polyval(a, numer) / P.polyval(a, P.polyder(denom)), lead),
                            label)


@dataclass(eq=False)
class _ZetaBasis(Basis):
    """(zeta(u - a_i) - zeta(u) + c_i) phi_dom, after an optional constant row.

    The rows read zeta, and wp when the derivative is asked, on the frame
    rows of u and of u - a_i for every active shift.  A shift of None marks
    the constant row, row 0.
    """

    shifts: list
    constants: list

    def _shifts(self, active):
        shifted = [self.shifts[j] for j in active if self.shifts[j] is not None]
        return (0j, *shifted) if shifted else ()

    def _rows(self, active, at, derivative):
        shifted = [j for j in active if self.shifts[j] is not None]
        if len(shifted) < len(active):
            yield 0, 1.0, 0.0
        if not shifted:
            return
        shifts = self._shifts(shifted)
        zeta_s = at.zeta(shifts)
        wp_s = at.wp(shifts) if derivative else None
        for i, j in enumerate(shifted, 1):
            yield j, zeta_s[i] - zeta_s[0] + self.constants[j], \
                (wp_s[0] - wp_s[i] if derivative else None)


@dataclass(eq=False)
class _PairedBasis(Basis):
    """wp_r/(wp_r - p_i) phi_r, then wp'/(wp_r - p_i) phi_r, on the frame row
    of u: wp_r as the chart weight reads it, and wp'.  Within about 1e-12
    of an end +-a_i, where wp_r(u) - p_i ~ wp'(u) (u -+ a_i) vanishes, the
    rows raise PoleEvaluationError, as the zeta rows do next to their ends."""

    pvals: list

    def _shifts(self, active):
        return (0j,) if len(active) else ()

    def _rows(self, active, at, derivative):
        if not active.size:
            return
        dom = self.domain
        pr = dom.wp_r(at).reshape(-1)
        dp = at.wp_prime((0j,))[0]
        if derivative:
            p = at.wp((0j,))[0]
            ddp = 6.0 * p * p - dom.ctx.g2 / 2.0
        near = dom.ctx.lattice.pole_tolerance * np.abs(dp)
        m = len(self.pvals)
        for j in active:
            p_i = self.pvals[j % m]
            den = pr - p_i
            pole = np.abs(den) <= near
            if pole.any():
                u = at.u[np.argmax(pole)]
                raise elliptic.PoleEvaluationError(
                    f"paired row {self.labels[j]} at u = {u}: wp_r(u) = wp_r(a{j % m + 1}), "
                    "u is within 1e-12 of an end")
            if j < m:
                yield j, pr / den, (-p_i * dp / den**2 if derivative else None)
            else:
                yield j, dp / den, ((ddp * den - dp * dp) / den**2 if derivative else None)


@dataclass(eq=False)
class _PolynomialBasis(Basis):
    """Rows z^j phi, j = 0 .. degree, on the sphere without ends."""

    def _rows(self, active, at, derivative):
        z = at.u
        for j in active:
            yield j, z**j, ((j * z**(j - 1) if j else 0.0) if derivative else None)

    def _polynomial_part(self, pairs):
        """f g of each pair: the product of its coefficient polynomials."""
        return np.array([np.convolve(s.coefficients, t.coefficients) for s, t in pairs]).T


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
        local chart (see module docstring), from the basis table."""
        return self.basis.table(self.coefficients)[0]

    def evaluate(self, u):
        return self.basis.evaluate([self.coefficients], u)[0]

    def derivative(self, u):
        return self.basis.evaluate([self.coefficients], u, derivative=True)[1][0]


def _shared_basis(sections) -> Basis:
    basis = sections[0].basis
    if any(s.basis is not basis for s in sections):
        raise SectionDataError("sections must share a basis")
    return basis


def section_values(sections, u, derivative=False):
    """Sections on one basis evaluated in one pass: shape (len(sections),) +
    u.shape, and (values, derivatives) when derivative is set.  u may come
    from chart_points of these sections."""
    return _shared_basis(sections).evaluate([s.coefficients for s in sections], u, derivative)


def chart_points(sections, primitive=None):
    """The function u -> u with one theta frame, on a torus, for everything
    that reads it: section_values of the sections, the chart weight
    form_weight and, when given, the primitive's evaluate.  Pass its value
    to them in place of u.  The shifts are found once, for every u."""
    basis = _shared_basis(sections)
    active = [j for j, column in enumerate(zip(*(s.coefficients for s in sections))) if any(column)]
    ends = () if primitive is None else primitive.ends
    return partial(_Points, basis.domain,
                   shifts=basis._shifts(active) + basis.domain.weight_shifts + ends)


def period_matrix(sections, path: QuadraturePath, rel_tol=1e-10) -> np.ndarray:
    """Symmetric M[i, j] = int s_i s_j = int f_i f_j mu du along the path for
    sections on one basis: one quadrature of the upper triangle gives all."""
    dom = _shared_basis(sections).domain
    i, j = np.triu_indices(len(sections))
    points = chart_points(sections)

    def integrand(u):
        at = points(u)
        f = section_values(sections, at)
        return f[i] * f[j] * dom.form_weight(at)
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
        """(Phi, form, size) at u, each of shape (pairs,) + u.shape; on a torus
        from the frame rows of u - a_k for all ends (u may come from
        chart_points with this primitive); size = |P| + sum_k |c_k W(u - a_k)| sets the
        scale of the form's rounding error."""
        at = _points(self.domain, u, self.ends)
        u, shape = at.u, (len(self.c), at.u.size)
        # the ends summed in their order into the arrays returned, so a
        # point's bits are its own, one end's Z and W at a time (read from
        # the frame on a torus) through one product buffer.  By tracemalloc
        # on 8,193 points this peaks at 1.6 MiB on sphere-4 and 1.9 MiB on
        # torus-4, against 3.2 and 2.7 MiB with all ends' 1/(u - a) at once
        # and whole temporaries; with the mesh's other stages in place too,
        # mesh-sphere's peak RSS fell by about 3 MB (it rose when one end at
        # a time was all that changed)
        cZ, cW, size = np.zeros(shape, complex), np.zeros(shape, complex), np.zeros(shape)
        product = np.empty(shape, complex)
        for a, c in zip(self.ends, self.c.T[..., None]):
            if self.domain.genus:
                z, w = at.zeta((a,))[0], at.wp((a,))[0]
            else:
                z = np.subtract(u, a)
                np.divide(1.0, z, out=z)
                w = z * z
            cZ += np.multiply(c, z, out=product)
            cW += np.multiply(c, w, out=product)
            size += np.multiply(np.abs(c), np.abs(w), out=product.real)
            del z, w
        np.subtract(_polyval(u, P.polyint(self.poly), product), cZ, out=cZ)
        np.add(_polyval(u, self.poly, product), cW, out=cW)
        size += np.abs(product)
        return tuple(x.reshape((len(self.c),) + at.shape) for x in (cZ, cW, size))


def _polyval(u, coefficients, out):
    """P.polyval(u, coefficients) for (degree + 1, pairs) coefficients,
    bitwise, by the same Horner steps written into out, (pairs, u.size)."""
    np.multiply(u, 0, out=out)
    out += coefficients[-1][:, None]
    for c in coefficients[-2::-1]:
        out *= u
        out += c[:, None]
    return out


def form_primitive(pairs) -> FormPrimitive:
    """FormPrimitive of the forms s t for pairs (s, t) on one basis.

    A residue above LOG_END_TOL of the pair's alpha scale is a log end,
    which the closed form does not cover: SectionDataError names the end,
    as it does a NaN residue.
    On a torus P_p is a constant: f g mu minus the wp sum at the one of
    7 x 7 lattice fractions farthest from the chart's singular points.
    """
    basis = _shared_basis([x for pair in pairs for x in pair])
    dom = basis.domain
    tables = basis.table([[x.coefficients for x in pair] for pair in pairs]).reshape(
        len(pairs), 2, dom.ends.n, 2)
    s, t = tables[:, 0], tables[:, 1]
    # res_k(s t) = alpha_-1(s) alpha_0(t) + alpha_0(s) alpha_-1(t), the same
    # in every chart, relative to the pair's alpha scale in the unit chart
    res = np.einsum("pkl,pkl->pk", s, t[..., ::-1])
    size = dom.unit_sizes(tables).sum(axis=-1)
    scale = np.einsum("pk,pk->p", size[:, 0], size[:, 1])
    res = np.hypot(res.real, res.imag) / np.maximum(scale, 1e-30)[:, None]
    if not np.all(res <= LOG_END_TOL):
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
        u0 = grid[np.argmax(np.min(dom.distance(grid, np.c_[dom.singular_points()]), 0))]
        at = chart_points([x for pair in pairs for x in pair], prim)(u0)
        fg = np.array([np.prod(section_values(pair, at)) for pair in pairs]) * dom.form_weight(at)
        prim = replace(prim, poly=(fg - prim.evaluate(at)[1])[None, :])
    return prim


@dataclass(frozen=True)
class OmegaForm:
    """Matrix of Omega on the members of one basis of F; kernel vectors are
    coefficients on that basis, and the known H subspace is spanned by its
    leading h_dim members (phi0 on the twisted torus).  Its rank is read
    in the unit chart (rank_kernel).
    """

    matrix: SkewMatrix
    basis: tuple

    @property
    def divisor(self) -> EndDivisor:
        return self.basis[0].domain.ends

    @property
    def h_dim(self) -> int:
        return self.basis[0].domain.h_dim

    def rank_kernel(self):
        """skew_rank_kernel of Omega_n = D Omega D, D the row_factors: the
        Omega of the unit-chart rows.  Its entries at most RANK_TOL times
        their pair's alpha scale (_omega_table) are rounding, set to 0, so an
        Omega of rounding alone has rank 0.  Kernel vectors are on the
        unit-chart rows."""
        rows = self.basis[0].basis
        d = rows.row_factors
        sizes = rows.domain.unit_sizes(rows.laurent).sum(axis=-1) * d[:, None]
        omega = scale_parts(self.matrix.entries, np.outer(d, d))
        omega[np.abs(omega) <= RANK_TOL * np.einsum("ik,jk->ij", sizes, sizes)] = 0.0
        return skew_rank_kernel(SkewMatrix(omega))


def sigma_quadratic(q11, q22, q12):
    """(q11 - q22, i(q11 + q22), 2 q12) on products q_ij = z_i z_j or their periods."""
    return (q11 - q22, 1j * (q11 + q22), 2.0 * q12)


def sigma_map(z1, z2):
    """Null vector (z1^2 - z2^2, i(z1^2 + z2^2), 2 z1 z2), elementwise."""
    return sigma_quadratic(z1 * z1, z2 * z2, z1 * z2)


# a pair's residue sum over the ends above RESIDUE_SUM_TOL of its alpha scale
# is inconsistent data
RESIDUE_SUM_TOL = 1e-8


def _omega_table(basis, coefficients):
    """Raw M[i, j] = sum over ends of alpha_0(s_i) alpha_-1(s_j) of the
    sections with the coefficient rows.  Off the diagonal M + M^T holds the
    residue sums of the forms s_i s_j: above RESIDUE_SUM_TOL of the pair's
    alpha scale, the sum over ends of the products of their unit_sizes
    summed, or NaN, the data is inconsistent."""
    tables = basis.table(coefficients)
    M = np.einsum("ik,jk->ij", tables[..., 1], tables[..., 0])
    B = basis.domain.unit_sizes(tables).sum(axis=-1)
    res_sum = np.abs(M + M.T)
    bad = ~(res_sum <= RESIDUE_SUM_TOL * np.einsum("ik,jk->ij", B, B))
    np.fill_diagonal(bad, False)
    if bad.any():
        raise SectionDataError(f"residue sum {res_sum[bad][0]:.2e} over ends is not zero")
    return M


def omega_pair(s: SpinorSection, t: SpinorSection):
    """Omega(s, t) = sum over ends of alpha_0(s) alpha_-1(t), for sections on
    one basis: the two-section case of omega_matrix's contraction, before
    antisymmetrizing, with the same residue-sum check."""
    return _omega_table(_shared_basis((s, t)), [s.coefficients, t.coefficients])[0, 1]


def omega_qres_matrix(sections) -> np.ndarray:
    """W[i, j] = -1/2 sum_p qres_p(s_i ds_j - s_j ds_i) for sections on one
    basis, from the evaluators alone: the oracle of omega_matrix, and its one
    quadrature; Basis.qres_matrix keeps it for the members, and
    omega_qres_oracle reads every pair from that.  On the
    circle u = p + r e^(2 pi i x), r = qres_radius(p), qres_p of the Hopf
    integrand mu (f g' - g f') is the integral over x in [0, 1) of the
    periodic lead (f g' - g f'), lead = (u - p)^2 mu, and u^2 at infinity,
    where 1/u = r e^(2 pi i x).  One trapezoid on the stack of every end's
    circle, each node evaluating the sections once, sums every upper-triangle
    pair at one level, on the floor L1 of |lead| (|f g'| + |g f'|); W[j, i] = -W[i, j]."""
    dom = _shared_basis(sections).domain
    ends = np.array(dom.ends.points, dtype=complex)
    at_inf = np.isinf(ends)
    center, radius = np.where(at_inf, 0.0, ends)[:, None], dom.qres_radii[:, None]
    points, n = chart_points(sections), len(sections)
    i, j = np.triu_indices(n, 1)

    def integrand(x):
        du = radius * np.exp(2j * np.pi * x)
        u = center + du
        u[at_inf] = 1.0 / du[at_inf]
        at = points(u)
        f, df = section_values(sections, at, derivative=True)
        lead = du * du * dom.form_weight(at)
        lead[at_inf] = u[at_inf] ** 2
        fdg, gdf = f[i] * df[j], f[j] * df[i]
        return (np.sum(lead * (fdg - gdf), axis=1),
                np.sum(np.abs(lead) * (np.abs(fdg) + np.abs(gdf)), axis=1))
    W = np.zeros((n, n), dtype=complex)
    W[i, j] = -0.5 * contour_integral(integrand, QuadraturePath.period(0.0, 1.0, samples=64),
                                      rel_tol=1e-9)
    return W - W.T


def omega_qres_oracle(s: SpinorSection, t: SpinorSection):
    """The oracle on one pair, read bilinearly: a^T W b for the coefficient
    rows a, b of s, t and their basis's qres_matrix W, as Omega is bilinear,
    so every pair of one basis shares one quadrature.  For two members it is
    W[i, j] to the bit, save that an exactly zero part reads +0.0: Omega(s, s)
    is +0.0.  A pair raises NonConvergenceError when any pair of its basis
    does, after the whole basis's quadrature: on such a basis every call
    runs that quadrature to its node cap again.  It raises SectionDataError
    when s and t do not share a basis."""
    basis = _shared_basis((s, t))
    return np.asarray(s.coefficients) @ basis.qres_matrix @ np.asarray(t.coefficients)


# an |alpha| at most PLANAR_END_TOL of the pair's largest at an end is 0
PLANAR_END_TOL = 1e-8


def planar_ends(s1: SpinorSection, s2: SpinorSection) -> np.ndarray:
    """One bool per end, in divisor order: True where the pair has an
    embedded planar end (Lemma ends).

    alpha_0 of both sections vanishes and at least one has a pole;
    equivalently res of s1^2, s1 s2, s2^2 all vanish with a pole present.
    Both are measured in the unit chart, against PLANAR_END_TOL of the
    largest |alpha| of the pair at the end.
    """
    basis = _shared_basis((s1, s2))
    mags = basis.domain.unit_sizes(basis.table([s1.coefficients, s2.coefficients])).max(axis=0)
    bound = PLANAR_END_TOL * np.maximum(mags.max(axis=1), 1e-30)
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
    finite = [p for p in divisor.points if not is_infinity(p)]
    if len(finite) == divisor.n:
        raise ValueError("sphere basis requires an end at infinity")
    divisor = EndDivisor(tuple(finite) + (INF,))
    laurent = np.array([[(1.0, 0.0) if j == i else (0.0, 1.0 / (b - a))
                         for j, b in enumerate(finite)] + [(0.0, 1j)]
                        for i, a in enumerate(finite)]
                       + [[(0.0, 1.0)] * len(finite) + [(1j, 0.0)]], dtype=complex)
    labels = [f"phi/(z-a{i + 1})" for i in range(len(finite))] + ["phi"]
    weights = np.array([-0.5] * len(finite) + [0.5])
    return _SphereBasis(SphereDomain(ends=divisor), labels, laurent, weights, finite).members()


def _torus_end_check(ctx: EllipticContext, points, wr=None):
    """The ends the zeta table subtracts, all but the twisted end at 0 (wr
    None), after the torus bases' end checks, in one lattice_distance call
    on each end against 0 and wr = omega_r and on each pair of ends: one
    twisted end within 1e-10 s of the lattice, the others off 0 and wr by
    1e-9 s or the theta frame's pole tolerance, if larger, and apart by
    that tolerance, or ValueError names two; s is the chart scale, and the
    tolerance scales with the lattice too."""
    twisted = wr is None
    untwisted = "untwisted ends must be finite and avoid 0 and omega_r (mod lattice)"
    a, avoid = np.array(points, dtype=complex), np.array([0j] if twisted else [0j, wr])
    s = 4.0 ** ctx.lattice.chart_exponent
    if np.isinf(a).any():
        raise ValueError("twisted ends must be finite" if twisted else untwisted)
    i, j = np.triu_indices(a.size, 1)
    d = ctx.lattice_distance(np.concatenate([(a - avoid[:, None]).ravel(), a[j] - a[i]]))
    near, apart = d[:avoid.size * a.size].reshape(avoid.size, a.size), d[avoid.size * a.size:]
    other = ~(near[0] < 1e-10 * s) if twisted else np.ones(a.size, dtype=bool)
    if twisted and np.count_nonzero(~other) != 1:
        raise ValueError("twisted basis requires exactly one end on the lattice (at 0)")
    pole = ctx.lattice.pole_tolerance
    if (near[:, other] < max(1e-9 * s, pole)).any():
        raise ValueError("nonzero ends must be off-lattice" if twisted else untwisted)
    close = other[i] & other[j] & (apart < pole)
    if close.any():
        k = close.argmax()
        raise ValueError(f"the ends {points[i[k]]} and {points[j[k]]} are equal modulo the lattice")
    return a[other]


def _zeta_table(dom, points, n, constants):
    """(at, c, A): the _Points at of points, which end with the n ends a, and
    of a_j - a_i for i != j, whose one frame row the builders also read wp
    and wp' from; c = constants(zeta at points); and A[i, j], the alpha_0 of
    zeta(u - a_i) - zeta(u) + c_i at a_j: zeta(a_j - a_i) - zeta(a_j) + c_i, 0 at a_i."""
    points = np.asarray(points, dtype=complex)
    a, off = points[points.size - n:], ~np.eye(n, dtype=bool)
    at = _Points(dom, np.concatenate([points, (a[None, :] - a[:, None])[off]]), (0j,))
    values, shifted = at.zeta((0j,))[0], np.zeros(off.shape, dtype=complex)
    shifted[off] = values[points.size:]
    c = constants(values[:points.size])
    return at, c, np.where(off, shifted - values[points.size - n:points.size] + c[:, None], 0.0)


def basis_F_torus_twisted(ctx: EllipticContext, divisor: EndDivisor):
    """{phi0, t_1, ..., t_{n-1}} with t_i = (zeta(u-a_i) - zeta(u) + zeta(a_i)) phi0.

    The divisor must contain 0; remaining ends must be off-lattice (see
    _torus_end_check).  H = C phi0 for this spin structure.
    """
    others = _torus_end_check(ctx, divisor.points).tolist()
    m = len(others)
    dom = TwistedTorusDomain(ends=EndDivisor((0.0,) + tuple(others)), ctx=ctx)
    _, c, alpha0 = _zeta_table(dom, others, m, lambda z: z)
    laurent = np.zeros((m + 1, m + 1, 2), dtype=complex)
    laurent[0, :, 1], laurent[1:, 0, 0] = 1.0, -1.0
    laurent[1:, 1:] = np.stack([np.eye(m), alpha0], axis=-1)
    labels = ["phi0"] + [f"t{i + 1}" for i in range(m)]
    return _ZetaBasis(dom, labels, laurent, np.array([0.5] + [-0.5] * m), [None] + others,
                      [0.0] + c.tolist()).members()


def basis_F_torus_untwisted(ctx: EllipticContext, r: int, divisor: EndDivisor):
    """t_i = (zeta(u-a_i) - zeta(u) - zeta(w_r - a_i) + zeta(w_r)) phi_r.

    Ends must avoid 0 and w_r mod the lattice (see _torus_end_check).  In
    the honest charts the pole data of t_i at a_i is (1/wp_r(a_i), 0);
    values at the other ends pick up no chart correction.
    """
    return _untwisted_basis(ctx, r, divisor)[0].members()


def _untwisted_basis(ctx: EllipticContext, r: int, divisor: EndDivisor):
    """(basis, wp_r, wp'): the untwisted zeta basis, and wp_r, wp' at its ends, from one frame."""
    wr = ctx.half_period(r)
    a = _torus_end_check(ctx, divisor.points, wr)
    dom, ends = UntwistedTorusDomain(ends=divisor, ctx=ctx, r=r), slice(a.size + 1, 2 * a.size + 1)
    at, c, alpha0 = _zeta_table(dom, np.concatenate([[wr], wr - a, a]), a.size,
                                lambda z: -z[1:a.size + 1] + z[0])
    wp_r = dom.wp_r(at)[ends]
    if np.any(wp_r == 0):
        # the ends keep off omega_r: e_r rounded onto another root of the cubic
        raise elliptic.DegenerateLatticeError(
            f"wp(a) = e{r} at the end a = {divisor.points[np.argmax(wp_r == 0)]}: e{r} rounds "
            "onto another root, the lattice is too thin for double precision")
    # the pole data 1/wp_r by Python's complex division, whose rounding the tables keep
    laurent = np.stack([np.diag((1.0 / wp_r.astype(object)).astype(complex)), alpha0], axis=-1)
    basis = _ZetaBasis(dom, [f"t{i + 1}" for i in range(a.size)], laurent,
                       np.full(a.size, 0.5), list(divisor.points), c.tolist())
    return basis, wp_r, at.wp_prime((0j,))[0][ends]


def basis_F_torus_untwisted_paired(ctx: EllipticContext, r: int, half_points):
    """Paired-end basis t-hat for ends {a_i} u {-a_i}.

    t-hat_i = wp_r/(wp_r - p_i) phi_r and t-hat_{m+i} = wp'/(wp_r - p_i) phi_r,
    with p_i = wp_r(a_i).  Omega in this basis is block off-diagonal; the
    textbook W matrix equals -2 times the upper block.

    By the zeta addition theorem these are the untwisted rows t_j of the
    ends (a_1 .. a_m, -a_1 .. -a_m) in another basis: t-hat_i =
    k_i (t_i - t_{m+i}) and t-hat_{m+i} = t_i + t_{m+i}, k_i = p_i/wp'(a_i).
    So the table (through that change of basis), the end checks, p_i and
    wp'(a_i) come from the untwisted build and its one theta frame.  The
    rows stay wp quotients: they read the frame row of u alone, where the
    zeta rows read u and each of the 2m shifts.  A wp'(a_i) that rounds to
    0 raises DegenerateLatticeError, before k_i divides by it.
    """
    a = np.array(half_points, dtype=complex)
    rows, wp_r, dp = _untwisted_basis(ctx, r, EndDivisor(tuple(a) + tuple(-a)))
    pvals, dp = wp_r[:a.size], dp[:a.size]
    if np.any(dp == 0):
        raise elliptic.DegenerateLatticeError(f"wp'(a) = 0 at the end a = {a[np.argmax(dp == 0)]}: "
                                              "the lattice is too thin for double precision")
    k, one = np.diag(pvals / dp), np.eye(a.size)
    labels = [f"that{i + 1}" for i in range(2 * a.size)]
    return _PairedBasis(rows.domain, labels, rows.table(np.block([[k, -k], [one, one]])),
                        np.repeat([1.5, 0.5], a.size), list(pvals)).members()


def polynomial_sphere_basis(degree: int):
    """{phi, z phi, ..., z^degree phi} on the sphere without ends, a domain
    of its own: sections outside F, such as Enneper's.  Their table is
    empty, and z^j phi has weight j + 1/2."""
    labels = ["phi", "z phi"][:degree + 1] + [f"z^{j} phi" for j in range(2, degree + 1)]
    return _PolynomialBasis(SphereDomain(ends=EndDivisor(())), labels,
                            np.zeros((degree + 1, 0, 2), dtype=complex),
                            np.arange(degree + 1) + 0.5).members()


def omega_matrix(basis) -> OmegaForm:
    """Omega on sections of one basis, their tables contracted and
    antisymmetrized; the same in every chart."""
    M = _omega_table(_shared_basis(basis), [s.coefficients for s in basis])
    return OmegaForm(matrix=SkewMatrix.antisymmetrize(M), basis=tuple(basis))


# extract_K's cuts: a direction off H at most PROJECTION_TOL of the largest
# lies in H; a vector is normalized at its first coefficient above
# NORMALIZE_TOL of its largest; a vector whose alpha_0 exceeds K_TEST_TOL of
# its alpha_-1 is not in K
PROJECTION_TOL, NORMALIZE_TOL, K_TEST_TOL = 1e-8, 1e-8, 1e-6


def extract_K(form: OmegaForm):
    """Kernel of Omega with the known H subspace projected out.

    Every step reads the unit chart: the kernel of OmegaForm.rank_kernel,
    H's projection, the normalization (the first coefficient above
    NORMALIZE_TOL of the largest set to 1), and the K test, alpha_0 at
    most K_TEST_TOL of the largest alpha_-1 at every end.  The vectors map
    back through the row factors.
    """
    rank, kernel = form.rank_kernel()
    if len(kernel) < form.h_dim:
        raise SectionDataError(
            f"kernel dimension {len(kernel)} below h_dim {form.h_dim}")
    if kernel:
        # project out H (the leading h_dim coordinates); rows of vh span
        # the row space of the stacked projected vectors
        stack = np.array(kernel, dtype=complex)
        stack[:, :form.h_dim] = 0.0
        u, s, vh = np.linalg.svd(stack)
        keep = [vh[i, :] for i in range(len(s)) if s[i] > PROJECTION_TOL * max(s[0], 1e-30)]
    else:
        keep = []
    expected = len(kernel) - form.h_dim
    if len(keep) != expected:
        raise SectionDataError(
            f"K dimension {len(keep)} does not match kernel {len(kernel)} minus h_dim {form.h_dim}")
    basis = form.basis[0].basis
    d = basis.row_factors
    first = [np.argmax(np.abs(v) > NORMALIZE_TOL * np.abs(v).max()) for v in keep]
    V = np.array([scale_parts(v / v[j], d / d[j]) for v, j in zip(keep, first)],
                 dtype=complex).reshape(-1, len(basis.labels))
    mags = basis.domain.unit_sizes(basis.table(V))
    a0_max, am1_max = mags[..., 1].max(axis=1), mags[..., 0].max(axis=1)
    failed = ~(a0_max <= K_TEST_TOL * am1_max)
    if failed.any():
        raise SectionDataError(
            f"extracted kernel vector fails the K test (alpha0 max {a0_max[failed][0]:.2e})")
    return [basis.section(v, f"K{idx + 1}") for idx, v in enumerate(V)]
