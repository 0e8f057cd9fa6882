"""Spinor sections, the spaces F/H/K and the skew form Omega.

A section is (basis, coefficients): a coefficient vector on the rows of
one Basis.  Each family of F has one basis kernel: phi/(z - a_i) and phi
on the sphere; one zeta-difference form zeta(u - a_i) - zeta(u) + c_i
(with an optional constant row) on every torus; and the monomials z^j
phi on the sphere without ends, Enneper's rows.  A section (N/D) phi of F
is a coefficient vector on the sphere rows (_SphereBasis.fraction), and
the paired sections wp_r/(wp_r - p_i) phi_r and wp'/(wp_r - p_i) phi_r of
the ends +-a_i are coefficient vectors on the untwisted zeta rows of
those ends (basis_F_torus_untwisted_paired).
A kernel evaluates only the rows some coefficient uses, and adds each
row into every section it evaluates at once.  On a torus the rows read
zeta and wp at u and at u - a_i from one theta frame, through one shift
table of every end of the domain, formed once for all its readers (_Points):
each group of ends by the one rule its domain decides for it
(_TorusDomain.shift_rules), from the frame's values on u when its negative
is an end, in one broadcast of the addition theorem or, at the
half-periods, one read of theta quotients, and otherwise from its rows
u - a_i; a caller that also needs the chart weight or a primitive at the
same points takes that frame and table for all of them (the domain's
points(u)) and passes it in place of u.  A torus domain
evaluates its ends once, in one theta frame (_TorusDomain.end_values),
which the zeta table, the pole data, the shift rules and the chart
weight at the ends all read; both torus builders check their ends in one
lattice distance call (_torus_end_check).
A linear combination is a coefficient sum.  The Laurent data of a basis
is one (rows, ends, 2) table T of (alpha_-1, alpha_0); a section's table
is its coefficients contracted with T.  Omega, its residue-sum check, the
K test and the log-end residues and pole coefficients of form_primitive all contract
the stacked tables of the sections they read: Omega(s_i, s_j) is
einsum('ik,jk->ij', A_0, A_-1), antisymmetrized.  The periods int s t are
bilinear too: period_matrix gives int s_i s_j along a path, or along each
of several paths, for every pair of sections on one basis from one
quadrature, each level's nodes evaluating the basis rows once.  For pairs
whose forms s t have no residues, form_primitive gives the primitive of s t
in closed form (see FormPrimitive).

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
from functools import cached_property

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
    "period_matrix",
    "FormPrimitive",
    "open_primitive",
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
        if np.isnan(a).any():
            raise ValueError(f"the end {pts[np.argmax(np.isnan(a))]} is not a number")
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
    """Chart points u on a torus with one theta frame, which the basis rows,
    the chart weight and the closed-form primitive all read.  The frame is
    taken here, once: on u, and on u - a for each end a whose shift rule is
    None (_TorusDomain.shift_rules), laid end to end, with the half-period
    thetas when an end is a half-period.  A point u within the pole
    tolerance of the lattice raises PoleEvaluationError; a row u - a there
    is summed at b1/2 and raises only when read (shifts), so a section is
    evaluated at an end whose row it does not read as at any other point.
    zeta, wp and wp' at u and the shift table of every end (_table), which
    the rows, their derivatives and the primitive read, are each formed
    when first read; on more points than the frame sums at a time (a mesh
    block) all four are formed here and the frame, which only they read,
    let go.  A frame's bits do not depend on its batch, so a point's values
    are its own.  Given a frame whose points begin with u (the ends:
    _TorusDomain.end_values), u's values are read from it, and there are
    no rows."""

    def __init__(self, dom, u, frame=None):
        u = np.asarray(u, dtype=complex)
        self.dom, self.shape, self.u = dom, u.shape, u.reshape(-1)
        self.size, self.frame = self.u.size, frame
        if frame is not None:
            return
        own, (half, *_), _ = dom.shift_groups
        self.frame = elliptic._theta_frame(
            dom.ctx, (self.u - np.array([0j, *own])[:, None]).ravel(), bool(half), True)
        rows = (len(own) + 1, self.size)
        pole = self.frame.pole.reshape(rows)
        if pole[0].any():
            raise elliptic.PoleEvaluationError(
                f"u = {self.u[np.argmax(pole[0])]} is within 1e-12 of a lattice point")
        if own:
            zeta, wp = (x.reshape(rows) for x in (self.frame.zeta(), self.frame.wp()))
            self.zeta, self.wp = zeta[0], wp[0]
            self.rows = zeta[1:] - zeta[0], wp[1:], pole[1:]
        if self.size > elliptic._CHUNK:
            for name in ("zeta", "wp", "wp_prime", "_table"):
                getattr(self, name)
            self.frame = None

    @cached_property
    def zeta(self):
        return self.frame.zeta(slice(0, self.size))

    @cached_property
    def wp(self):
        return self.frame.wp(slice(0, self.size))

    @cached_property
    def wp_prime(self):
        return self.frame.wp_prime(slice(0, self.size))

    def shifts(self, ends):
        """(zeta(u - a) - zeta(u), wp(u - a)) for each end a of ends in turn,
        as (1, points) rows: (0.0, wp(u)) at a = 0, and otherwise the end's
        rows of the shift table (_table).  Within about the pole tolerance
        of a, and of -a where wp(u) - wp(a) vanishes too,
        PoleEvaluationError names the end, or both."""
        for a in ends:
            if a == 0:
                yield 0.0, self.wp[None]
                continue
            zeta, wp, pole = self._table[a]
            if pole is not None:
                rule = self.dom.shift_rules[a]
                end = f"a = {a}" + (f" or -a = {-a}" if rule and not rule[0] else "")
                raise elliptic.PoleEvaluationError(
                    f"zeta(u - a) at u = {self.u[np.argmax(pole)]} for the end {end}: "
                    "u is within 1e-12 of an end")
            yield zeta, wp

    @cached_property
    def _table(self):
        """{a: (Z, W, pole)} for every end a != 0 of the domain: Z = zeta(u -
        a) - zeta(u) and W = wp(u - a) on the points, (1, points) rows of
        (ends, points) arrays formed once for all their readers, each group
        of ends by its rule (_TorusDomain.shift_groups), and pole the row's
        marks, None when it has none.  An end whose rule is None has the
        frame's rows u - a.  The half-periods, where wp'(a) = 0, are the
        rows of their labels in _Frame.half_shifts: wp'(u)/2D - zeta(a) and
        wp(a) + (e - e_j)(e - e_k)/D, D = wp(u) - wp(a), from theta
        quotients, marked where |wp'/2D| ~ 1/|u - a| passes half the
        inverse pole tolerance.  The other ends are one broadcast of the
        addition theorem (_added)."""
        own, (half, labels, zeta_h, wp_h), (paired, *columns) = self.dom.shift_groups
        table = {}

        def add(ends, rows, zeta, wp, pole):
            bad = pole.any(axis=1)
            table.update((a, (zeta[i:i + 1], wp[i:i + 1], pole[i] if bad[i] else None))
                         for a, i in zip(ends, rows))
        if own:
            add(own, range(len(own)), *self.rows)
        if half:
            slope, product = self.frame.half_shifts(slice(0, self.size))
            pole = np.abs(slope) >= 0.5 / self.dom.ctx.lattice.pole_tolerance
            slope -= zeta_h
            product += wp_h
            add(half, labels, slope, product, pole)
        if paired:
            add(paired, range(len(paired)), *self._added(*columns))
        return table

    def _added(self, zeta_a, wp_a, wp_prime_a):
        """(Z, W, pole), shape (ends, points), by the addition theorem (DLMF
        23.10.1-23.10.2 at v = -a) for the ends' columns zeta(a), wp(a) and
        wp'(a), in place on D = wp(u) - wp(a):

            zeta(u - a) - zeta(u) = R/2 - zeta(a),  R = (wp'(u) + wp'(a))/D,
            wp(u - a) = R^2/4 - wp(u) - wp(a);

        pole marks D within about the pole tolerance of 0, u next to +-a,
        and there nothing is divided, as shifts raises."""
        den = np.subtract(self.wp, wp_a)
        pole = np.abs(den) <= self.dom.ctx.lattice.pole_tolerance * np.abs(self.wp_prime)
        w = np.add(self.wp_prime, wp_prime_a)
        z = np.divide(w, den, out=den, where=~pole if pole.any() else True)
        np.multiply(z, z, out=w)
        w *= 0.25
        w -= self.wp
        w -= wp_a
        z *= 0.5
        z -= zeta_a
        return z, w, pole


class _DomainBase:
    """Decisions read the unit chart u / s, s = 4^chart_exponent of the
    lattice or the ends.  Under u -> s u, (alpha_-1, alpha_0) have weights
    (e, -e) at a finite end and (-e, e) at infinity, e = end_weight."""

    ends: EndDivisor
    end_weight = 0.5
    weight_at_ends = 1.0  # form_weight at the finite ends, which form_primitive divides by

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

    def points(self, u):
        """What the evaluators read for chart points u, passed to them in place
        of u: u itself, as a complex array, on the sphere."""
        return np.asarray(u, dtype=complex)

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

    def points(self, u):
        """u as a _Points with its one theta frame, u itself if it is one."""
        return u if isinstance(u, _Points) else _Points(self, u)

    @cached_property
    def end_values(self):
        """(at, c, A), the domain's one evaluation of its ends: at, its ends a
        other than 0 as a _Points whose theta frame also holds the points of
        _zeta_constants and a_j - a_i for i != j; c, the zeta rows' constants;
        and A[i, j], the alpha_0 of zeta(u - a_i) - zeta(u) + c_i at a_j:
        zeta(a_j - a_i) - zeta(a_j) + c_i, 0 at a_i.  The builders' table and
        pole data, the shift rules and the chart weight at the ends read it."""
        a = np.array([p for p in self.ends.points if p != 0], dtype=complex)
        lead, constants = self._zeta_constants(a)
        points, off = np.concatenate([a, lead]), ~np.eye(a.size, dtype=bool)
        at = _Points(self, a, elliptic._theta_frame(
            self.ctx, np.concatenate([points, (a[None, :] - a[:, None])[off]])))
        values, shifted = at.frame.zeta(), np.zeros(off.shape, dtype=complex)
        shifted[off] = values[points.size:]
        c = constants(values[:points.size])
        return at, c, np.where(off, shifted - values[:a.size] + c[:, None], 0.0)

    @cached_property
    def shift_rules(self) -> dict:
        """{a: rule} for each end a != 0, the one place that decides how its
        shift is read (_Points.shifts).  The rule is None when -a is no end,
        a + b farther than the pole tolerance from the lattice for every end
        b: a frame on u takes the row u - a too (_Points).  Otherwise it is
        (h, zeta(a), wp(a), wp'(a)), h the half-period label (0 unless a is
        its own negative), and the shift is read from the frame on u, as
        wp(u) - wp(a) vanishes only at u = +-a, both ends.  A half-period a =
        m b1/2 + n b2/2 has zeta(a) = m eta_a + n eta_b, eta_a and eta_b those
        of b1/2 and b2/2 (EllipticContext._eta_reduced), wp(a) its e and
        wp'(a) = 0; the other ends' values are read from the domain's
        evaluation of its ends (end_values), whose points are these ends."""
        ctx, lat, (eta_a, eta_b) = self.ctx, self.ctx.lattice, self.ctx._eta_reduced
        a, rules = [p for p in self.ends.points if p != 0], {}
        paired = (np.abs(lat.reduce(np.add.outer(a, a))[0]) < lat.pole_tolerance).any(axis=1)
        for i, (p, h, m, n) in enumerate(zip(a, *lat.half_period_labels(a))):
            if h:
                rules[p] = (h, m * eta_a + n * eta_b, ctx.e(ctx._half_labels.index(h) + 1), 0.0)
            elif paired[i]:
                at = self.end_values[0]
                rules[p] = (0, at.zeta[i], at.wp[i], at.wp_prime[i])
            else:
                rules[p] = None
        return rules

    @cached_property
    def shift_groups(self):
        """shift_rules as the groups and columns every _Points reads: the
        ends whose rule is None; the half-periods, their labels less one,
        and zeta(a) and wp(a) as (3, 1) columns by label; and the other
        ends with a rule, with zeta(a), wp(a) and wp'(a) as (ends, 1)
        columns."""
        rules = self.shift_rules.items()
        half = [(a, rule) for a, rule in rules if rule and rule[0]]
        paired = [(a, rule) for a, rule in rules if rule and not rule[0]]
        by_label = np.zeros((2, 3, 1), dtype=complex)
        for _, (h, zeta_a, wp_a, _) in half:
            by_label[:, h - 1, 0] = zeta_a, wp_a
        return ([a for a, rule in rules if rule is None],
                ([a for a, _ in half], [rule[0] - 1 for _, rule in half], *by_label),
                ([a for a, _ in paired],
                 *(np.array([rule[k] for _, rule in paired])[:, None] for k in (1, 2, 3))))

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

    def _zeta_constants(self, a):
        """(lead, c of zeta): no points after the ends a, and c_i = zeta(a_i)."""
        return [], lambda z: z


@dataclass(frozen=True)
class UntwistedTorusDomain(_TorusDomain):
    """Torus with spin structure (wp - e_r) du; phi_r^2 = du / wp_r(u)."""

    ends: EndDivisor
    ctx: EllipticContext
    r: int
    genus = 1
    h_dim = 0
    end_weight = 1.5  # the honest chart d(u - a) / wp_r(a) has weight 3

    def _zeta_constants(self, a):
        """(lead, c of zeta): omega_r and omega_r - a, which end_values adds after
        the ends a, and c_i = zeta(omega_r) - zeta(omega_r - a_i) from zeta there."""
        wr = self.ctx.half_period(self.r)
        return np.concatenate([[wr], wr - a]), lambda z: -z[a.size + 1:] + z[a.size]

    def wp_r(self, u):
        """wp(u) - e_r, shaped as u, from the frame of points(u): the only
        place it is formed, for the chart weight, the pole data at the ends
        (end_values) and the paired sections' p_i."""
        at = self.points(u)
        return np.subtract(at.wp.reshape(at.shape), self.ctx.e(self.r))

    def form_weight(self, u):
        w = self.wp_r(u)
        # numpy's division at every shape, as a batch rounds it; in place on a block
        return np.divide(1.0, w, out=w if w.ndim else None)

    @cached_property
    def weight_at_ends(self):
        return self.form_weight(self.end_values[0])

    def chart_singularities(self):
        return [0.0, self.ctx.half_period(self.r)]


@dataclass(eq=False)
class Basis:
    """Rows of one family spanning F (or some limit sections) over a domain.

    laurent is the complex (rows, ends, 2) table T, T[j, k] = (alpha_-1,
    alpha_0) of row j at the k-th end; on a domain without ends it is
    empty.  weights holds the half-integer w_j with row j on the divisor
    times s equal to s^w_j times row j.  A family adds its
    row data and _rows(active, at, derivative), which yields (j, f_j(u),
    f_j'(u) or None) for each active j at the flat points of at, the
    domain's points(u), as (1, points) rows or constants: numpy rounds the
    complex product of a (1, 1) coefficient and a (points,) row at a single
    point apart from a batch's, and not that of a (1, points) row.
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
        coefficient is nonzero, then added at once into the run of sections
        from the first to the last that reads the row, each section's sum
        taken row by row, so a point's bits are its own.
        """
        C = np.asarray(coefficients, dtype=complex).reshape(-1, len(self.labels))
        used = C != 0
        active = np.flatnonzero(used.any(axis=0))
        first, last = used.argmax(axis=0), len(C) - used[::-1].argmax(axis=0)
        at = self.domain.points(u)
        out = np.zeros((2 if derivative else 1, len(C), at.size), dtype=complex)
        for j, *jet in self._rows(active, at, derivative):
            k = slice(first[j], last[j])
            c = C[k, j, None]
            for acc, f in zip(out, jet):
                acc[k] += c * f
        out = out.reshape(out.shape[:2] + at.shape)
        return (out[0], out[1]) if derivative else out[0]

    def _polynomial_part(self, pairs):
        """Ascending coefficients, shape (degree + 1, pairs), of the polynomial
        part of f g for each pair; None on a torus, where it is a constant
        that FormPrimitive.fixed reads at a probe point."""
        return None


@dataclass(eq=False)
class _SphereBasis(Basis):
    """phi/(z - a_i) for the finite ends a_i, then phi."""

    poles: list

    def _rows(self, active, at, derivative):
        z = at.reshape(1, -1)
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

    The rows read zeta, and wp when the derivative is asked, at u and at
    u - a_i (_Points.shifts) for every active shift.  A shift of None
    marks the constant row, row 0.
    """

    shifts: list
    constants: list

    def _rows(self, active, at, derivative):
        shifts = at.shifts([self.shifts[j] for j in active if self.shifts[j] is not None])
        for j in active:
            if self.shifts[j] is None:
                yield j, 1.0, 0.0
                continue
            zeta, wp = next(shifts)
            yield j, zeta + self.constants[j], (at.wp - wp if derivative else None)


@dataclass(eq=False)
class _PolynomialBasis(Basis):
    """Rows z^j phi, j = 0 .. degree, on the sphere without ends."""

    def _rows(self, active, at, derivative):
        z = at.reshape(1, -1)
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
    from their domain's points."""
    return _shared_basis(sections).evaluate([s.coefficients for s in sections], u, derivative)


def period_matrix(sections, path, rel_tol=1e-10):
    """Symmetric M[i, j] = int s_i s_j = int f_i f_j mu du along the path for
    sections on one basis: one quadrature of the upper triangle gives all.
    Given a sequence of paths, a list of their M from one quadrature, each
    level of every path read from one evaluation (contour_integral)."""
    dom = _shared_basis(sections).domain
    i, j = np.triu_indices(len(sections))

    def integrand(u):
        at = dom.points(u)
        f = section_values(sections, at)
        return f[i] * f[j] * dom.form_weight(at)

    def matrix(upper):
        M = np.zeros((len(sections), len(sections)), dtype=complex)
        M[i, j] = M[j, i] = upper
        return M
    upper = contour_integral(integrand, path, rel_tol=rel_tol)
    return matrix(upper) if isinstance(path, QuadraturePath) else list(map(matrix, upper))


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
    columns of poly hold the ascending coefficients of the P_p.  On a torus
    P_p is a constant, open (poly None) until fixed reads it at the probe
    point, the one of 7 x 7 lattice fractions farthest from the chart's
    singular points: form_primitive evaluates the probe alone, and
    integrate_surface with the first block of its mesh.
    """

    domain: _DomainBase
    ends: tuple
    poly: np.ndarray
    c: np.ndarray
    end_residue_max: float
    probe: complex = None

    def evaluate(self, u):
        """(Phi, form, size) at u, each of shape (pairs,) + u.shape; on a torus
        Z and W at u - a_k for each end from the shift table of the one frame
        on u (_Points.shifts; u may come from the domain's points); size =
        |P| + sum_k |c_k W(u - a_k)| sets the scale of the form's rounding
        error.  While P is open the three leave out its terms, which
        add_polynomial adds once it is fixed."""
        at = self.domain.points(u)
        shape = (len(self.c), at.size)
        # the ends summed in their order into the arrays returned, so a
        # point's bits are its own, one end's Z and W at a time (rows of the
        # shift table on a torus) through one product buffer, which bounds a
        # block's memory
        phi, form, size = np.zeros(shape, complex), np.zeros(shape, complex), np.zeros(shape)
        product = np.empty(shape, complex)
        # |c_k| |W| goes to a real array on product's first half
        scale = product.reshape(-1).view(float)[:product.size].reshape(shape)
        shifts = at.shifts(self.ends) if self.domain.genus else None
        for a, c in zip(self.ends, self.c.T[..., None]):
            if self.domain.genus:
                z, w = next(shifts)
                z = np.add(z, at.zeta[None])
            else:
                z = np.subtract(at.reshape(1, -1), a)
                np.divide(1.0, z, out=z)
                w = z * z
            phi -= np.multiply(c, z, out=product)
            form += np.multiply(c, w, out=product)
            size += np.multiply(np.abs(c), np.abs(w), out=scale)
            del z, w
        del product, scale
        if self.poly is not None:
            self.add_polynomial(at, phi, form, size)
        return tuple(x.reshape((len(self.c),) + at.shape) for x in (phi, form, size))

    def add_polynomial(self, at, phi, form, size):
        """Adds (int P)(u), P(u) and |P(u)| to the (pairs, points) arrays phi,
        form and size in place, at the points of at, the domain's points."""
        u, product = at.u if self.domain.genus else at.reshape(-1), np.empty(phi.shape, complex)
        phi += _polyval(u, P.polyint(self.poly), product)
        form += _polyval(u, self.poly, product)
        size += np.abs(product)

    def fixed(self, fg, form):
        """The primitive with P = fg - form, from f g mu and the open form at
        the probe, each of shape (pairs,): the one place P is fixed."""
        return replace(self, poly=np.subtract(fg, form)[None, :])


def _polyval(u, coefficients, out):
    """P.polyval(u, coefficients) for (degree + 1, pairs) coefficients,
    bitwise, by the same Horner steps written into out, (pairs, u.size)."""
    np.multiply(u, 0, out=out)
    out += coefficients[-1][:, None]
    for c in coefficients[-2::-1]:
        out *= u
        out += c[:, None]
    return out


def open_primitive(pairs) -> FormPrimitive:
    """FormPrimitive of the forms s t for pairs (s, t) on one basis, with a
    torus's constant P open, and its probe point.

    A residue above LOG_END_TOL of the pair's alpha scale is a log end,
    which the closed form does not cover: SectionDataError names the end,
    as it does a NaN residue.
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
    c = np.einsum("pk,pk->pk", s[:, finite, 0], t[:, finite, 0]) / dom.weight_at_ends
    poly, probe = basis._polynomial_part(pairs), None
    if poly is None:
        frac = (np.arange(7) + 0.5) / 7
        grid = (frac[:, None] * 2 * dom.ctx.omega1 + frac * 2 * dom.ctx.omega3).ravel()
        probe = complex(grid[np.argmax(np.min(dom.distance(grid, np.c_[dom.singular_points()]),
                                              0))])
    return FormPrimitive(dom, ends, poly, c, float(res.max(initial=0.0)), probe)


def form_primitive(pairs) -> FormPrimitive:
    """open_primitive of the pairs with P fixed: on a torus from one
    evaluation of their distinct sections at the probe, f g mu less the
    open form there (FormPrimitive.fixed)."""
    prim = open_primitive(pairs)
    if prim.poly is None:
        sections = list({id(x): x for pair in pairs for x in pair}.values())
        i, j = ([sections.index(x) for x in side] for side in zip(*pairs))
        at = prim.domain.points([prim.probe])
        f = section_values(sections, at)
        fg = f[i] * f[j] * np.reshape(prim.domain.form_weight(at), (1, -1))
        prim = prim.fixed(fg[:, 0], prim.evaluate(at)[1][:, 0])
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
        unit-chart rows.  A form on sections other than the members of one
        Basis in order raises SectionDataError."""
        rows = self.basis[0].basis
        if not (all(s.basis is rows for s in self.basis) and np.array_equal(
                [s.coefficients for s in self.basis], np.eye(len(rows.labels)))):
            raise SectionDataError("Omega's sections are not the basis members in order")
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
    n = len(sections)
    i, j = np.triu_indices(n, 1)

    def integrand(x):
        du = radius * np.exp(2j * np.pi * x)
        u = center + du
        u[at_inf] = 1.0 / du[at_inf]
        at = dom.points(u)
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


def basis_F_torus_twisted(ctx: EllipticContext, divisor: EndDivisor):
    """{phi0, t_1, ..., t_{n-1}} with t_i = (zeta(u-a_i) - zeta(u) + zeta(a_i)) phi0.

    The divisor must contain 0; remaining ends must be off-lattice (see
    _torus_end_check).  H = C phi0 for this spin structure.
    """
    others = _torus_end_check(ctx, divisor.points).tolist()
    m = len(others)
    dom = TwistedTorusDomain(ends=EndDivisor((0.0,) + tuple(others)), ctx=ctx)
    _, c, alpha0 = dom.end_values
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
    _torus_end_check(ctx, divisor.points, ctx.half_period(r))
    dom = UntwistedTorusDomain(ends=divisor, ctx=ctx, r=r)
    at, c, alpha0 = dom.end_values
    wp_r = dom.wp_r(at)
    if np.any(wp_r == 0):
        # the ends keep off omega_r: e_r rounded onto another root of the cubic
        raise elliptic.DegenerateLatticeError(
            f"wp(a) = e{r} at the end a = {divisor.points[np.argmax(wp_r == 0)]}: e{r} rounds "
            "onto another root, the lattice is too thin for double precision")
    # the pole data 1/wp_r by Python's complex division, whose rounding the tables keep
    laurent = np.stack([np.diag((1.0 / wp_r.astype(object)).astype(complex)), alpha0], axis=-1)
    return _ZetaBasis(dom, [f"t{i + 1}" for i in range(divisor.n)], laurent,
                      np.full(divisor.n, 0.5), list(divisor.points), c.tolist()).members()


def basis_F_torus_untwisted_paired(ctx: EllipticContext, r: int, half_points):
    """Paired-end sections t-hat for ends {a_i} u {-a_i}.

    t-hat_i = wp_r/(wp_r - p_i) phi_r and t-hat_{m+i} = wp'/(wp_r - p_i) phi_r,
    with p_i = wp_r(a_i).  Omega on them is block off-diagonal; the
    textbook W matrix equals -2 times the upper block.

    By the zeta addition theorem they are combinations of the untwisted rows
    t_j of the ends (a_1 .. a_m, -a_1 .. -a_m): t-hat_i = k_i (t_i -
    t_{m+i}) and t-hat_{m+i} = t_i + t_{m+i}, k_i = p_i/wp'(a_i).  So they
    are returned as sections on that zeta basis, with those coefficients:
    the end checks, p_i and wp'(a_i) come from its build and its domain's
    one evaluation of its ends (end_values), their tables are the change of
    basis on its table, and they evaluate as its rows do.  Their rank is
    that basis's (OmegaForm.rank_kernel reads its members).  A wp'(a_i)
    that rounds to 0 raises DegenerateLatticeError, before k_i divides by it.
    """
    a = np.array(half_points, dtype=complex)
    rows = basis_F_torus_untwisted(ctx, r, EndDivisor(tuple(a) + tuple(-a)))[0].basis
    at = rows.domain.end_values[0]
    pvals, dp = rows.domain.wp_r(at)[:a.size], at.wp_prime[:a.size]
    if np.any(dp == 0):
        raise elliptic.DegenerateLatticeError(f"wp'(a) = 0 at the end a = {a[np.argmax(dp == 0)]}: "
                                              "the lattice is too thin for double precision")
    k, one = np.diag(pvals / dp), np.eye(a.size)
    return [rows.section(g, f"that{i + 1}")
            for i, g in enumerate(np.block([[k, -k], [one, one]]))]


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
