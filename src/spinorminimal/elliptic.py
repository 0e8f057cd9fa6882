"""Weierstrass elliptic layer: lattices, invariants, and p/p'/zeta evaluators.

Every series is summed, and every argument rounded, in one basis: the
Lagrange-Gauss-reduced periods (b1, b2) of Lattice.reduced_periods,
oriented so that tau = b2/b1 has Im(tau) > 0.  That tau lies in the
standard fundamental domain, so on every lattice, however skewed or thin
the given basis, the theta nome q = exp(i*pi*tau) has
|q| <= exp(-pi*sqrt(3)/2) ~ 0.066 and the q-series nome Q = q^2 has
|Q| <= 0.0043.

Evaluation: Lattice.reduce takes the argument to the reduced cell, then
Jacobi theta series are summed.  With w = b1/2, z = pi*u/(2*w) and theta1
at nome q,

    zeta(u) = eta*u/w + (pi/(2*w)) * theta1'(z)/theta1(z)
    wp(u)   = -d(zeta)/du,   wp'(u) = d(wp)/du,

where eta = (zeta(u + b1) - zeta(u))/2 is the quasi-period of w.  One
theta frame (theta1 and its first three derivatives at the reduced points)
gives zeta, wp and wp' alike, so callers that need several of them take
one frame from _theta_frame on all their points.  With halves it adds
theta2, theta3 and theta4, from which _Frame.half_shifts gives the shifts
by the half-periods and EllipticContext.e_difference the e-differences as theta
quotients, with no difference that cancels on a thin cell (DLMF 23.6(i)).

A frame costs one complex exponential per point.  With
theta1 = 2 sum_n c_n sin(kz), k = 2n+1, c_n = (-1)^n q^((n+1/2)^2) (K terms),
_Theta.batch takes E = exp(iz), forms E^k and E^-k by repeated
multiplication with E^2 and E^-2, and weighs them by constant vectors
built once per context, through 2 cos(kz) = E^k + E^-k and
2 sin(kz) = -i (E^k - E^-k).  theta1 itself is summed as
-i (E - 1/E) sum_n c_n sin(kz)/sin(z), where
sin(kz)/sin(z) = 1 + sum_{j<n} (E^(2j+2) + E^-(2j+2)) and E - 1 comes from
expm1 near z = 0: it keeps its relative precision where it vanishes, and
so do wp and zeta next to a lattice point.  The sums are einsum calls and
never BLAS, so a point gives bitwise the same value alone or in any batch.
A complex product whose right operand is a temporary is an np.multiply
call: from 256 KiB up, numpy reuses such a temporary in place with the
operands swapped, and the two orders of a complex product round differently.
|E^k| and |E^-k| are the magnitudes that complex sin(kz) and cos(kz) form
internally, so the overflow described below sets in where it did with them.

The invariants come from the q-series

    g2    = pi^4/(12 w^4) * (1 + 240 sum sigma3(n) Q^n)
    eta   = pi^2/(12 w)   * (1 -  24 sum sigma1(n) Q^n)
    wp(w) = pi^2/(6 w^2)  * (1 +  24 sum tau_odd(n) Q^n)

and the quasi-period of b2/2 from the Legendre relation.  The given labels
are kept: e_i = wp(omega_i), and eta1, eta3 are the integer combinations of
the reduced quasi-periods that 2*omega1 and 2*omega3 are of b1 and b2
(DLMF 23.18), so the Legendre relation eta1*omega3 - eta3*omega1 = i*pi/2
holds in them too.  Every build checks e1+e2+e3 = 0, g2 = -4*sum(ei*ej),
the series wp(w) and the wp ODE; a check that fails or reads NaN or inf
raises DegenerateLatticeError.  That happens once Im(tau) passes about 50,
where the theta terms overflow double precision.

Half-period labels follow omega2 = omega1 + omega3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .numkit import NonConvergenceError, chart_exponent

__all__ = [
    "Lattice",
    "EllipticContext",
    "DegenerateLatticeError",
    "PoleEvaluationError",
    "build_context",
    "wp",
    "wp_prime",
    "wp_with_prime",
    "wp_second",
    "zeta",
    "wp_inverse",
]

POLE_DISTANCE_TOL = 1e-12


class DegenerateLatticeError(ValueError):
    """The two generators do not span a lattice, or it is too thin for the
    invariants to pass their checks in double precision."""


class PoleEvaluationError(ValueError):
    """Evaluation point is within tolerance of a lattice pole."""


@dataclass(frozen=True)
class Lattice:
    """Half-periods (omega1, omega3) of the lattice {2*omega1, 2*omega3}.

    Orientation Im(tau) > 0 is enforced at construction by negating
    omega3 when needed (same lattice, swapped orientation).
    """

    omega1: complex
    omega3: complex

    def __post_init__(self):
        w1 = complex(self.omega1)
        w3 = complex(self.omega3)
        if w1 == 0 or w3 == 0:
            raise DegenerateLatticeError("zero generator")
        tau = w3 / w1
        if tau.imag == 0:
            raise DegenerateLatticeError("generators are R-linearly dependent")
        if tau.imag < 0:
            w3 = -w3
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega3", w3)

    @cached_property
    def reduced_periods(self):
        """Lagrange-Gauss-reduced periods (b1, b2), |b1| <= |b2| <= |b2 +- b1|
        and Im(b2/b1) > 0, spanning the same lattice as (2*omega1, 2*omega3)."""
        b1, b2 = 2 * self.omega1, 2 * self.omega3
        if abs(b2) < abs(b1):
            b1, b2 = b2, b1
        while True:
            mu = round((b2 * b1.conjugate()).real / abs(b1) ** 2)
            b2 = b2 - mu * b1
            if abs(b2) >= abs(b1):
                return (b1, b2) if (b2 / b1).imag > 0 else (b1, -b2)
            b1, b2 = b2, b1

    @cached_property
    def chart_exponent(self) -> int:
        """numkit.chart_exponent of |b1|/2: the chart scale is 4^m."""
        return chart_exponent(abs(self.reduced_periods[0]) / 2)

    @cached_property
    def pole_tolerance(self) -> float:
        """POLE_DISTANCE_TOL * max(s, |b2|) = POLE_DISTANCE_TOL * |b2|, as
        the chart scale s is at most |b1|: the distance from the lattice
        within which a theta frame, the paired rows and the torus end check
        see a pole."""
        return POLE_DISTANCE_TOL * abs(self.reduced_periods[1])

    @cached_property
    def _neighbour_offsets(self) -> np.ndarray:
        """i*b1 + j*b2 for i, j in {-1, 0, 1}, the centre first."""
        b1, b2 = self.reduced_periods
        return np.array([i * b1 + j * b2 for i in (0, -1, 1) for j in (0, -1, 1)])

    def reduce(self, u):
        """(red, m, n) with u = red + m*b1 + n*b2 and the coordinates of red
        in the reduced basis rounded into [-1/2, 1/2]; elementwise for an array."""
        u = np.asarray(u, dtype=complex)
        b1, b2 = self.reduced_periods
        det = b1.real * b2.imag - b1.imag * b2.real
        m = np.round((u.real * b2.imag - u.imag * b2.real) / det)
        n = np.round((u.imag * b1.real - u.real * b1.imag) / det)
        return u - m * b1 - n * b2, m, n

    def half_period_labels(self, points):
        """(labels, m, n) for points a: 2a reduces to m b1 + n b2, and a's
        label is 1, 2 or 3 when 2a lies within the pole tolerance of it
        with (m, n) = (1, 0), (1, 1) or (0, 1) mod 2, a at the reduced
        half-period b1/2, (b1 + b2)/2 or b2/2 (modulo the lattice), else 0."""
        red, m, n = self.reduce(2 * np.asarray(points, dtype=complex))
        labels = np.array([0, 3, 1, 2])[(2 * (m % 2) + n % 2).astype(int)]
        return np.where(np.abs(red) < self.pole_tolerance, labels, 0), m, n

    def distance(self, u):
        """Distance from u to the nearest lattice point: a float for a scalar,
        elementwise for an array.

        In the reduced basis the nearest lattice point is always one of the
        3x3 neighbours of the one that reduce() rounds to.
        """
        red = self.reduce(u)[0]
        d = np.min(np.abs(red[..., None] - self._neighbour_offsets), axis=-1)
        return float(d) if d.ndim == 0 else d


def _divisor_sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _odd_divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1, 2) if n % d == 0)


@lru_cache(maxsize=1)
def _series_coeffs():
    """sigma3(n), sigma1(n) and the odd-divisor sum for n = 1..64: at
    |Q| <= 0.0043 the 64th term is far below rounding."""
    s3 = np.array([_divisor_sigma(n, 3) for n in range(1, 65)], dtype=float)
    s1 = np.array([_divisor_sigma(n, 1) for n in range(1, 65)], dtype=float)
    todd = np.array([_odd_divisor_sum(n) for n in range(1, 65)], dtype=float)
    return s3, s1, todd


def _qseries(w: complex, Q: complex):
    """(g2, eta, wp(w)) from the sigma3/sigma1/odd-divisor q-series at the
    half-period w."""
    s3, s1, todd = _series_coeffs()
    qn = Q ** np.arange(1, 65)
    g2 = np.pi**4 / (12 * w**4) * (1 + 240 * np.sum(s3 * qn))
    eta = np.pi**2 / (12 * w) * (1 - 24 * np.sum(s1 * qn))
    e = np.pi**2 / (6 * w**2) * (1 + 24 * np.sum(todd * qn))
    return complex(g2), complex(eta), complex(e)


class _Theta:
    """theta1 and its first three z-derivatives at fixed nome q, |q| < 1."""

    def __init__(self, q: complex):
        terms = []
        n = 0
        while True:
            coeff = (-1) ** n * q ** ((n + 0.5) ** 2)
            terms.append((2 * n + 1, coeff))
            if abs(coeff) * (2 * n + 1) ** 3 < 1e-22 and n >= 4:
                break
            n += 1
        k = np.array([t[0] for t in terms], dtype=float)
        c = np.array([t[1] for t in terms], dtype=complex)
        # with E = exp(iz), 2 cos(kz) = E^k + E^-k and 2 sin(kz) = -i (E^k - E^-k),
        # so theta1', theta1'', theta1''' weigh (E^k, E^-k) by these, shape (3, K, 2)
        self.odd_weights = np.ascontiguousarray(np.transpose(
            [[c * k, c * k], [1j * c * k**2, -1j * c * k**2], [-c * k**3, -c * k**3]], (0, 2, 1)))
        # theta1 = -i (E - 1/E) sum_n c_n sin(kz)/sin(z), and sin(kz)/sin(z)
        # = 1 + sum_{j<n} (E^(2j+2) + E^-(2j+2)): the even powers weigh the
        # tail sums of c, -i folded in.  Both weight arrays are contiguous:
        # einsum picks its summation loop by strides, and with a strided
        # operand a single point took another loop, and rounding, than a batch
        self.even_constant = -1j * complex(np.sum(c))
        self.even_weights = np.repeat(-1j * np.cumsum(c[::-1])[::-1][1:, None], 2, axis=1)
        self.q, self.c = q, c

    @cached_property
    def half_weights(self):
        """(theta2's weights, theta3's and theta4's, their values at 0),
        formed on first use: theta2 = sum_n q^((n+1/2)^2) (E^k + E^-k) on
        the odd powers, and theta3, theta4 = 1 + sum_n (+-1)^n q^(n^2)
        (E^2n + E^-2n) on the even ones (DLMF 20.2.2-20.2.4), the thetas of
        the reduced half-periods b1/2, (b1 + b2)/2 and b2/2, labels 1 to 3."""
        theta2 = (-1.0) ** np.arange(len(self.c)) * self.c
        square = self.q ** np.arange(1, len(self.c)) ** 2
        theta34 = np.stack([square, (-1.0) ** np.arange(1, len(self.c)) * square])
        return (np.repeat(theta2[:, None], 2, axis=1), np.repeat(theta34[..., None], 2, axis=2),
                np.array([2 * np.sum(theta2), *(1 + 2 * np.sum(theta34, axis=1))]))

    def batch(self, z: np.ndarray, halves=False):
        """Return theta1, theta1', theta1'', theta1''' at each z and, with
        halves, theta2, theta3 and theta4, from one exponential E = exp(iz)
        per point; each value is independent of the rest of the batch."""
        iz = 1j * z
        e = np.exp(iz)
        # E - 1, from expm1 where the difference cancels (|E - 1| ~ |z|)
        m = e - 1.0
        near = np.abs(z) < 0.5
        m[near] = np.expm1(iz[near])
        odd = np.empty(self.odd_weights.shape[1:] + z.shape, dtype=complex)
        odd[0, 0] = e
        odd[0, 1] = 1.0 / e
        step = odd[0] ** 2
        for j in range(1, len(odd)):  # E^k and E^-k, k = 1, 3, 5, ...
            np.multiply(odd[j - 1], step, out=odd[j])
        even = odd[:-1] * odd[0]  # E^(k+1) and E^-(k+1)
        # E - 1/E = (E - 1)(E + 1)/E keeps its relative precision near z = 0
        t0 = np.multiply(m, m + 2.0) * odd[0, 1] * (
            self.even_constant + np.einsum("ks...,ks->...", even, self.even_weights))
        t1, t2, t3 = np.einsum("ks...,jks->j...", odd, self.odd_weights)
        if not halves:
            return t0, t1, t2, t3
        theta2, theta34, _ = self.half_weights
        return (t0, t1, t2, t3, np.einsum("ks...,ks->...", odd, theta2),
                *(1.0 + np.einsum("ks...,jks->j...", even, theta34)))


@dataclass(frozen=True)
class EllipticContext:
    """Immutable lattice context with invariants and evaluator state.

    eta1, eta3 are the quasi-periods of the given half-periods; the theta
    frames read _eta_reduced, those of the reduced half-periods b1/2, b2/2.
    """

    lattice: Lattice
    g2: complex
    g3: complex
    e1: complex
    e2: complex
    e3: complex
    eta1: complex
    eta3: complex
    _eta_reduced: tuple
    _theta: _Theta

    @property
    def omega1(self) -> complex:
        return self.lattice.omega1

    @property
    def omega2(self) -> complex:
        return self.lattice.omega1 + self.lattice.omega3

    @property
    def omega3(self) -> complex:
        return self.lattice.omega3

    def half_period(self, i: int) -> complex:
        return (self.omega1, self.omega2, self.omega3)[i - 1]

    def e(self, i: int) -> complex:
        return (self.e1, self.e2, self.e3)[i - 1]

    def e_difference(self, i: int, j: int) -> complex:
        """e_i - e_j as a theta constant: in the reduced labels
        (Lattice.half_period_labels) e_1 - e_2, e_1 - e_3 and e_2 - e_3 are
        c^2 theta4(0)^4, c^2 theta3(0)^4 and c^2 theta2(0)^4, c = pi/b1 (DLMF
        23.6(i)), so a difference that cancels on a thin cell keeps its
        relative precision."""
        a, b = self._half_labels[i - 1], self._half_labels[j - 1]
        theta = 0.0 if a == b else self._theta.half_weights[2][5 - a - b]
        return (1.0 if a < b else -1.0) * (np.pi / self.lattice.reduced_periods[0]) ** 2 * theta**4

    @cached_property
    def _half_labels(self) -> list:
        """The reduced labels of omega1, omega2 and omega3."""
        return self.lattice.half_period_labels(
            [self.omega1, self.omega2, self.omega3])[0].tolist()

    def lattice_distance(self, u):
        """Distance from u to the nearest lattice point (see Lattice.distance)."""
        return self.lattice.distance(u)

    def wp_floor(self, weight: int) -> float:
        """|b1|^-weight, the lattice's own scale for a value of that weight
        (wp has 2, wp' 3): the floor of a tolerance relative to such a value.
        A product, not a power, so that a lattice scaled by a power of two
        scales it exactly."""
        return 1.0 / math.prod((abs(self.lattice.reduced_periods[0]),) * weight)


def build_context(omega1, omega3) -> EllipticContext:
    """Build an EllipticContext from the q-series in the reduced basis.

    Raises DegenerateLatticeError when the generators do not span a lattice,
    the lattice is out of double range, or an invariant check fails (_validate).
    """
    lat = Lattice(complex(omega1), complex(omega3))
    rng = np.random.default_rng(7)
    ode = rng.uniform(0.07, 0.43, 6) * 2 * lat.omega1 + rng.uniform(0.07, 0.43, 6) * 2 * lat.omega3
    # one frame on the half-periods, b1/2 and the ODE points: a frame's
    # values do not depend on its batch.  Out of double range the build fails
    # by the frame (|b1|^2 or w^-4 under- or overflows, or b1/2 lies within
    # the pole tolerance of a lattice point); from Im(tau) about 50 the theta
    # terms overflow, and _validate turns their NaN and inf into the error
    with np.errstate(all="ignore"):
        try:
            b1, b2 = lat.reduced_periods
            w, tau = b1 / 2, b2 / b1
            g2, eta_a, wp_w = _qseries(w, np.exp(2j * np.pi * tau))
            eta_b = (eta_a * (b2 / 2) - 1j * np.pi / 2.0) / w
            eta1, eta3 = (complex(m * eta_a + n * eta_b) for _, m, n in
                          (lat.reduce(2 * lat.omega1), lat.reduce(2 * lat.omega3)))
            ctx = EllipticContext(lattice=lat, g2=g2, g3=0.0, e1=0.0, e2=0.0, e3=0.0,
                                  eta1=eta1, eta3=eta3, _eta_reduced=(eta_a, eta_b),
                                  _theta=_Theta(complex(np.exp(1j * np.pi * tau))))
            frame = _theta_frame(ctx, np.concatenate(
                [[lat.omega1, lat.omega1 + lat.omega3, lat.omega3, w], ode]))
        except (ArithmeticError, ValueError):  # a PoleEvaluationError is a ValueError
            raise DegenerateLatticeError(_unrepresentable(lat)) from None
        values, slopes = frame.wp(), frame.wp_prime(slice(4, None))
        e1, e2, e3 = (complex(e) for e in values[:3])
        ctx = replace(ctx, g3=4.0 * e1 * e2 * e3, e1=e1, e2=e2, e3=e3)
        _validate(ctx, wp_w, complex(values[3]), values[4:], slopes)
    return ctx


def _unrepresentable(lat: Lattice) -> str:
    return (f"the lattice of half-periods ({lat.omega1:.6g}, {lat.omega3:.6g}) is too small, "
            "too large or too thin for double precision")


def _validate(ctx: EllipticContext, wp_w_series: complex, wp_w: complex, p, dp):
    """Check e1+e2+e3 = 0, g2 = -4*sum(ei*ej), the series wp(b1/2) against
    its frame value wp_w and the wp ODE at points where wp and wp' are p
    and dp; raise DegenerateLatticeError naming the first that fails.  A
    check passes only when its tolerance is finite and its error at most
    that tolerance, so NaN and inf fail."""
    e1, e2, e3, g2 = ctx.e1, ctx.e2, ctx.e3, ctx.g2
    b1, b2 = ctx.lattice.reduced_periods
    scale = max(abs(e1), abs(e2), abs(e3), 1e-300)
    resid = dp**2 - (4 * p**3 - g2 * p - ctx.g3)
    ode_scale = np.max(np.abs(dp) ** 2 + np.abs(4 * p**3) + abs(g2) * np.abs(p))
    for check, err, tol in (
            ("e1+e2+e3 = 0", abs(e1 + e2 + e3), 1e-10 * scale),
            ("g2 = -4*sum(ei*ej)", abs(-4.0 * (e1 * e2 + e1 * e3 + e2 * e3) - g2),
             1e-9 * max(abs(g2), scale * scale)),
            ("series wp(b1/2)", abs(wp_w_series - wp_w), 1e-8 * max(abs(wp_w), 1e-300)),
            ("wp ODE", np.max(np.abs(resid)), 1e-8 * ode_scale)):
        if not err <= tol < np.inf:
            raise DegenerateLatticeError(
                f"{check} fails by {err:.2e} (tolerance {tol:.2e}) in the reduced basis, "
                f"tau = {b2 / b1:.6g}: {_unrepresentable(ctx.lattice)}")


# points per theta batch: at 2^11 a batch's arrays (about 1 MiB at the
# square lattice's 6 terms) stay in a 2 MiB L2 cache; 2^14 points a batch
# took a third to a half longer per point on a 2-core x86_64 container
_CHUNK = 2048


class _Frame:
    """theta1 and its first three z-derivatives at the lattice-reduced points
    of u; zeta, wp and wp' of those points all finish from this one frame,
    on all of it or on the part (an index of u) a caller reads.  A point
    within the pole tolerance of the lattice raises PoleEvaluationError, or,
    with poles, is summed at b1/2 and marked in pole."""

    def __init__(self, ctx: EllipticContext, u, halves=False, poles=False):
        u = np.asarray(u, dtype=complex)
        self.ctx = ctx
        self.scalar = u.ndim == 0
        self.red, self.m, self.n = ctx.lattice.reduce(np.atleast_1d(u))
        b1 = ctx.lattice.reduced_periods[0]
        self.pole = np.abs(self.red) < ctx.lattice.pole_tolerance
        if self.pole.any():
            if not poles:
                raise PoleEvaluationError("evaluation point within 1e-12 of a lattice point")
            self.red = np.where(self.pole, b1 / 2, self.red)
        self.w, self.c = b1 / 2, np.pi / b1
        # the theta sums hold (terms, 2) values per point: _CHUNK points at a
        # time keep them in a core's cache, and bound that memory on a block
        z = (np.pi * self.red / b1).ravel()
        t = np.empty((7 if halves else 4, z.size), dtype=complex)
        for i in range(0, z.size, _CHUNK):
            for dst, src in zip(t[:, i:i + _CHUNK], ctx._theta.batch(z[i:i + _CHUNK], halves)):
                dst[...] = src
        t = t.reshape((len(t),) + self.red.shape)
        (self.t0, self.t1, self.t2, self.t3), self.halves = t[:4], t[4:]

    def zeta(self, part=...):
        eta_a, eta_b = self.ctx._eta_reduced
        val = eta_a * self.red[part] / self.w + self.c * self.t1[part] / self.t0[part]
        return val + 2.0 * self.m[part] * eta_a + 2.0 * self.n[part] * eta_b

    def wp(self, part=...):
        t0, t1 = self.t0[part], self.t1[part]
        return -self.ctx._eta_reduced[0] / self.w \
            - np.multiply(self.c**2, self.t2[part] * t0 - t1**2) / t0**2

    def wp_prime(self, part=...):
        t0, t1, t2 = self.t0[part], self.t1[part], self.t2[part]
        g = t1 / t0
        return np.multiply(-(self.c**3), self.t3[part] / t0 - 3 * t2 * t1 / t0**2 + 2 * g**3)

    def half_shifts(self, part=...):
        """(wp'(u) / 2D, (e - e_j)(e - e_k) / D), each of shape (3,) + u's part,
        D = wp(u) - e, for the reduced half-periods of labels 1 to 3
        (Lattice.half_period_labels), e their wp, from a frame taken with
        halves: the thetas th_1 to th_3 at v and T_1 to T_3 at 0 of the
        labels, and theta1 = t0, give D = c^2 (T_j T_k th_h / t0)^2 (DLMF
        23.6.2-23.6.4), j and k the other labels, and wp' = -2 c^3 (T_1 T_2
        T_3)^2 th_1 th_2 th_3 / t0^3, as wp'^2 = 4 prod (wp - e_i) and
        theta1'(0) = T_1 T_2 T_3.  So

            wp'/2D = -c T_h^2 th_1 th_2 th_3 / (th_h^2 t0),
            (e - e_j)(e - e_k)/D = s c^2 (T_1 T_2 T_3 t0 / (T_h th_h))^2,

        s = -1 at label 2, else 1, with no difference taken: both keep
        their relative precision where wp nears e or wp' nears 0 on a thin
        cell, where wp - e and wp' from the frame's sums do not."""
        th, t0, T = self.halves[:, part], self.t0[part], self.ctx._theta.half_weights[2]
        shape = (3,) + (1,) * t0.ndim
        # no complex product in place: on one point numpy rounds it apart
        square = th * th
        slope = np.multiply((-self.c * T**2).reshape(shape), th[0] * th[1] * th[2] / t0) / square
        scale = np.array([1.0, -1.0, 1.0]) * (self.c * T.prod() / T) ** 2
        return slope, np.multiply(scale.reshape(shape), t0 * t0 / square)

    def result(self, arr):
        """arr as a Python complex for a scalar argument, else as is."""
        return complex(arr[0]) if self.scalar else arr


def _theta_frame(ctx: EllipticContext, u, halves=False, poles=False) -> _Frame:
    return _Frame(ctx, u, halves, poles)


def wp(ctx: EllipticContext, u):
    """Weierstrass p-function on the context's lattice."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.wp())


def wp_prime(ctx: EllipticContext, u):
    """Derivative of wp."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.wp_prime())


def wp_with_prime(ctx: EllipticContext, u):
    """(wp, wp') from one frame, each bitwise the wp and wp_prime call's."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.wp()), frame.result(frame.wp_prime())


def wp_second(ctx: EllipticContext, u):
    """wp'' = 6 wp^2 - g2/2, from the differentiated ODE."""
    p = wp(ctx, u)
    return 6.0 * p * p - ctx.g2 / 2.0


def zeta(ctx: EllipticContext, u):
    """Weierstrass zeta, quasi-periodic: zeta(u+2w_i) = zeta(u) + 2 eta_i."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.zeta())


def wp_inverse(ctx: EllipticContext, value):
    """One point u (up to sign and lattice) with wp(u) = value.

    Coarse 36 x 36 fundamental-domain scan followed by Newton on wp(u) - value.
    """
    xs = np.linspace(0.04, 0.96, 36)
    X, Y = np.meshgrid(xs, xs)
    grid = X.ravel() * 2 * ctx.omega1 + Y.ravel() * 2 * ctx.omega3
    vals = wp(ctx, grid)
    u = grid[int(np.argmin(np.abs(vals - value)))]
    for _ in range(60):
        p, d = wp_with_prime(ctx, u)
        f = p - value
        if abs(f) < 1e-13 * max(ctx.wp_floor(2), abs(value)):
            return complex(u)
        if d == 0:
            break
        step = f / d
        if abs(step) > 0.3 * abs(ctx.omega1):
            step *= 0.3 * abs(ctx.omega1) / abs(step)
        u = u - step
    if abs(wp(ctx, u) - value) > 1e-9 * max(ctx.wp_floor(2), abs(value)):
        raise NonConvergenceError(f"wp_inverse failed to converge for value {value}")
    return complex(u)
