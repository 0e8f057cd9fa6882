"""Weierstrass elliptic layer: lattices, invariants, and p/p'/zeta evaluators.

Evaluation strategy: reduce the argument to the fundamental cell by
quasi-periodicity, then sum Jacobi theta series (geometric convergence
since |q| < 1).  With z = pi*u/(2*omega1) and theta1 at nome
q = exp(i*pi*tau),

    zeta(u) = eta1*u/omega1 + (pi/(2*omega1)) * theta1'(z)/theta1(z)
    wp(u)   = -d(zeta)/du,   wp'(u) = d(wp)/du,

which forces eta1 = -(pi^2/(12*omega1)) * theta1'''(0)/theta1'(0).  One theta
frame (theta1 and its first three derivatives at the reduced points)
gives zeta, wp and wp' alike, so callers that need several of them at
the same points take one frame from _theta_frame.

The g2 and eta1 q-series are summed in the normalization

    g2   = pi^4/(12 w1^4) * (1 + 240 sum sigma3(n) Q^n)
    eta1 = pi^2/(12 w1)   * (1 -  24 sum sigma1(n) Q^n)
    e1   = pi^2/(6 w1^2)  * (1 +  24 sum tau_odd(n) Q^n)

whose nome Q is resolved at build time: Q = exp(2*i*pi*tau) is tried
first and cross-validated against a direct Eisenstein lattice sum for g2;
on disagreement the builder retries with Q = exp(i*pi*tau).  The chosen
convention is recorded on the context.  eta3 is then derived from the
Legendre relation eta1*w3 - eta3*w1 = i*pi/2 so that the identity holds
to the accuracy of eta1 itself.

Half-period labels follow omega2 = omega1 + omega3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Lattice",
    "EllipticContext",
    "DegenerateLatticeError",
    "ConventionError",
    "PoleEvaluationError",
    "DegeneratePairError",
    "build_context",
    "wp",
    "wp_prime",
    "wp_second",
    "zeta",
    "zeta_quasi_addition",
    "principal_part_reconstruct",
    "wp_inverse",
]

THETA_TERM_CAP = 240
POLE_DISTANCE_TOL = 1e-12


class DegenerateLatticeError(ValueError):
    """The two generators do not span a lattice."""


class ConventionError(RuntimeError):
    """No nome convention reproduced the lattice invariants."""


class PoleEvaluationError(ValueError):
    """Evaluation point is within tolerance of a lattice pole."""


class DegeneratePairError(ValueError):
    """wp(u) = wp(v), so the zeta quasi-addition formula degenerates."""


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

    @property
    def tau(self) -> complex:
        return self.omega3 / self.omega1

    @property
    def nome_q(self) -> complex:
        return np.exp(1j * np.pi * self.tau)

    @cached_property
    def reduced_periods(self):
        """Lagrange-Gauss-reduced periods (b1, b2), |b1| <= |b2| <= |b2 +- b1|,
        spanning the same lattice as (2*omega1, 2*omega3)."""
        b1, b2 = 2 * self.omega1, 2 * self.omega3
        if abs(b2) < abs(b1):
            b1, b2 = b2, b1
        while True:
            mu = round((b2 * b1.conjugate()).real / abs(b1) ** 2)
            b2 = b2 - mu * b1
            if abs(b2) >= abs(b1):
                return b1, b2
            b1, b2 = b2, b1

    @cached_property
    def _neighbour_offsets(self) -> np.ndarray:
        """i*b1 + j*b2 for i, j in {-1, 0, 1}, the centre first."""
        b1, b2 = self.reduced_periods
        return np.array([i * b1 + j * b2 for i in (0, -1, 1) for j in (0, -1, 1)])

    def distance(self, u):
        """Distance from u to the nearest lattice point: a float for a scalar,
        elementwise for an array.

        Coordinates are rounded in the reduced basis, where the nearest
        lattice point is always one of the 3x3 neighbours of the rounded one.
        """
        u = np.asarray(u, dtype=complex)
        b1, b2 = self.reduced_periods
        det = b1.real * b2.imag - b1.imag * b2.real
        x = (u.real * b2.imag - u.imag * b2.real) / det
        y = (u.imag * b1.real - u.real * b1.imag) / det
        red = u - np.round(x) * b1 - np.round(y) * b2
        d = np.min(np.abs(red[..., None] - self._neighbour_offsets), axis=-1)
        return float(d) if d.ndim == 0 else d


def _divisor_sigma(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _odd_divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1, 2) if n % d == 0)


@lru_cache(maxsize=8)
def _series_coeffs(terms: int):
    s3 = np.array([_divisor_sigma(n, 3) for n in range(1, terms + 1)], dtype=float)
    s1 = np.array([_divisor_sigma(n, 1) for n in range(1, terms + 1)], dtype=float)
    todd = np.array([_odd_divisor_sum(n) for n in range(1, terms + 1)], dtype=float)
    return s3, s1, todd


def _qseries(omega1: complex, Q: complex, terms: int = 64):
    """(g2, eta1, e1) from the sigma3/sigma1/odd-divisor q-series."""
    s3, s1, todd = _series_coeffs(terms)
    qn = Q ** np.arange(1, terms + 1)
    g2 = np.pi**4 / (12 * omega1**4) * (1 + 240 * np.sum(s3 * qn))
    eta1 = np.pi**2 / (12 * omega1) * (1 - 24 * np.sum(s1 * qn))
    e1 = np.pi**2 / (6 * omega1**2) * (1 + 24 * np.sum(todd * qn))
    return complex(g2), complex(eta1), complex(e1)


def _g2_lattice_sum(lat: Lattice) -> complex:
    """g2 = 60 * sum' lambda^-4, Richardson-extrapolated in the cutoff.

    The truncation error of the disk sum scales like R^-2, so two cutoffs
    M and 2M give the extrapolation S + (S_2M - S_M)/3.
    """
    p1, p3 = 2 * lat.omega1, 2 * lat.omega3

    def partial(M):
        m = np.arange(-M, M + 1)
        mm, nn = np.meshgrid(m, m)
        lam = mm * p1 + nn * p3
        lam = lam[(mm != 0) | (nn != 0)]
        return np.sum(lam**-4.0)

    s1 = partial(256)
    s2 = partial(512)
    return complex(60.0 * (s2 + (s2 - s1) / 3.0))


class _Theta:
    """theta1 and its first three z-derivatives at fixed nome q."""

    def __init__(self, q: complex):
        self.q = q
        terms = []
        n = 0
        while n < THETA_TERM_CAP:
            coeff = (-1) ** n * q ** ((n + 0.5) ** 2)
            terms.append((2 * n + 1, coeff))
            if abs(coeff) * (2 * n + 1) ** 3 < 1e-22 and n >= 4:
                break
            n += 1
        self.k = np.array([t[0] for t in terms], dtype=float)
        self.c = np.array([t[1] for t in terms], dtype=complex)

    def batch(self, z: np.ndarray):
        """Return theta1, theta1', theta1'', theta1''' at each z."""
        kz = np.multiply.outer(z, self.k)
        s = np.sin(kz)
        c = np.cos(kz)
        k1 = self.k
        t0 = 2.0 * np.sum(self.c * s, axis=-1)
        t1 = 2.0 * np.sum(self.c * k1 * c, axis=-1)
        t2 = -2.0 * np.sum(self.c * k1**2 * s, axis=-1)
        t3 = -2.0 * np.sum(self.c * k1**3 * c, axis=-1)
        return t0, t1, t2, t3


@dataclass(frozen=True)
class EllipticContext:
    """Immutable lattice context with invariants and evaluator state."""

    lattice: Lattice
    g2: complex
    g3: complex
    e1: complex
    e2: complex
    e3: complex
    eta1: complex
    eta3: complex
    nome_convention: str
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

    def reduce(self, u):
        """Reduce modulo the lattice: u = u_red + 2*m*w1 + 2*n*w3."""
        u = np.asarray(u, dtype=complex)
        p1, p3 = 2 * self.omega1, 2 * self.omega3
        det = p1.real * p3.imag - p1.imag * p3.real
        x = (u.real * p3.imag - u.imag * p3.real) / det
        y = (u.imag * p1.real - u.real * p1.imag) / det
        m = np.round(x)
        n = np.round(y)
        return u - m * p1 - n * p3, m, n

    def lattice_distance(self, u):
        """Distance from u to the nearest lattice point (see Lattice.distance)."""
        return self.lattice.distance(u)


def build_context(omega1, omega3, terms: int = 64) -> EllipticContext:
    """Build an EllipticContext, resolving the q-series nome convention.

    Validation: the series g2 must match a direct Eisenstein lattice sum;
    then e1+e2+e3 = 0, g2 = -4*sum(ei*ej), the series e1, and the wp ODE
    must all hold.  A convention that fails any check is discarded; if
    both fail a ConventionError is raised.
    """
    lat = Lattice(complex(omega1), complex(omega3))
    tau = lat.tau
    g2_direct = _g2_lattice_sum(lat)
    failures = []
    for name, Q in (("q=exp(2*i*pi*tau)", np.exp(2j * np.pi * tau)),
                    ("q=exp(i*pi*tau)", np.exp(1j * np.pi * tau))):
        g2s, eta1s, e1s = _qseries(lat.omega1, Q, terms)
        rel = abs(g2s - g2_direct) / max(abs(g2_direct), 1e-300)
        if rel > 1e-6:
            failures.append(f"{name}: series g2 off lattice sum by {rel:.2e}")
            continue
        ctx = _assemble(lat, g2s, eta1s, name)
        err = _validate(ctx, e1s)
        if err is None:
            return ctx
        failures.append(f"{name}: {err}")
    raise ConventionError("; ".join(failures))


def _assemble(lat: Lattice, g2: complex, eta1: complex, convention: str) -> EllipticContext:
    theta = _Theta(complex(lat.nome_q))
    eta3 = (eta1 * lat.omega3 - 1j * np.pi / 2.0) / lat.omega1
    ctx = EllipticContext(lattice=lat, g2=g2, g3=0.0, e1=0.0, e2=0.0, e3=0.0,
                          eta1=eta1, eta3=eta3, nome_convention=convention, _theta=theta)
    e1 = complex(wp(ctx, lat.omega1))
    e2 = complex(wp(ctx, lat.omega1 + lat.omega3))
    e3 = complex(wp(ctx, lat.omega3))
    g3 = 4.0 * e1 * e2 * e3
    return EllipticContext(lattice=lat, g2=g2, g3=g3, e1=e1, e2=e2, e3=e3,
                           eta1=eta1, eta3=eta3, nome_convention=convention, _theta=theta)


def _validate(ctx: EllipticContext, e1_series: complex):
    scale = max(abs(ctx.e1), abs(ctx.e2), abs(ctx.e3), 1e-300)
    if abs(ctx.e1 + ctx.e2 + ctx.e3) > 1e-10 * scale:
        return f"e1+e2+e3 = {abs(ctx.e1 + ctx.e2 + ctx.e3):.2e}"
    g2_from_e = -4.0 * (ctx.e1 * ctx.e2 + ctx.e1 * ctx.e3 + ctx.e2 * ctx.e3)
    if abs(g2_from_e - ctx.g2) > 1e-9 * max(abs(ctx.g2), 1e-300):
        return f"g2 from e_i off series by {abs(g2_from_e - ctx.g2):.2e}"
    if abs(e1_series - ctx.e1) > 1e-8 * max(abs(ctx.e1), 1e-300):
        return f"e1 series off wp(omega1) by {abs(e1_series - ctx.e1):.2e}"
    rng = np.random.default_rng(7)
    pts = (rng.uniform(0.07, 0.43, 6) * 2 * ctx.omega1
           + rng.uniform(0.07, 0.43, 6) * 2 * ctx.omega3)
    p = wp(ctx, pts)
    dp = wp_prime(ctx, pts)
    resid = dp**2 - (4 * p**3 - ctx.g2 * p - ctx.g3)
    ode_scale = np.max(np.abs(dp) ** 2 + np.abs(4 * p**3) + abs(ctx.g2) * np.abs(p))
    if np.max(np.abs(resid)) > 1e-8 * ode_scale:
        return f"wp ODE residual {np.max(np.abs(resid)):.2e}"
    return None


class _Frame:
    """theta1 and its first three z-derivatives at the lattice-reduced points
    of u; zeta, wp and wp' of those points all finish from this one frame."""

    def __init__(self, ctx: EllipticContext, u, need_pole_check=True):
        u = np.asarray(u, dtype=complex)
        self.ctx = ctx
        self.scalar = u.ndim == 0
        self.red, self.m, self.n = ctx.reduce(np.atleast_1d(u))
        if need_pole_check:
            tol = POLE_DISTANCE_TOL * max(1.0, abs(2 * ctx.omega1), abs(2 * ctx.omega3))
            if np.any(np.abs(self.red) < tol):
                raise PoleEvaluationError("evaluation point within 1e-12 of a lattice point")
        self.t0, self.t1, self.t2, self.t3 = ctx._theta.batch(np.pi * self.red / (2 * ctx.omega1))

    def zeta(self):
        ctx = self.ctx
        c = np.pi / (2 * ctx.omega1)
        val = ctx.eta1 * self.red / ctx.omega1 + c * self.t1 / self.t0
        return val + 2.0 * self.m * ctx.eta1 + 2.0 * self.n * ctx.eta3

    def wp(self):
        ctx, t0, t1 = self.ctx, self.t0, self.t1
        c = np.pi / (2 * ctx.omega1)
        return -ctx.eta1 / ctx.omega1 - c**2 * (self.t2 * t0 - t1**2) / t0**2

    def wp_prime(self):
        t0, t1, t2 = self.t0, self.t1, self.t2
        c = np.pi / (2 * self.ctx.omega1)
        g = t1 / t0
        return -(c**3) * (self.t3 / t0 - 3 * t2 * t1 / t0**2 + 2 * g**3)

    def result(self, arr):
        """arr as a Python complex for a scalar argument, else as is."""
        return complex(arr[0]) if self.scalar else arr


def _theta_frame(ctx: EllipticContext, u, need_pole_check=True) -> _Frame:
    return _Frame(ctx, u, need_pole_check)


def wp(ctx: EllipticContext, u):
    """Weierstrass p-function on the context's lattice."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.wp())


def wp_prime(ctx: EllipticContext, u):
    """Derivative of wp."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.wp_prime())


def wp_second(ctx: EllipticContext, u):
    """wp'' = 6 wp^2 - g2/2, from the differentiated ODE."""
    p = wp(ctx, u)
    return 6.0 * p * p - ctx.g2 / 2.0


def zeta(ctx: EllipticContext, u):
    """Weierstrass zeta, quasi-periodic: zeta(u+2w_i) = zeta(u) + 2 eta_i."""
    frame = _theta_frame(ctx, u)
    return frame.result(frame.zeta())


def zeta_quasi_addition(ctx: EllipticContext, u, v):
    """(1/2)(wp'(u)+wp'(v))/(wp(u)-wp(v)) = zeta(u-v) - zeta(u) + zeta(v)."""
    pu, pv = wp(ctx, u), wp(ctx, v)
    den = pu - pv
    scale = max(abs(pu), abs(pv), 1.0)
    if np.min(np.abs(np.atleast_1d(den))) < 1e-12 * scale:
        raise DegeneratePairError("wp(u) = wp(v)")
    return 0.5 * (wp_prime(ctx, u) + wp_prime(ctx, v)) / den


def principal_part_reconstruct(ctx: EllipticContext, poles, probe):
    """sum_i a_i * wp(probe - a_i) for second-order residue-free poles.

    The caller supplies the additive constant; this is the wp-sum part of
    the standard principal-part expansion of an elliptic function.
    """
    total = 0.0 + 0.0j
    for location, coefficient in poles:
        total += coefficient * wp(ctx, probe - location)
    return total


def wp_inverse(ctx: EllipticContext, value, seed_grid: int = 36):
    """One point u (up to sign and lattice) with wp(u) = value.

    Coarse fundamental-domain scan followed by Newton on wp(u) - value.
    """
    xs = np.linspace(0.04, 0.96, seed_grid)
    X, Y = np.meshgrid(xs, xs)
    grid = X.ravel() * 2 * ctx.omega1 + Y.ravel() * 2 * ctx.omega3
    vals = wp(ctx, grid)
    u = grid[int(np.argmin(np.abs(vals - value)))]
    for _ in range(60):
        f = wp(ctx, u) - value
        if abs(f) < 1e-13 * max(1.0, abs(value)):
            return complex(u)
        d = wp_prime(ctx, u)
        if d == 0:
            break
        step = f / d
        if abs(step) > 0.3 * abs(ctx.omega1):
            step *= 0.3 * abs(ctx.omega1) / abs(step)
        u = u - step
    if abs(wp(ctx, u) - value) > 1e-9 * max(1.0, abs(value)):
        raise RuntimeError(f"wp_inverse failed to converge for value {value}")
    return complex(u)
