"""Complex-linear-algebra kernel: pfaffians, skew kernels, roots, quadrature.

Everything here is a pure function on immutable inputs.  The pfaffian is
computed by skew-symmetric Gaussian elimination with pivoting (O(n^3));
the term expansions for small sizes live only in the test suite, as
oracles.  Polynomial roots come from the companion matrix with one Newton
polish per root.  Contour integrals use composite Gauss-Legendre panels
with panel doubling until the result is stable; a vector integrand gives
m integrals from one set of path points, stopping when every entry is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "SkewMatrix",
    "ComplexPolynomial",
    "QuadraturePath",
    "NonConvergenceError",
    "pfaffian",
    "skew_rank_kernel",
    "poly_roots",
    "contour_integral",
]

SKEW_CONSTRUCTION_TOL = 1e-12


class NonConvergenceError(RuntimeError):
    """An iterative routine hit its cap before reaching its tolerance."""


@dataclass(frozen=True)
class SkewMatrix:
    """A skew-symmetric complex matrix with exact-zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("SkewMatrix requires a square matrix of dimension >= 1")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a + a.T)) > SKEW_CONSTRUCTION_TOL * scale:
            raise ValueError("matrix is not skew-symmetric within construction tolerance")
        if np.any(np.diagonal(a) != 0):
            raise ValueError("diagonal must be exactly zero")
        object.__setattr__(self, "entries", a)

    @classmethod
    def antisymmetrize(cls, a) -> "SkewMatrix":
        """Force skewness: A -> (A - A^T)/2 with an exactly-zero diagonal."""
        a = np.asarray(a, dtype=complex)
        b = (a - a.T) / 2.0
        np.fill_diagonal(b, 0.0)
        return cls(b)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients, ascending degree order."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if len(c) == 0 or (len(c) > 1 and c[-1] == 0):
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def deriv(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial((0.0,))
        return ComplexPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))


@dataclass(frozen=True)
class QuadraturePath:
    """A straight segment or a circle, with orientation and a sample hint."""

    kind: str  # "segment" | "circle"
    start: complex = 0.0
    end: complex = 0.0
    center: complex = 0.0
    radius: float = 0.0
    orientation: int = 1
    samples: int = 32

    def __post_init__(self):
        if self.kind not in ("segment", "circle"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        if self.kind == "circle" and not self.radius > 0:
            raise ValueError("circle radius must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @classmethod
    def segment(cls, start, end, samples: int = 32) -> "QuadraturePath":
        return cls(kind="segment", start=complex(start), end=complex(end), samples=samples)

    @classmethod
    def circle(cls, center, radius, orientation: int = 1, samples: int = 32) -> "QuadraturePath":
        return cls(kind="circle", center=complex(center), radius=float(radius),
                   orientation=orientation, samples=samples)


def pfaffian(a: SkewMatrix) -> complex:
    """Pfaffian via skew elimination with full pivoting; 0 for odd dimension.

    Congruence transforms P^T A P with det P = 1 preserve the pfaffian;
    row/column swaps flip its sign.  The running product of the
    (k, k+1) pivots is the pfaffian of the block-diagonalized matrix.
    """
    m = np.array(a.entries, dtype=complex)
    n = m.shape[0]
    if n % 2 == 1:
        return 0.0 + 0.0j
    pf = 1.0 + 0.0j

    def swap(i, j):
        m[[i, j], :] = m[[j, i], :]
        m[:, [i, j]] = m[:, [j, i]]

    for k in range(0, n - 1, 2):
        sub = np.abs(m[k:, k:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] == 0.0:
            return 0.0 + 0.0j
        i += k
        j += k
        if i != k:
            swap(i, k)
            pf = -pf
            if j == k:
                j = i
        if j != k + 1:
            swap(j, k + 1)
            pf = -pf
        pivot = m[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            # zero out row/col k (using row k+1) and row/col k+1 (using row k)
            mu = m[k, k + 2:] / pivot
            nu = m[k + 1, k + 2:] / pivot
            m[k + 2:, :] -= np.outer(mu, m[k + 1, :]) - np.outer(nu, m[k, :])
            m[:, k + 2:] -= np.outer(m[:, k + 1], mu) - np.outer(m[:, k], nu)
    return complex(pf)


def skew_rank_kernel(a: SkewMatrix, tol: float = 1e-9, scale: float = None):
    """Even rank of a skew matrix plus an orthonormal kernel basis.

    The cutoff is tol times the largest singular value, or tol times the
    caller-supplied scale when that is larger (needed when the matrix may
    consist entirely of rounding noise around zero).  Singular values of
    a skew-symmetric matrix come in equal pairs, so a threshold that
    lands inside a pair is resolved by keeping or dropping the pair.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = a.entries
    n = m.shape[0]
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if n else 0.0
    cut = tol * max(smax, scale if scale is not None else 0.0)
    if smax == 0.0 or smax <= cut:
        return 0, [np.eye(n, dtype=complex)[:, j] for j in range(n)]
    rank = int(np.sum(s > cut))
    if rank % 2 == 1:
        # the threshold split a singular-value pair; decide it as a pair
        lo = s[rank] if rank < n else 0.0
        if s[rank - 1] * lo > cut * cut:
            rank += 1
        else:
            rank -= 1
    kernel = [vh[j, :].conj() for j in range(rank, n)]
    return rank, kernel


def poly_roots(p: ComplexPolynomial):
    """All complex roots (with multiplicity) via companion matrix plus two
    damped Newton steps.

    The residual |p(r)| is required to be finite and below 1e-10 times the
    evaluation scale sum(|c_k| |r|^k); otherwise the solve is reported as
    non-convergent.  Overflow on the way shows only in that residual: no
    floating-point warning escapes.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    desc = np.array(p.coeffs[::-1], dtype=complex)
    dp = p.deriv()
    with np.errstate(all="ignore"):
        roots = np.roots(desc)
        for _ in range(2):
            pv = np.array([p(r) for r in roots])
            dv = np.array([dp(r) for r in roots])
            safe = np.abs(dv) > 0
            step = np.zeros_like(roots)
            step[safe] = pv[safe] / dv[safe]
            # damp the correction to avoid ping-ponging between clustered roots
            big = np.abs(step) > 0.5 * (1.0 + np.abs(roots))
            step[big] = 0.0
            roots = roots - step
        for r in roots:
            scale = sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            res = abs(p(r))
            if not (np.isfinite(res) and res <= 1e-10 * max(scale, 1e-300)):
                raise NonConvergenceError(
                    f"root {r} has residual {res:.3e} above 1.0e-10 * scale")
    return [complex(r) for r in roots]


_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@lru_cache(maxsize=None)
def _gl_rule(panels: int):
    """Composite Gauss-Legendre nodes t and weights w on [0, 1] for a panel
    count, as read-only arrays."""
    t0 = np.linspace(0.0, 1.0, panels + 1)
    mid = (t0[:-1, None] + t0[1:, None]) / 2.0
    half = (t0[1:, None] - t0[:-1, None]) / 2.0
    t = (mid + half * _GL_NODES[None, :]).ravel()
    w = (half * _GL_WEIGHTS[None, :]).ravel()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gl_panels(f: Callable, param, dparam, *panel_counts):
    """(sum, L1 sum) of the contributions for each panel count, from one call
    of f on the nodes of all counts together.  f acts pointwise, so each
    count's sums are those of a call on its own nodes alone."""
    t, w = (np.concatenate(x) for x in zip(*map(_gl_rule, panel_counts)))
    contributions = np.asarray(f(param(t)), dtype=complex) * dparam(t) * w
    ends = np.cumsum([_GL_ORDER * n for n in panel_counts])
    return [(np.sum(c, axis=-1), np.sum(np.abs(c), axis=-1))
            for c in np.split(contributions, ends[:-1], axis=-1)]


def contour_integral(f: Callable, path: QuadraturePath,
                     rel_tol: float = 1e-8, max_panels: int = 4096):
    """Integrate f dz along the path, doubling panels until stable.

    f is called on an array of path points and returns their values (or
    one value that broadcasts to them), or an (m, points) array for m
    integrands at once.  Each entry must pass the stopping rule with its
    own L1 floor; the result is a complex for a scalar integrand and an
    (m,) array for a vector one.  The first level and its doubling take
    one call of f on both levels' points; each later doubling takes one.
    """
    if path.kind == "segment":
        z0, z1 = path.start, path.end
        if path.orientation < 0:
            z0, z1 = z1, z0
        param = lambda t: z0 + (z1 - z0) * t
        dparam = lambda t: (z1 - z0) * np.ones_like(t)
    else:
        c, r, sgn = path.center, path.radius, path.orientation
        param = lambda t: c + r * np.exp(2j * np.pi * sgn * t)
        dparam = lambda t: 2j * np.pi * sgn * r * np.exp(2j * np.pi * sgn * t)

    panels = max(1, int(np.ceil(path.samples / _GL_ORDER)))
    levels = _gl_panels(f, param, dparam, panels, 2 * panels) if panels <= max_panels else []
    while levels:
        (prev, _), (cur, l1) = levels
        # the L1 term is a rounding-noise floor for integrals that vanish
        if np.all(np.abs(cur - prev) <= rel_tol * np.abs(cur) + 500 * np.finfo(float).eps * l1):
            return complex(cur) if cur.ndim == 0 else cur
        panels *= 2
        levels = [(cur, l1)] + _gl_panels(f, param, dparam, 2 * panels) \
            if panels <= max_panels else []
    raise NonConvergenceError(
        f"contour integral did not stabilize to {rel_tol:.1e} within {max_panels} panels")
