"""Complex-linear-algebra kernel: pfaffians, skew kernels, roots, quadrature.

Everything here is a pure function on immutable inputs.  The pfaffian is
computed by skew-symmetric Gaussian elimination with pivoting (O(n^3));
the term expansions for small sizes are its oracles, in the test suite
and in acceptance.criterion_1_pfaffian.  Polynomial roots come from the companion matrix with one Newton
polish per root.  Contour integrals double their nodes until stable:
Gauss-Legendre panels on open segments, the geometrically convergent
trapezoid on periodic paths; a vector integrand gives m integrals from one
set of path points, stopping when every entry is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "SkewMatrix",
    "QuadraturePath",
    "NonConvergenceError",
    "pfaffian",
    "skew_rank_kernel",
    "poly_roots",
    "contour_integral",
    "chart_exponent",
    "scale_parts",
]

SKEW_CONSTRUCTION_TOL = 1e-12
# the rank cut: a singular value at most RANK_TOL of the largest is zero
RANK_TOL = 1e-9


class NonConvergenceError(RuntimeError):
    """An iterative routine hit its cap before reaching its tolerance."""


@dataclass(frozen=True)
class SkewMatrix:
    """A skew-symmetric complex matrix with exact-zero diagonal: max|a + a^T|
    at most SKEW_CONSTRUCTION_TOL of max|a|, so the check reads the same at
    every scale, and a NaN fails it."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("SkewMatrix requires a square matrix of dimension >= 1")
        if not np.max(np.abs(a + a.T)) <= SKEW_CONSTRUCTION_TOL * np.max(np.abs(a)):
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


@dataclass(frozen=True)
class QuadraturePath:
    """A straight path from start to end with a sample hint: an open segment
    for Gauss-Legendre panels, or a period path, across which the integrand
    is periodic, for the trapezoid on start + (k / N)(end - start), k < N."""

    kind: str  # "segment" | "period"
    start: complex = 0.0
    end: complex = 0.0
    samples: int = 32

    def __post_init__(self):
        if self.kind not in ("segment", "period"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        if self.kind == "period" and (self.samples % 2 or self.start == self.end):
            raise ValueError("a period path needs an even sample count and start != end")

    @classmethod
    def segment(cls, start, end, samples: int = 32) -> "QuadraturePath":
        return cls(kind="segment", start=complex(start), end=complex(end), samples=samples)

    @classmethod
    def period(cls, start, end, samples: int = 32) -> "QuadraturePath":
        return cls(kind="period", start=complex(start), end=complex(end), samples=samples)


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


def skew_rank_kernel(a: SkewMatrix):
    """Even rank of a skew matrix plus an orthonormal kernel basis.

    The cutoff is RANK_TOL times the largest singular value, so a matrix of
    rounding noise around zero must come with that noise set to 0 (as
    OmegaForm.rank_kernel does).  Singular values of a skew-symmetric
    matrix come in equal pairs, so a threshold that lands inside a pair is
    resolved by keeping or dropping the pair.
    """
    m = a.entries
    n = m.shape[0]
    u, s, vh = np.linalg.svd(m)
    smax = s[0] if n else 0.0
    cut = RANK_TOL * smax
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


def poly_roots(coeffs):
    """All complex roots (with multiplicity) of the polynomial with the
    ascending coefficients coeffs, via companion matrix plus two damped
    Newton steps.  Trailing zero coefficients are dropped; what is left
    must have degree >= 1.

    The residual |p(r)| is required to be finite and below 1e-10 times the
    evaluation scale sum(|c_k| |r|^k); otherwise the solve is reported as
    non-convergent.  Overflow on the way shows only in that residual: no
    floating-point warning escapes.
    """
    c = [complex(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if len(c) < 2:
        raise ValueError("degree must be >= 1")
    dc = [k * x for k, x in enumerate(c)][1:]

    def horner(cs, z):
        acc = 0.0 + 0.0j
        for x in reversed(cs):
            acc = acc * z + x
        return acc
    with np.errstate(all="ignore"):
        roots = np.roots(np.array(c[::-1], dtype=complex))
        for _ in range(2):
            pv = np.array([horner(c, r) for r in roots])
            dv = np.array([horner(dc, r) for r in roots])
            safe = np.abs(dv) > 0
            step = np.zeros_like(roots)
            step[safe] = pv[safe] / dv[safe]
            # damp the correction to avoid ping-ponging between clustered roots
            big = np.abs(step) > 0.5 * (1.0 + np.abs(roots))
            step[big] = 0.0
            roots = roots - step
        for r in roots:
            scale = sum(abs(x) * abs(r) ** k for k, x in enumerate(c))
            res = abs(horner(c, r))
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


def _gl_levels(f: Callable, path: QuadraturePath, max_panels: int):
    """(previous, current, L1) sums of the Gauss-Legendre panels at each
    doubling.  The first two levels take one call of f; f acts pointwise, so
    each level's sums are those of a call on its own nodes alone."""
    z0, span = path.start, path.end - path.start

    def sums(*panel_counts):
        t, w = (np.concatenate(x) for x in zip(*map(_gl_rule, panel_counts)))
        terms = np.asarray(f(z0 + span * t), dtype=complex) * span * w
        ends = np.cumsum([_GL_ORDER * n for n in panel_counts])[:-1]
        return [(np.sum(c, axis=-1), np.sum(np.abs(c), axis=-1))
                for c in np.split(terms, ends, axis=-1)]
    panels = max(1, int(np.ceil(path.samples / _GL_ORDER)))
    levels = sums(panels, 2 * panels) if panels <= max_panels else []
    while levels:
        (prev, _), (cur, l1) = levels
        yield prev, cur, l1
        panels *= 2
        levels = [(cur, l1)] + sums(2 * panels) if panels <= max_panels else []


def _trapezoid_levels(f: Callable, path: QuadraturePath, max_points: int):
    """(previous, current, L1) sums of the trapezoid at each doubling of its
    N nodes.  The first call takes N nodes, of which the even-indexed half
    is the level before; each doubling evaluates only the N new nodes."""
    z0, span, n = path.start, path.end - path.start, path.samples

    def sums(t):
        out = f(z0 + span * t)
        values, mags = out if isinstance(out, tuple) else (out, np.abs(out))
        return values, np.sum(values, axis=-1), np.sum(mags, axis=-1)
    if n <= max_points:
        values, total, l1 = sums(np.arange(n) / n)
        prev = np.sum(values[..., ::2], axis=-1) * (2 * span / n)
    while n <= max_points:
        cur = total * (span / n)
        yield prev, cur, l1 * abs(span / n)
        if 2 * n <= max_points:
            _, new, new_l1 = sums((np.arange(n) + 0.5) / n)
            total, l1 = total + new, l1 + new_l1
        prev, n = cur, 2 * n


def contour_integral(f: Callable, path: QuadraturePath,
                     rel_tol: float = 1e-8, max_panels: int = 4096):
    """Integrate f dz along the path, doubling its nodes until stable.

    f is called on an array of path points and returns their values, or
    an (m, points) array for m integrands at once.  Each entry must pass
    the stopping rule with its own L1 floor, all at the same level; the
    result is a complex for a scalar integrand and an (m,) array for a
    vector one.  A segment's lower level takes at most max_panels panels,
    a period path at most 16 * max_panels nodes.  On a period path f may
    return (values, magnitudes), the magnitudes of uncancelled terms >=
    |values|, whose L1 sum then sets the floor.
    """
    levels = (_gl_levels(f, path, max_panels) if path.kind == "segment"
              else _trapezoid_levels(f, path, _GL_ORDER * max_panels))
    for prev, cur, l1 in levels:
        # the L1 term is a rounding-noise floor for integrals that vanish
        if np.all(np.abs(cur - prev) <= rel_tol * np.abs(cur) + 500 * np.finfo(float).eps * l1):
            return complex(cur) if np.ndim(cur) == 0 else cur
    raise NonConvergenceError(
        f"contour integral did not stabilize to {rel_tol:.1e} within {max_panels} panels")


def chart_exponent(length: float) -> int:
    """m with length / 4^m in [1/2, 2); 0 for 0, inf and NaN."""
    return math.frexp(length)[1] // 2


def scale_parts(z, f):
    """z times real factors f, which broadcast to its shape, part by part,
    so that a zero part keeps its sign, which the complex product by f + 0j
    does not."""
    out = np.array(z, dtype=complex)
    out.real *= f
    out.imag *= f
    return out
