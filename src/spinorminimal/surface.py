"""Geometry from a spinor pair: X = Re int (s1^2 - s2^2, i(s1^2 + s2^2), 2 s1 s2).

The mesh integrator lays a rectangular grid over the domain chart
(square [-L, L]^2 on the sphere, the fundamental cell on a torus), drops
vertices within the end clearance, integrates the Weierstrass form along
a spanning tree of grid edges from the basepoint, and reports
loop-closure residuals as a built-in integrability check.  It works on
whole grid arrays: the validity mask takes one array distance per end,
edges between valid neighbours come from slices of that mask, the tree
potential grows one breadth-first wavefront at a time, every cell's
loop residual and face comes from array slices, and the normals from
one batched Gauss map.  Edge quadrature is Gauss-Legendre in one batched
call; its chunks run on a thread pool capped by SPINOR_MINIMAL_THREADS,
with index-keyed assembly so output is deterministic regardless of
execution order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numkit import QuadraturePath
from .spinor import (
    EndDivisor,
    SectionDataError,
    SphereDomain,
    SpinorSection,
    is_infinity,
    period_integral,
    rational_sphere_basis,
    section_values,
)

__all__ = [
    "WeierstrassData",
    "GridSpec",
    "SurfaceMesh",
    "integrate_surface",
    "period_vector",
    "real_period",
    "branch_points",
    "gauss_map",
    "export_obj",
    "export_csv",
    "integrate_position",
    "enneper_data",
    "total_curvature_estimate",
]

_GL_EDGE = 12
_EDGE_NODES, _EDGE_WEIGHTS = np.polynomial.legendre.leggauss(_GL_EDGE)


def _thread_cap() -> int:
    try:
        return max(1, int(os.environ.get("SPINOR_MINIMAL_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class WeierstrassData:
    """A spinor pair on one basis with an end clearance (chart units)."""

    s1: SpinorSection
    s2: SpinorSection
    end_clearance: float = None

    def __post_init__(self):
        if self.s1.basis is not self.s2.basis:
            raise SectionDataError("sections must share a basis")
        if self.end_clearance is None:
            eps = 0.05 * self._min_end_separation()
            object.__setattr__(self, "end_clearance", eps)
        if not self.end_clearance > 0:
            raise ValueError("end clearance must be positive")

    def _min_end_separation(self) -> float:
        dom = self.s1.domain
        pts = [p for p in dom.ends.points if not is_infinity(p)]
        if len(pts) < 2:
            return 1.0
        return min(dom.distance(p, q)
                   for i, p in enumerate(pts) for q in pts[i + 1:])

    @property
    def domain(self):
        return self.s1.domain

    def omega(self, u):
        """The three 1-form coefficients of dX at u, shape (3, ...)."""
        u = np.asarray(u, dtype=complex)
        f1, f2 = section_values((self.s1, self.s2), u)
        mu = self.domain.form_weight(u)
        return np.stack([(f1 * f1 - f2 * f2) * mu,
                         1j * (f1 * f1 + f2 * f2) * mu,
                         2.0 * f1 * f2 * mu])

    def end_distance(self, u):
        """Chart distance from each point of u to the nearest finite end."""
        dom = self.domain
        return _nearest(dom, [p for p in dom.ends.points if not is_infinity(p)], u)

    def chart_singular_distance(self, u):
        """Distance to chart singularities that are not ends (e.g. the
        lattice point and omega_r for the untwisted torus chart)."""
        dom = self.domain
        extra = [p for p in dom.singular_points()
                 if all(dom.distance(p, q) > 1e-9 for q in dom.ends.points
                        if not is_infinity(q))]
        return _nearest(dom, extra, u)


def _nearest(dom, points, u) -> np.ndarray:
    """min over points p of dom.distance(u, p), one array distance per point."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if not points:
        return np.full(u.shape, np.inf)
    return np.min([dom.distance(u, p) for p in points], axis=0)


@dataclass(frozen=True)
class GridSpec:
    """Chart grid: nx * ny vertices; extent L means [-L, L]^2 on the sphere.

    On a torus the unit square of lattice fractions is used and extent is
    ignored.
    """

    nx: int = 65
    ny: int = 65
    extent: float = 2.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 vertices")


@dataclass
class SurfaceMesh:
    vertices: np.ndarray  # (N, 3) real
    faces: np.ndarray  # (M, 3) int, 0-based
    gauss: np.ndarray  # (N, 3) unit normals
    domain_uv: np.ndarray  # (N,) complex chart coordinates
    metadata: dict = field(default_factory=dict)

    def vertex_at(self, u, tol=1e-9):
        """Index of the mesh vertex at chart coordinate u."""
        d = np.abs(self.domain_uv - complex(u))
        k = int(np.argmin(d))
        if d[k] > tol:
            raise KeyError(f"no mesh vertex at {u} (closest {d[k]:.2e} away)")
        return k


def _grid_coordinates(data: WeierstrassData, grid: GridSpec):
    dom = data.domain
    if dom.genus == 1:
        ctx = dom.ctx
        fx = np.linspace(0.0, 1.0, grid.nx)
        fy = np.linspace(0.0, 1.0, grid.ny)
        FX, FY = np.meshgrid(fx, fy, indexing="ij")
        U = FX * (2 * ctx.omega1) + FY * (2 * ctx.omega3)
    else:
        xs = np.linspace(-grid.extent, grid.extent, grid.nx)
        ys = np.linspace(-grid.extent, grid.extent, grid.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        U = X + 1j * Y
    return U


def _edge_integrals(data: WeierstrassData, starts, ends):
    """Integrate omega along straight chart edges; returns (E, 3) complex."""
    starts = np.asarray(starts, dtype=complex)
    ends = np.asarray(ends, dtype=complex)
    mid = (starts[:, None] + ends[:, None]) / 2.0
    half = (ends[:, None] - starts[:, None]) / 2.0
    nodes = mid + half * _EDGE_NODES[None, :]

    def worker(idx):
        u = nodes[idx].ravel()
        w = data.omega(u).reshape(3, len(idx), _GL_EDGE)
        return np.einsum("kej,j,e->ek", w, _EDGE_WEIGHTS, half[idx, 0])

    cap = _thread_cap()
    chunks = np.array_split(np.arange(len(starts)), max(1, min(cap * 4, len(starts))))
    chunks = [c for c in chunks if len(c)]
    if cap == 1 or len(chunks) == 1:
        results = [worker(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=cap) as pool:
            results = list(pool.map(worker, chunks))
    out = np.zeros((len(starts), 3), dtype=complex)
    for c, r in zip(chunks, results):
        out[c] = r
    return out


def integrate_surface(data: WeierstrassData, grid: GridSpec, basepoint) -> SurfaceMesh:
    """Spanning-tree integration of Re(omega) over the masked chart grid.

    The basepoint must be a grid vertex at clearance distance from every
    end; its image is the origin.  Loop-closure residuals over random
    grid cells are recorded in the metadata (20 cells, plus the maximum
    over all cells).
    """
    U = _grid_coordinates(data, grid)
    nx, ny = U.shape
    eps = data.end_clearance
    valid = data.end_distance(U.ravel()).reshape(U.shape) > eps
    # drop vertices sitting exactly on chart singularities (lattice point,
    # omega_r) when those are not ends; the form itself is regular there
    valid &= data.chart_singular_distance(U.ravel()).reshape(U.shape) > 1e-9

    base = complex(basepoint)
    root = int(np.argmin(np.abs(U.ravel() - base)))
    if not valid.flat[root]:
        raise ValueError("basepoint is inside an end clearance disk")
    if abs(U.flat[root] - base) > 1e-9 * max(1.0, abs(base)):
        raise ValueError("basepoint must be a grid vertex")

    # h[i, j] = Re int from U[i, j] to U[i+1, j], v[i, j] from U[i, j] to U[i, j+1],
    # for edges between valid vertices; all are integrated in one call
    has_h = valid[:-1, :] & valid[1:, :]
    has_v = valid[:, :-1] & valid[:, 1:]
    vals = _edge_integrals(data, np.concatenate([U[:-1, :][has_h], U[:, :-1][has_v]]),
                           np.concatenate([U[1:, :][has_h], U[:, 1:][has_v]])).real
    h, v = np.zeros((nx - 1, ny, 3)), np.zeros((nx, ny - 1, 3))
    h[has_h], v[has_v] = vals[:has_h.sum()], vals[has_h.sum():]

    # step[d] / rise[d]: whether and by how much X changes along the edge
    # leaving each vertex in direction d = +i, -i, +j, -j
    step = np.zeros((4, nx, ny), dtype=bool)
    rise = np.zeros((4, nx, ny, 3))
    step[0, :-1], step[1, 1:], step[2, :, :-1], step[3, :, 1:] = has_h, has_h, has_v, has_v
    rise[0, :-1], rise[1, 1:], rise[2, :, :-1], rise[3, :, 1:] = h, -h, v, -v
    step, rise = step.reshape(4, -1), rise.reshape(4, -1, 3)
    shift = np.array([ny, -ny, 1, -1])

    # breadth-first spanning tree, one wavefront per level; each new vertex
    # takes the first (frontier position, direction) that reaches it, the
    # parent a first-in-first-out queue would give
    X = np.zeros((nx * ny, 3))
    seen = np.zeros(nx * ny, dtype=bool)
    seen[root] = True
    front = np.array([root])
    while front.size:
        pos, d = np.nonzero(step[:, front].T)
        src = front[pos]
        dst = src + shift[d]
        new = ~seen[dst]
        src, d, dst = src[new], d[new], dst[new]
        first = np.sort(np.unique(dst, return_index=True)[1])
        src, d, dst = src[first], d[first], dst[first]
        X[dst] = X[src] + rise[d, src]
        seen[dst] = True
        front = dst

    index = np.cumsum(seen).reshape(nx, ny) - 1
    seen = seen.reshape(nx, ny)
    cell = seen[:-1, :-1] & seen[1:, :-1] & seen[1:, 1:] & seen[:-1, 1:]
    i, j = np.nonzero(cell)
    a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
    faces = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)

    # loop-closure residual of every cell: h[i,j] + v[i+1,j] - h[i,j+1] - v[i,j]
    loop = ((h[:, :-1] + v[1:, :]) - h[:, 1:]) - v[:-1, :]
    resid = np.linalg.norm(loop[cell], axis=-1)
    rng = np.random.default_rng(20)
    sample = resid[rng.integers(0, resid.size, size=min(20, resid.size))].tolist() \
        if resid.size else []
    verts = X[seen.ravel()]
    uvs = U[seen]
    mesh = SurfaceMesh(
        vertices=verts,
        faces=faces,
        gauss=gauss_map(data, uvs),
        domain_uv=uvs,
        metadata={
            "end_clearance": eps,
            "grid": (grid.nx, grid.ny, grid.extent),
            "basepoint": base,
            "loop_residual_max": float(resid.max()) if resid.size else 0.0,
            "loop_residual_sample": sample,
            "mesh_scale": float(np.ptp(verts, axis=0).max()),
            "vertex_count": len(verts),
        })
    return mesh


def period_vector(data: WeierstrassData, loop: QuadraturePath, rel_tol=1e-9):
    """(int s1^2, int s2^2, int s1 s2) along the loop."""
    s1, s2 = data.s1, data.s2
    return (period_integral(s1, s1, loop, rel_tol), period_integral(s2, s2, loop, rel_tol),
            period_integral(s1, s2, loop, rel_tol))


def real_period(periods) -> np.ndarray:
    """Re(omega)-period vector from (int s1^2, int s2^2, int s1 s2)."""
    i11, i22, i12 = periods
    return np.array([np.real(i11 - i22), np.real(1j * (i11 + i22)),
                     np.real(2.0 * i12)])


def gauss_map(data: WeierstrassData, u):
    """Unit normal (2g, |g|^2 - 1)/(|g|^2 + 1) with g = s2/s1, shape u.shape + (3,).

    s1 and s2 are evaluated in one pass over all points.  At a pole of g
    (s1 = 0, s2 != 0) the limit (0, 0, 1) is returned; a common zero
    raises ValueError.
    """
    f1, f2 = section_values((data.s1, data.s2), u)
    if np.any((f1 == 0) & (f2 == 0)):
        raise ValueError("gauss map undefined at a common zero (branch point)")
    pole = np.abs(f1) <= 1e-15 * np.abs(f2)
    g = f2 / np.where(pole, 1.0, f1)
    g2 = np.abs(g) ** 2
    den = g2 + 1.0
    n = np.stack([2.0 * g.real / den, 2.0 * g.imag / den, (g2 - 1.0) / den], axis=-1)
    n[pole] = (0.0, 0.0, 1.0)
    return n


def branch_points(data: WeierstrassData, resolution: int = 120,
                  magnitude_tol: float = 1e-8, extent: float = 2.0):
    """Common zeros of (s1, s2) by grid scan plus local subdivision.

    The scanned quantity is the chart-independent weighted magnitude
    (|f1|^2 + |f2|^2) |mu|; local minima below a loose multiple of
    sqrt(magnitude_tol) survive successive rounds of 12x12 subdivision
    and are reported when the refined value drops below magnitude_tol
    times the median magnitude.  Best-effort: the resolution bounds what
    can be detected.
    """
    dom = data.domain
    U = _grid_coordinates(data, GridSpec(nx=resolution, ny=resolution, extent=extent))
    pts = U.ravel()
    spacing = abs(U[1, 0] - U[0, 0])
    keep = (data.end_distance(pts) > data.end_clearance) \
        & (data.chart_singular_distance(pts) > spacing / 4.0)
    pts = pts[keep]

    def magnitude(u):
        f1, f2 = section_values((data.s1, data.s2), u)
        return (np.abs(f1) ** 2 + np.abs(f2) ** 2) * np.abs(dom.form_weight(u))

    mags = magnitude(pts)
    norm = float(np.median(mags))
    if norm == 0:
        norm = 1.0
    h = max(abs(pts[1] - pts[0]), abs(U[1, 0] - U[0, 0]))
    candidates = pts[mags < np.sqrt(magnitude_tol) * norm * 10]
    found = []
    for c in candidates:
        u, size = c, h
        for _ in range(8):
            dx = np.linspace(-size, size, 12)
            local = (u + dx[:, None] + 1j * dx[None, :]).ravel()
            m = magnitude(local)
            u = local[int(np.argmin(m))]
            size /= 5.0
        if magnitude(np.array([u]))[0] < magnitude_tol * norm:
            if not any(dom.distance(u, f) < 10 * h for f in found):
                found.append(complex(u))
    return found


def export_obj(mesh: SurfaceMesh, path) -> Path:
    """Wavefront OBJ with 17-significant-digit vertices and normals."""
    if mesh.vertices.size == 0:
        raise ValueError("cannot export an empty mesh")
    faces = np.repeat(mesh.faces + 1, 2, axis=1)
    text = ("v %.17g %.17g %.17g\n" * len(mesh.vertices)
            + "vn %.17g %.17g %.17g\n" * len(mesh.gauss)
            + "f %d//%d %d//%d %d//%d\n" * len(faces)) \
        % tuple(mesh.vertices.ravel().tolist() + mesh.gauss.ravel().tolist()
                + faces.ravel().tolist())
    return _write(path, text)


def export_csv(mesh: SurfaceMesh, path) -> Path:
    """CSV of (u, X, n) samples: re(u), im(u), x, y, z, nx, ny, nz."""
    rows = np.column_stack([mesh.domain_uv.real, mesh.domain_uv.imag,
                            mesh.vertices, mesh.gauss])
    text = "re_u,im_u,x,y,z,nx,ny,nz\n" \
        + ("%.17g," * 7 + "%.17g\n") * len(rows) % tuple(rows.ravel().tolist())
    return _write(path, text)


def _write(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def integrate_position(data: WeierstrassData, paths) -> np.ndarray:
    """X-displacement Re int omega along a sequence of QuadraturePaths."""
    total = np.zeros(3)
    for path in paths:
        total = total + real_period(period_vector(data, path))
    return total


def enneper_data(clearance: float = 0.05) -> WeierstrassData:
    """Enneper data s1 = phi, s2 = z phi on the sphere (no ends)."""
    s1, s2 = rational_sphere_basis(SphereDomain(ends=EndDivisor(())),
                                   [([1.0], [1.0]), ([0.0, 1.0], [1.0])], ("phi", "z phi"))
    return WeierstrassData(s1=s1, s2=s2, end_clearance=clearance)


def total_curvature_estimate(data: WeierstrassData, grid: GridSpec) -> float:
    """Diagnostic Riemann-sum estimate of -int 4 |g'|^2/(1+|g|^2)^2 dA."""
    U = _grid_coordinates(data, grid)
    pts = U.ravel()
    keep = (data.end_distance(pts) > data.end_clearance) \
        & (data.chart_singular_distance(pts) > 1e-9)
    pts = pts[keep]
    (f1, f2), (d1, d2) = section_values((data.s1, data.s2), pts, derivative=True)
    gp = (d2 * f1 - f2 * d1)
    dens = 4.0 * np.abs(gp) ** 2 / (np.abs(f1) ** 2 + np.abs(f2) ** 2) ** 2
    du = abs(U[1, 0] - U[0, 0]) * abs(U[0, 1] - U[0, 0])
    return float(-np.sum(dens) * du)
