"""Geometry from a spinor pair: X = Re int (s1^2 - s2^2, i(s1^2 + s2^2), 2 s1 s2).

The mesh lays a rectangular grid over the domain chart (square [-L, L]^2
on the sphere, the fundamental cell on a torus) and drops vertices within
the end clearance.  For a pair in K the forms s1^2, s2^2 and s1 s2 have
no residues, so each has the closed-form primitive of
spinor.form_primitive, and every vertex is X = Re sigma(Phi(u) -
Phi(basepoint)) at once: no quadrature, no spanning tree and no thread
pool (SPINOR_MINIMAL_THREADS is accepted and changes nothing).  The
metadata carries the closed form's evidence: the identity residual of the
forms at every vertex, the end residues, and every cell's loop closure.
Faces come from slices of the validity mask and the normals from the
section values already computed at the vertices.  The per-vertex stage
and the exporters work on blocks of _BLOCK vertices: their temporaries stay
bounded, and a vertex's bits depend only on that vertex.  Gauss-Legendre edge
quadrature stays as the oracle: quadrature_edges and
quadrature_loop_residual integrate every grid edge independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numkit import QuadraturePath
from .spinor import (
    EndDivisor,
    SectionDataError,
    SphereDomain,
    SpinorSection,
    form_primitive,
    is_infinity,
    period_matrix,
    rational_sphere_basis,
    section_values,
)

__all__ = [
    "WeierstrassData",
    "GridSpec",
    "SurfaceMesh",
    "integrate_surface",
    "quadrature_edges",
    "quadrature_loop_residual",
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
# vertices per block of integrate_surface's per-vertex stage and of the
# exporters' rows, which bounds their memory.  Every step is pointwise, so a
# vertex's bits depend only on that vertex and any block gives a mesh the
# same bits
_BLOCK = 8192
_EDGE_NODES, _EDGE_WEIGHTS = np.polynomial.legendre.leggauss(_GL_EDGE)


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
        """Distance to the domain's chart singularities (the lattice point
        and omega_r on the untwisted tori, whose ends avoid both)."""
        return _nearest(self.domain, self.domain.chart_singularities(), u)


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


def _valid_mask(data: WeierstrassData, U) -> np.ndarray:
    """Grid vertices outside the end clearance and off chart singularities
    (the lattice point and omega_r when those are not ends; the form itself
    is regular there)."""
    valid = data.end_distance(U.ravel()) > data.end_clearance
    valid &= data.chart_singular_distance(U.ravel()) > 1e-9
    return valid.reshape(U.shape)


def _loop_residuals(h, v) -> np.ndarray:
    """Closure h[i,j] + v[i+1,j] - h[i,j+1] - v[i,j] of every cell, shape (nx-1, ny-1)."""
    return np.linalg.norm(((h[:, :-1] + v[1:, :]) - h[:, 1:]) - v[:-1, :], axis=-1)


def integrate_surface(data: WeierstrassData, grid: GridSpec, basepoint) -> SurfaceMesh:
    """Closed-form mesh X = Re sigma(Phi(u) - Phi(basepoint)) over the masked chart grid.

    Phi holds the primitives of s1^2, s2^2 and s1 s2 (spinor.form_primitive).
    The basepoint must be a grid vertex at clearance distance from every
    end; its image is the origin.  The metadata records the closed form's
    own evidence: the largest identity residual |f g mu - form| at a
    vertex, relative to |f g mu| plus the size of the form's terms there;
    the largest relative end residue; and the largest loop closure of a
    cell's four edge increments.
    """
    U = _grid_coordinates(data, grid)
    valid = _valid_mask(data, U)
    base = complex(basepoint)
    root = int(np.argmin(np.abs(U.ravel() - base)))
    if not valid.flat[root]:
        raise ValueError("basepoint is inside an end clearance disk")
    if abs(U.flat[root] - base) > 1e-9 * max(1.0, abs(base)):
        raise ValueError("basepoint must be a grid vertex")

    index = np.cumsum(valid).reshape(valid.shape) - 1
    uvs = U[valid]
    s1, s2 = data.s1, data.s2
    prim = form_primitive(((s1, s1), (s2, s2), (s1, s2)))
    phi, f = np.empty((3, len(uvs)), complex), np.empty((2, len(uvs)), complex)
    identity = 0.0
    for k in range(0, len(uvs), _BLOCK):
        block = slice(k, k + _BLOCK)
        phi[:, block], form, size = prim.evaluate(uvs[block])
        f[:, block] = section_values((s1, s2), uvs[block])
        f1, f2 = f[:, block]
        products = np.stack([f1 * f1, f2 * f2, f1 * f2]) * data.domain.form_weight(uvs[block])
        identity = np.maximum(identity, np.max(
            np.abs(products - form) / np.maximum(np.abs(products) + size, 1e-300), initial=0.0))
    f1, f2 = f
    verts = real_period(phi - phi[:, index.flat[root], None]).T

    cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    i, j = np.nonzero(cell)
    a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
    faces = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    X = np.zeros(U.shape + (3,))
    X[valid] = verts
    resid = _loop_residuals(X[1:] - X[:-1], X[:, 1:] - X[:, :-1])[cell]
    return SurfaceMesh(
        vertices=verts,
        faces=faces,
        gauss=_normals(f1, f2),
        domain_uv=uvs,
        metadata={
            "end_clearance": data.end_clearance,
            "grid": (grid.nx, grid.ny, grid.extent),
            "basepoint": base,
            "loop_residual_max": float(resid.max()) if resid.size else 0.0,
            "identity_residual_max": float(identity),
            "end_residue_max": prim.end_residue_max,
            "mesh_scale": float(np.ptp(verts, axis=0).max()),
            "vertex_count": len(verts),
        })


def quadrature_edges(data: WeierstrassData, grid: GridSpec):
    """(valid, h, v): the vertex mask and Re int omega by 12-node Gauss-Legendre
    quadrature along every grid edge, h[i, j] from U[i, j] to U[i+1, j] and
    v[i, j] from U[i, j] to U[i, j+1], NaN where an edge leaves the mask.

    The test oracle for integrate_surface."""
    U = _grid_coordinates(data, grid)
    valid = _valid_mask(data, U)
    h = np.full((U.shape[0] - 1, U.shape[1], 3), np.nan)
    v = np.full((U.shape[0], U.shape[1] - 1, 3), np.nan)
    for out, start, end, has in ((h, U[:-1], U[1:], valid[:-1] & valid[1:]),
                                 (v, U[:, :-1], U[:, 1:], valid[:, :-1] & valid[:, 1:])):
        mid, half = (start[has] + end[has]) / 2.0, (end[has] - start[has]) / 2.0
        w = data.omega(mid[:, None] + half[:, None] * _EDGE_NODES).reshape(3, -1, _GL_EDGE)
        out[has] = np.einsum("kej,j,e->ek", w, _EDGE_WEIGHTS, half).real
    return valid, h, v


def quadrature_loop_residual(data: WeierstrassData, grid: GridSpec) -> float:
    """Largest Gauss-Legendre loop closure over the cells of the masked grid."""
    _, h, v = quadrature_edges(data, grid)
    return float(np.nanmax(_loop_residuals(h, v), initial=0.0))


def period_vector(data: WeierstrassData, loop: QuadraturePath, rel_tol=1e-9):
    """(int s1^2, int s2^2, int s1 s2) along the loop, from one period matrix."""
    (i11, i12), (_, i22) = period_matrix((data.s1, data.s2), loop, rel_tol)
    return i11, i22, i12


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
    return _normals(*section_values((data.s1, data.s2), u))


def _normals(f1, f2):
    """gauss_map from the section values f1, f2."""
    if np.any((f1 == 0) & (f2 == 0)):
        raise ValueError("gauss map undefined at a common zero (branch point)")
    pole = np.abs(f1) <= 1e-15 * np.abs(f2)
    g = f2 / np.where(pole, 1.0, f1)
    g2 = np.abs(g) ** 2
    den = g2 + 1.0
    n = np.stack([2.0 * g.real / den, 2.0 * g.imag / den, (g2 - 1.0) / den], axis=-1)
    n[pole] = (0.0, 0.0, 1.0)
    return n


def branch_points(data: WeierstrassData, resolution: int = 120):
    """Common zeros of (s1, s2) by grid scan plus local subdivision.

    The scanned quantity is the chart-independent weighted magnitude
    (|f1|^2 + |f2|^2) |mu| on the default grid extent; grid points below
    1e-3 of the median are candidates, each of 8 rounds moves every
    candidate to the minimum of its 12x12 subdivision in one evaluation,
    and a candidate is reported when its refined value drops below 1e-8
    times the median magnitude.  Best-effort: the resolution bounds what
    can be detected.
    """
    dom = data.domain
    U = _grid_coordinates(data, GridSpec(nx=resolution, ny=resolution))
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
    u = pts[mags < np.sqrt(1e-8) * norm * 10]
    if u.size == 0:
        return []
    rows, size = np.arange(u.size), h
    for _ in range(8):
        dx = np.linspace(-size, size, 12)
        local = (u[:, None, None] + dx[:, None] + 1j * dx[None, :]).reshape(u.size, -1)
        u = local[rows, np.argmin(magnitude(local), axis=1)]
        size /= 5.0
    found = []
    for c in u[magnitude(u) < 1e-8 * norm]:
        if not any(dom.distance(c, f) < 10 * h for f in found):
            found.append(complex(c))
    return found


def export_obj(mesh: SurfaceMesh, path) -> Path:
    """Wavefront OBJ with 17-significant-digit vertices and normals."""
    v, n, f = mesh.vertices, mesh.gauss, mesh.faces
    return _write_rows(mesh, path, "", (
        ("v %.17g %.17g %.17g\n", len(v), v.__getitem__),
        ("vn %.17g %.17g %.17g\n", len(n), n.__getitem__),
        ("f %d//%d %d//%d %d//%d\n", len(f), lambda s: np.repeat(f[s] + 1, 2, axis=1))))


def export_csv(mesh: SurfaceMesh, path) -> Path:
    """CSV of (u, X, n) samples: re(u), im(u), x, y, z, nx, ny, nz."""
    uv, v, n = mesh.domain_uv, mesh.vertices, mesh.gauss
    return _write_rows(mesh, path, "re_u,im_u,x,y,z,nx,ny,nz\n", (
        ("%.17g," * 7 + "%.17g\n", len(v),
         lambda s: np.column_stack([uv[s].real, uv[s].imag, v[s], n[s]])),))


def _write_rows(mesh: SurfaceMesh, path, header: str, tables) -> Path:
    """The header, then each (line, count, rows) table as line * len(b) % b
    for the blocks b = rows(slice) of _BLOCK rows, one line per row."""
    if mesh.vertices.size == 0:
        raise ValueError("cannot export an empty mesh")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(header)
        for line, count, rows in tables:
            for k in range(0, count, _BLOCK):
                block = rows(slice(k, k + _BLOCK))
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
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
    pts = U[_valid_mask(data, U)]
    (f1, f2), (d1, d2) = section_values((data.s1, data.s2), pts, derivative=True)
    gp = (d2 * f1 - f2 * d1)
    dens = 4.0 * np.abs(gp) ** 2 / (np.abs(f1) ** 2 + np.abs(f2) ** 2) ** 2
    du = abs(U[1, 0] - U[0, 0]) * abs(U[0, 1] - U[0, 0])
    return float(-np.sum(dens) * du)
