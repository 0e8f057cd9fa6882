"""Geometry from a spinor pair: X = Re int (s1^2 - s2^2, i(s1^2 + s2^2), 2 s1 s2).

The mesh lays a rectangular grid over the domain chart (square [-L, L]^2
on the sphere, the fundamental cell on a torus) and drops vertices within
the end clearance.  For a pair in K the forms s1^2, s2^2 and s1 s2 have
no residues, so each has the closed-form primitive of
spinor.form_primitive, and every vertex is X = Re sigma(Phi(u) -
Phi(basepoint)) at once: no quadrature, no spanning tree and no thread
pool (nothing reads SPINOR_MINIMAL_THREADS).  The metadata carries the
closed form's evidence: the identity residual of the forms at every
vertex, the end residues, and every cell's loop closure, which
SurfaceMesh.checks bounds by MESH_TOL.  Faces come from
the cell mask, the cells with four valid corners whose closed chart
square holds no end, and the normals from the section values already
computed at the vertices.  Everything works on
blocks of _BLOCK points: the validity mask on grid points, Phi and the
normals on vertices, faces and loop closures on cells, each block written
straight into the mesh.  On a torus a block of vertices takes one theta
frame (spinor.chart_points), on u and on u - a_k for every shift that
the rows, the chart weight and the primitive read, and each reads its
own rows of it.  Each block's stages work in place on block-sized arrays,
each dropped before the next stage, so a mesh's memory is the finished
mesh plus one block (on a torus that frame is most of the block), and a
vertex's bits depend only on that vertex.  By tracemalloc, the grid-257
sphere-4 mesh (5.5 MiB) peaks at 6.2 MiB in its vertex stage, 6.8 MiB in
its cell stage and 6.9 MiB in its export, where the stages that made
their temporaries whole took 9.9, 8.6 and 7.3 MiB.  Gauss-Legendre edge
quadrature stays as the oracle:
quadrature_edges integrates every grid edge independently, and
quadrature_loop_residual closes its cells.

export_obj and export_csv write the bytes of "%.17g" and "%d//%d", with
numpy making a block's text at once in one byte buffer, which each block
of a table reuses, each value's text NUL-padded in a slot of its own: a
float with |x| in [1e-4, 1e16) is
scaled exactly to its 17-digit integer (Dekker's TwoProduct), whose
digits come from a table of 4-digit chunks, with the zeros after the last
kept digit NUL, and a face index in [1, 10^8) is read from the same
table, once per block for each index of the block's span when that span
is shorter than the block, as integrate_surface's faces are.  "%" formats
every other value, one by one.  The bytes that are not NUL are the text.
Each block goes to the file as it is made, through reportio.overwrite,
which writes over an existing file's bytes in place instead of freeing
them with a truncating open, so rewriting an output reuses its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .numkit import NonConvergenceError, QuadraturePath
from .reportio import check, overwrite
from .spinor import (
    SectionDataError,
    SpinorSection,
    chart_points,
    form_primitive,
    is_infinity,
    period_matrix,
    polynomial_sphere_basis,
    section_values,
    sigma_map,
    sigma_quadratic,
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
    "gauss_degree",
    "gauss_map",
    "export_obj",
    "export_csv",
    "integrate_position",
    "enneper_data",
]

_GL_EDGE = 12
# grid points, vertices or cells per block of integrate_surface's mask,
# vertex and cell stages and of the exporters' rows: a mesh's memory is the
# finished mesh plus one block, and on a torus that block's theta frame sets
# the rest of the peak.  Every step is pointwise, so a vertex's bits depend
# only on that vertex and any block gives a mesh the same bits
_BLOCK = 8192
_EDGE_NODES, _EDGE_WEIGHTS = np.polynomial.legendre.leggauss(_GL_EDGE)


@dataclass(frozen=True)
class WeierstrassData:
    """A spinor pair on one basis and an end clearance, by default 1/20 of the least end gap."""

    s1: SpinorSection
    s2: SpinorSection
    end_clearance: float = None

    def __post_init__(self):
        if self.s1.basis is not self.s2.basis:
            raise SectionDataError("sections must share a basis")
        if self.end_clearance is None:
            object.__setattr__(self, "end_clearance", 0.05 * self._min_end_separation())
        if not self.end_clearance > 0:
            raise ValueError("end clearance must be positive")

    def _min_end_separation(self) -> float:
        dom = self.s1.domain
        a = np.array(dom.ends.points, dtype=complex)
        a = a[~np.isinf(a)]
        d = (a[:, None] - a)[np.triu_indices(a.size, 1)]
        # on the sphere abs(p - q), by hypot as abs() of a Python complex rounds
        d = dom.ctx.lattice_distance(d) if dom.genus == 1 else np.hypot(d.real, d.imag)
        return float(d.min()) if d.size else 1.0

    @property
    def domain(self):
        return self.s1.domain

    def omega(self, u):
        """The three 1-form coefficients of dX at u, shape (3, ...)."""
        at = chart_points((self.s1, self.s2))(u)
        f1, f2 = section_values((self.s1, self.s2), at)
        return np.stack(sigma_map(f1, f2)) * self.domain.form_weight(at)

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
    faces: np.ndarray  # (M, 3) int32, 0-based
    gauss: np.ndarray  # (N, 3) unit normals
    domain_uv: np.ndarray  # (N,) complex chart coordinates
    metadata: dict = field(default_factory=dict)

    def vertex_at(self, u):
        """Index of the mesh vertex within 1e-9 of chart coordinate u."""
        d = np.abs(self.domain_uv - complex(u))
        k = int(np.argmin(d))
        if d[k] > 1e-9:
            raise KeyError(f"no mesh vertex at {u} (closest {d[k]:.2e} away)")
        return k

    def checks(self) -> list:
        """The closed form's evidence; a loop closure relative to the mesh scale."""
        m = self.metadata
        return [check("identity_residual_max", m["identity_residual_max"], MESH_TOL),
                check("end_residue_max", m["end_residue_max"], MESH_TOL),
                check("loop_residual_max", m["loop_residual_max"], MESH_TOL * m["mesh_scale"])]


MESH_TOL = 1e-6  # the bound of each of SurfaceMesh.checks
# a grid point within CHART_SINGULAR_TOL (chart units) of a chart
# singularity is no vertex (_valid_mask)
CHART_SINGULAR_TOL = 1e-9
# an end within GRID_LINE_TOL of a grid step of a grid line lies on it,
# and clears the cells on both sides of that line (_cell_mask)
GRID_LINE_TOL = 1e-9


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
    is regular there), tested on blocks of _BLOCK grid points."""
    u = U.ravel()
    valid = np.empty(u.shape, bool)
    for k in range(0, u.size, _BLOCK):
        block = u[k:k + _BLOCK]
        valid[k:k + _BLOCK] = (data.end_distance(block) > data.end_clearance) \
            & (data.chart_singular_distance(block) > CHART_SINGULAR_TOL)
    return valid.reshape(U.shape)


def _cell_mask(data: WeierstrassData, grid: GridSpec, valid) -> np.ndarray:
    """Cells (i, j), corners (i, j) to (i+1, j+1), with four valid corners
    and no finite end in their closed chart square: on a torus the square
    in lattice fractions, and the ends' 3 x 3 lattice translates.  Each end
    clears the cells i <= g <= i + 1 on each axis around its grid position
    g, a position within GRID_LINE_TOL of a grid line counting as on it, so
    no face spans an end when the end clearance is below the grid step."""
    cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    dom, steps = data.domain, np.array([[grid.nx - 1], [grid.ny - 1]])
    a = np.array([p for p in dom.ends.points if not is_infinity(p)], dtype=complex)
    if dom.genus == 1:
        # a = x b1 + y b2, with (x, y) mod 1 moved by each of the 3 x 3 shifts
        b1, b2 = 2 * dom.ctx.omega1, 2 * dom.ctx.omega3
        det = (b1.conjugate() * b2).imag
        xy = np.stack([(a.conjugate() * b2).imag, (b1.conjugate() * a).imag]) / det % 1.0
        frac = (xy[:, :, None] + np.mgrid[-1:2, -1:2].reshape(2, 1, 9)).reshape(2, -1)
    else:
        frac = (np.stack([a.real, a.imag]) + grid.extent) / (2 * grid.extent)
    # clipped, so that an end far off the grid stays an integer position off it
    g = np.clip(frac * steps, -2, steps + 2)
    lo = np.maximum(np.ceil(g - GRID_LINE_TOL) - 1, 0).astype(int)
    hi = np.minimum(np.floor(g + GRID_LINE_TOL), steps - 1).astype(int)
    for (i0, j0), (i1, j1) in zip(lo.T, hi.T):
        if i0 <= i1 and j0 <= j1:
            cell[i0:i1 + 1, j0:j1 + 1] = False
    return cell


def _closure(h0, v1, h1, v0) -> np.ndarray:
    """|((h0 + v1) - h1) - v0|, the closure of a cell's four edge increments
    h0 = b - a, v1 = c - b, h1 = c - d and v0 = d - a, with its corners
    a, b, c, d at grid points (i, j), (i+1, j), (i+1, j+1) and (i, j+1):
    in two buffers, the sum and its norm, bitwise np.linalg.norm's."""
    t = np.add(h0, v1)
    t -= h1
    t -= v0
    t *= t
    norm = np.add.reduce(t, axis=-1)
    return np.sqrt(norm, out=norm)


def integrate_surface(data: WeierstrassData, grid: GridSpec, basepoint) -> SurfaceMesh:
    """Closed-form mesh X = Re sigma(Phi(u) - Phi(basepoint)) over the masked chart grid.

    Phi holds the primitives of s1^2, s2^2 and s1 s2 (spinor.form_primitive).
    The basepoint must be a grid vertex at clearance distance from every
    end; its image is the origin.  The metadata records the closed form's
    own evidence: the largest identity residual |f g mu - form| at a
    vertex, relative to |f g mu| plus the size of the form's terms there;
    the largest relative end residue; and the largest loop closure of a
    cell's four edge increments.  Vertices and normals are made on blocks of
    _BLOCK vertices, faces and closures on blocks of _BLOCK cells, each
    written straight into the mesh.
    """
    U = _grid_coordinates(data, grid)
    valid = _valid_mask(data, U)
    base = complex(basepoint)
    root = int(np.argmin(np.abs(U.ravel() - base)))
    if not valid.flat[root]:
        raise ValueError("basepoint is inside an end clearance disk")
    # within 1e-9 of the grid step, so that the snap scales with the chart
    step = min(abs(U[1, 0] - U[0, 0]), abs(U[0, 1] - U[0, 0]))
    if abs(U.flat[root] - base) > 1e-9 * step:
        raise ValueError("basepoint must be a grid vertex")

    # the full grid dropped once read: the peak then does not depend on
    # what the heap held before
    uvs, ny, start = U[valid], U.shape[1], U.flat[root:root + 1]
    del U
    s1, s2 = data.s1, data.s2
    prim = form_primitive(((s1, s1), (s2, s2), (s1, s2)))
    points = chart_points((s1, s2), prim)
    verts, gauss = np.empty((len(uvs), 3)), np.empty((len(uvs), 3))
    # each coordinate's range, kept per block: a reduction down the
    # columns of verts would step through its rows three values at a time
    identity, lo, hi = 0.0, np.inf, -np.inf
    for k in range(0, len(uvs), _BLOCK):
        lead = int(k == 0)
        pts = uvs[k:k + _BLOCK]
        if lead:
            # the root leads the first block: its Phi comes from that call,
            # not from a call of its own (one more theta frame on a torus)
            pts = np.concatenate([start, pts])
        at = points(pts)
        f1, f2 = section_values((s1, s2), at)
        products = np.empty((3,) + f1.shape, complex)
        np.multiply(f1, f1, out=products[0])
        np.multiply(f2, f2, out=products[1])
        np.multiply(f1, f2, out=products[2])
        products *= data.domain.form_weight(at)
        gauss[k:k + _BLOCK] = _normals(f1[lead:], f2[lead:])
        del f1, f2
        phi, form, size = prim.evaluate(at)
        del at, pts  # the frame goes with its block, before the next one is taken
        # |products - form| / max(|products| + size, 1e-300), in the
        # buffers of form and size
        np.subtract(products, form, out=form)
        size += np.abs(products)
        del products
        np.maximum(size, 1e-300, out=size)
        identity = np.maximum(identity, np.max(np.divide(np.abs(form), size, out=size),
                                               initial=0.0))
        del form, size
        if lead:
            origin = phi[:, :1].copy()
        x = real_period(np.subtract(phi[:, lead:], origin, out=phi[:, lead:]))
        del phi
        verts[k:k + _BLOCK] = x.T
        lo, hi = np.minimum(lo, x.min(axis=1)), np.maximum(hi, x.max(axis=1))
        del x

    # int32 vertex indices and faces, the indices made after the vertex stage
    cell = _cell_mask(data, grid, valid).ravel()
    index = np.cumsum(valid, dtype=np.int32) - 1
    del valid
    faces = np.empty((2 * np.count_nonzero(cell), 3), index.dtype)
    resid, done = 0.0, 0
    for k in range(0, cell.size, _BLOCK):
        # cell q = i (ny - 1) + j has its corner (i, j) at grid point q + i,
        # and the grid point after a vertex in its row is the next vertex
        g = k + np.flatnonzero(cell[k:k + _BLOCK])
        g += g // (ny - 1)
        # the block's faces (a, b, c) and (a, c, d), written in place
        quads = faces[2 * done:2 * (done + len(g))].reshape(-1, 6)
        quads[:, 0] = quads[:, 3] = index[g]
        g += ny
        quads[:, 1] = index[g]
        del g
        a, b, c, d = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 5]
        np.add(b, 1, out=c)
        np.add(a, 1, out=d)
        quads[:, 4] = c
        # the increments h0 = b - a, v1 = c - b, h1 = c - d and v0 = d - a
        # in four buffers: d's corner is read a coordinate at a time
        h0, v1 = verts.take(a, axis=0), verts.take(b, axis=0)
        np.subtract(v1, h0, out=h0)
        h1 = verts.take(c, axis=0)
        np.subtract(h1, v1, out=v1)
        v0 = verts.take(a, axis=0)
        for i in range(3):
            xd = verts[d, i]
            np.subtract(h1[:, i], xd, out=h1[:, i])
            np.subtract(xd, v0[:, i], out=v0[:, i])
        del xd
        resid = np.maximum(resid, np.max(_closure(h0, v1, h1, v0), initial=0.0))
        done += len(quads)
        del h0, v1, h1, v0

    return SurfaceMesh(
        vertices=verts,
        faces=faces,
        gauss=gauss,
        domain_uv=uvs,
        metadata={
            "end_clearance": data.end_clearance,
            "grid": (grid.nx, grid.ny, grid.extent),
            "basepoint": base,
            "loop_residual_max": float(resid),
            "identity_residual_max": float(identity),
            "end_residue_max": prim.end_residue_max,
            "mesh_scale": float((hi - lo).max()),
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


def quadrature_loop_residual(data: WeierstrassData, grid: GridSpec, edges) -> float:
    """Largest closure of edges = quadrature_edges(data, grid) on integrate_surface's cells."""
    valid, h, v = edges
    closure = _closure(h[:, :-1], v[1:], h[:, 1:], v[:-1])
    return float(np.max(closure[_cell_mask(data, grid, valid)], initial=0.0))


def period_vector(data: WeierstrassData, loop: QuadraturePath):
    """(int s1^2, int s2^2, int s1 s2) along the loop, from one period matrix."""
    (i11, i12), (_, i22) = period_matrix((data.s1, data.s2), loop, 1e-9)
    return i11, i22, i12


def real_period(periods) -> np.ndarray:
    """Re(omega)-period vector from (int s1^2, int s2^2, int s1 s2)."""
    return np.real(sigma_quadratic(*periods))


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


# gauss_degree's levels m: each doubles the last, and the degree is the
# first estimate within _DEGREE_TOL of the one before it
_DEGREE_LEVELS, _DEGREE_TOL = (32, 64, 128, 256, 512), 1e-6


def gauss_degree(data: WeierstrassData) -> float:
    """Degree of the Gauss map g = s2/s1: (1/pi) int |f1 f2' - f2 f1'|^2 /
    (|f1|^2 + |f2|^2)^2 dA over the whole surface, g's pull-back of the
    unit sphere's area over 4 pi.

    By Jorge and Meeks (Topology 22, 1983) a pair in K with n planar ends
    on genus g has degree g + n - 1 exactly when s1 and s2 share no zero,
    and each branch point lowers it by its order, wherever it lies.  The
    density is smooth on the whole surface, also at the ends, at the poles
    of g and at the chart singularities, and doubly periodic on a torus, so
    the trapezoid converges geometrically (Trefethen and Weideman, SIAM
    Review 56, 2014).  On a torus the nodes are the cell centres ((k + 1/2)
    / n1, (l + 1/2) / n2) on the reduced periods (b1, b2), n1 = m and n2 =
    ceil(m |b2| / |b1|), each weighted by the parallelogram's area over n1
    n2; n1 is even, so no node is a lattice point or a half-period.  On the
    sphere they cover the unit disk of z and its image under z -> 1/z: m
    Gauss-Legendre radii, weighted by r, times 2m angles, and each outer
    node 1/z weighted by |z|^-4 more, the area factor of z -> 1/z.  m
    doubles from 32 until two estimates agree to 1e-6, and
    NonConvergenceError is raised when they still differ at m = 512; the
    density is evaluated on blocks of about _BLOCK nodes.

    A common zero cancels from g, so a branched pair reads its lower degree.
    A near-common zero spikes the density instead: a spike the finest level
    cannot resolve raises NonConvergenceError, and one narrower than about
    1e-3 of the node spacing is missed at both of the last two levels and
    reads as a branch point.  So the count can come out low, never high.
    """
    pair = (data.s1, data.s2)
    points, estimates = chart_points(pair), []
    for m in _DEGREE_LEVELS:
        total = 0.0
        for u, w in _degree_blocks(data.domain, m):
            (f1, f2), (d1, d2) = section_values(pair, points(u), derivative=True)
            density = np.abs((f1 * d2 - f2 * d1) / (np.abs(f1) ** 2 + np.abs(f2) ** 2)) ** 2
            total += float(np.sum(density * w))
        estimates.append(total / np.pi)
        if len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) <= _DEGREE_TOL:
            return estimates[-1]
    raise NonConvergenceError(
        f"Gauss-map degree did not settle to {_DEGREE_TOL:.0e} by m = {_DEGREE_LEVELS[-1]}: "
        f"the last two levels read {estimates[-2]:.9f} and {estimates[-1]:.9f}")


def _degree_blocks(dom, m):
    """gauss_degree's nodes u and area weights w at level m, in blocks of
    about _BLOCK nodes made of whole rows: the nodes at one fraction of b1
    on a torus, at one radius of both disks on the sphere."""
    if dom.genus == 1:
        b1, b2 = dom.ctx.lattice.reduced_periods
        n1, n2 = m, math.ceil(m * abs(b2) / abs(b1))
        rows, row = (np.arange(n1) + 0.5) / n1 * b1, (np.arange(n2) + 0.5) / n2 * b2
        step, w = max(1, _BLOCK // n2), abs((b1.conjugate() * b2).imag) / (n1 * n2)
        for k in range(0, n1, step):
            yield (rows[k:k + step, None] + row).ravel(), w
        return
    t, wt = np.polynomial.legendre.leggauss(m)
    r, row = (t + 1.0) / 2.0, np.exp(1j * np.pi * np.arange(2 * m) / m)
    weight, step = wt / 2.0 * r * (np.pi / m), max(1, _BLOCK // (4 * m))
    for k in range(0, m, step):
        z = (r[k:k + step, None] * row).ravel()
        w = np.repeat(weight[k:k + step], 2 * m)
        yield np.concatenate([z, 1.0 / z]), np.concatenate([w, w / np.abs(z) ** 4])


def export_obj(mesh: SurfaceMesh, path) -> Path:
    """Wavefront OBJ with 17-significant-digit vertices and normals."""
    v, n, f = mesh.vertices, mesh.gauss, mesh.faces
    return _write_rows(mesh, path, b"", (
        (b"v ", b" ", v.shape, v.__getitem__, _float_text),
        (b"vn ", b" ", n.shape, n.__getitem__, _float_text),
        (b"f ", b" ", f.shape, lambda s: f[s] + 1, _index_text)))


def export_csv(mesh: SurfaceMesh, path) -> Path:
    """CSV of (u, X, n) samples: re(u), im(u), x, y, z, nx, ny, nz."""
    uv, v, n = mesh.domain_uv, mesh.vertices, mesh.gauss
    return _write_rows(mesh, path, b"re_u,im_u,x,y,z,nx,ny,nz\n", (
        (b"", b",", (len(v), 8), lambda s: np.column_stack([uv[s].real, uv[s].imag, v[s], n[s]]),
         _float_text),))


def _write_rows(mesh: SurfaceMesh, path, header: bytes, tables) -> Path:
    """The header, then each (prefix, sep, (count, width), rows, text)
    table in blocks b = rows(slice) of _VALUES // width rows: one line per
    row, the prefix, then each value's text ("%.17g" by _float_text,
    "%d//%d" by _index_text) followed by sep, the last by a newline.

    A block is one byte buffer with a slot per value: sep or, first in a
    row, the newline that ends the row before and the prefix, NUL-padded in
    front, then the value's text, NUL-padded behind.  No text byte is NUL,
    so the block's text is the buffer's bytes that are not NUL, less the
    first newline, and a newline, which bytearray.translate copies out
    without a mask.  A table's blocks reuse its buffers (_Buffers), and
    each block drops its temporaries before it lays its text.  numpy makes
    the text of floats with |x| in [1e-4, 1e16) and of indices in [1,
    10^8); "%" formats every other value, one at a time: 0, subnormals,
    |x| below 1e-4 or from 1e16 up, inf, nan and the other indices.

    The blocks go to path through reportio.overwrite as they are made; an
    empty mesh raises before path or its directory is made."""
    if mesh.vertices.size == 0:
        raise ValueError("cannot export an empty mesh")
    return overwrite(path, _blocks(header, tables))


def _blocks(header: bytes, tables):
    """The chunks of _write_rows' bytes: the header, then each block's
    text and its last newline.  A table's blocks reuse its _Buffers."""
    yield header
    for prefix, sep, (count, width), rows, text in tables:
        gap = 1 + len(prefix)
        gaps = np.zeros((width, gap), np.uint8)
        gaps[0] = np.frombuffer(b"\n" + prefix, np.uint8)
        gaps[1:, -1] = ord(sep)
        step, buffers = _VALUES // width, _Buffers()
        for k in range(0, count, step):
            slots = text(rows(slice(k, k + step)).ravel(), gap, buffers=buffers)
            slots.reshape(-1, width, slots.shape[1])[:, :, :gap] = gaps
            size = slots.nbytes
            del slots
            yield memoryview(buffers.text(size))[1:]
            yield b"\n"


class _Buffers:
    """One table's two byte buffers, which each of its blocks reuses: slots,
    whose bytes that are not NUL are the block's text, and work, where
    _grouped lays the block's slots in the order of their keys.  The
    digits lie in slots' bytes until those slots are taken from work."""

    def __init__(self):
        self.slots, self.work = bytearray(), bytearray()

    @cached_property
    def span(self):
        """The buffers of a block's span of face indices (_index_text)."""
        return _Buffers()

    def view(self, name, shape, dtype=np.uint8):
        """A shape array of dtype on the first bytes of buffer name, which is
        made anew when it is too small (an older view keeps the old one)."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if len(getattr(self, name)) < size:
            setattr(self, name, None)  # before the new one is made
            setattr(self, name, bytearray(size))
        return np.frombuffer(getattr(self, name), dtype, math.prod(shape)).reshape(shape)

    def text(self, size):
        """The bytes of slots' first size bytes that are not NUL, its other
        bytes made NUL first; bytearray.translate makes no mask."""
        np.frombuffer(self.slots, np.uint8)[size:] = 0
        return self.slots.translate(None, b"\0")


# values per block of the exporters (4096 OBJ rows): a block's text
# arrays and buffer stay well under integrate_surface's block
_VALUES = 3 * _BLOCK // 2
# bytes of a float's slot: "%.17g" is at most 24 bytes long, as in
# "-2.2250738585072014e-308"
_FIELD = 24
# the text of 0 to 9999 as four ASCII digits, one uint32 each, made from
# the 100 two-digit texts so that no temporary is larger than the table,
# then at 10^4 + (0 to 9999) the same texts with their trailing zeros NUL
_DIGITS2 = np.arange(100, dtype=np.uint8)[:, None] // np.array([10, 1], np.uint8) % 10 + ord("0")
_DIGITS4 = np.concatenate(np.broadcast_arrays(_DIGITS2[:, None], _DIGITS2), axis=2).reshape(-1, 4)
_DIGITS4 = np.concatenate([_DIGITS4, _DIGITS4 * np.logical_or.accumulate(
    _DIGITS4[:, ::-1] != ord("0"), axis=1)[:, ::-1]]).view(np.uint32)[:, 0]
# 10^0 to 10^22, each exact, since 5^22 < 2^53
_POW10 = np.cumprod([1.0] + [10.0] * 22)


def _grouped(key, n, digits, lay, gap, width, buffers):
    """(len(n), gap + width) slots of NULs on buffers.slots: lay(k, text
    rows, digit rows) writes the texts, after the gap, of each key k <
    256's rows, laid in buffers.work in the order of the keys, whose digit
    rows digits(n, buffers) makes as one slice of the values sorted by key."""
    order = np.argsort(key.astype(np.uint8), kind="stable")
    key = key.take(order)
    digits = digits(n.take(order), buffers)
    laid = buffers.view("work", (len(key), gap + width))
    laid.fill(0)
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    for lo, hi in zip(cuts, cuts[1:]):
        lay(int(key[lo]), laid[lo:hi, gap:], digits[lo:hi])
    del digits, key
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    # clip, which no index needs, takes straight into slots: the default
    # raise would take into a buffer of its own first
    return np.take(laid, back, axis=0, out=buffers.view("slots", (len(back), gap + width)),
                   mode="clip")


def _digits(n, count, buffers, trim=False):
    """The count ASCII digits of each n < 10^count, zero-padded, on the
    first bytes of buffers.slots; with trim, the zeros after n's last
    non-zero digit are NUL.  n is overwritten."""
    chunks = -(-count // 4)
    out = buffers.view("slots", (len(n), chunks), np.uint32)
    # the trimmed texts, at 10^4 on, while every chunk after this one is 0
    after, q = np.full(len(n), trim), np.empty_like(n)
    for j in range(chunks - 1, -1, -1):
        np.divmod(n, 10**4, out=(q, n))
        np.add(n, 10**4, out=n, where=after)
        out[:, j] = _DIGITS4.take(n)
        after &= n == 10**4
        n, q = q, n
    return out.view(np.uint8)[:, 4 * chunks - count:]


def _index_text(x, gap, *, buffers):
    """(len(x), gap + w) slots: "%d//%d" % (i, i) for each i = x[j] in
    row j after the gap, NUL-padded to the longest text's w bytes.  numpy
    writes the indices in [1, 10^8), _rest the others.  Indices that span
    fewer values than x has, as an integrate_surface mesh's faces do in
    each block, are formatted once each over their span, and each x[j]
    takes its row from there."""
    lo, hi = int(x.min()), int(x.max())
    if hi - lo + 1 < x.size:
        span = _index_text(np.arange(lo, hi + 1), gap, buffers=buffers.span)
        return np.take(span, x - lo, axis=0, out=buffers.view("slots", (x.size, span.shape[1])),
                       mode="clip")
    exact = (x >= 1) & (x < 10**8)
    v = np.where(exact, x, 1)

    def lay(w, text, digits):
        text[:, :w] = digits[:, 8 - w:]
        text[:, w:w + 2] = ord("/")
        text[:, w + 2:2 * w + 2] = digits[:, 8 - w:]

    slots = _grouped(1 + np.searchsorted(10 ** np.arange(1, 8), v, side="right"), v,
                     lambda v, buffers: _digits(v, 8, buffers), lay, gap,
                     max(len(b"%d//%d" % (i, i)) for i in (lo, hi)), buffers)
    _rest(slots[:, gap:], x, exact, lambda i: b"%d//%d" % (i, i))
    return slots


def _float_text(x, gap, *, buffers):
    """(len(x), gap + _FIELD) slots: "%.17g" % v for each v = x[j] in row
    j after the gap, NUL-padded.  numpy writes each v with |v| in [1e-4,
    1e16), where "%.17g" writes 17 significant digits in fixed notation,
    less the fraction's trailing zeros and a dot that nothing follows;
    _rest the others."""
    a = np.abs(x, dtype=float)
    exact = (a >= 1e-4) & (a < 1e16)
    np.copyto(a, 1.0, where=~exact)
    n, e = _decimal17(a)
    del a
    key = (2 * (e + 4) + (x < 0)).astype(np.uint8)
    del e

    def lay(key, text, digits):
        # the digits after the last kept one are NUL, so is the dot when
        # no digit follows it, and the integer part keeps its zeros
        e, s = key // 2 - 4, key % 2
        if s:
            text[:, 0] = ord("-")
        if e >= 0:
            np.maximum(digits[:, :e + 1], ord("0"), out=text[:, s:s + e + 1])
            np.minimum(digits[:, e + 1], ord("."), out=text[:, s + e + 1])
            text[:, s + e + 2:s + 18] = digits[:, e + 1:]
        else:
            text[:, s:s + 1 - e] = ord("0")
            text[:, s + 1] = ord(".")
            text[:, s + 1 - e:s + 18 - e] = digits

    slots = _grouped(key, n, lambda n, buffers: _digits(n, 17, buffers, trim=True), lay,
                     gap, _FIELD, buffers)
    _rest(slots[:, gap:], x, exact, b"%.17g".__mod__)
    return slots


def _rest(texts, x, exact, text):
    """Writes text(x[j]), NUL-padded, over row j of texts for each value
    x[j] that is not exact, one by one."""
    j = np.flatnonzero(~exact)
    rows = b"".join(text(v).ljust(texts.shape[1], b"\0") for v in x[j].tolist())
    texts[j] = np.frombuffer(rows, np.uint8).reshape(len(j), texts.shape[1])


def _decimal17(a):
    """(n, e): a to 17 significant digits is n 10^(e - 16), with 10^16 <=
    n < 10^17, for a in [1e-4, 1e16).

    With e = floor(log10 a), n is the integer nearest a 10^p, p = 16 - e,
    ties to even as dtoa rounds them: Dekker's TwoProduct gives hi + lo =
    a 10^p exactly, and hi >= 1e16 > 2^53 is an even integer, so n = hi +
    rint(lo).  n never rounds up to 10^17: the largest double below each
    power of ten from 1e-3 to 1e16 lies more than half a unit of the 17th
    digit below it."""
    p = np.floor(np.log10(a)).astype(np.intp)
    np.subtract(16, p, out=p)
    hi, lo = _scaled(a, p)
    # one step where log10 is off across a power of ten, so that a 10^p
    # lies in [1e16, 1e17)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if below.any() or above.any():
        p += below
        p -= above
        del hi, lo
        hi, lo = _scaled(a, p)
    n = hi.astype(np.int64)
    n += np.rint(lo, out=lo).astype(np.int64)
    return n, np.subtract(16, p, out=p)


def _scaled(a, p):
    """(hi, lo) with hi + lo = a 10^p exactly: Dekker's TwoProduct with
    Veltkamp's split, 10^p and its halves read from tables, in five
    arrays of a's size."""
    hi = _POW10.take(p)
    np.multiply(a, hi, out=hi)
    ah, al = _split(a)
    lo = _POW10_HI.take(p)
    np.multiply(ah, lo, out=lo)
    lo -= hi
    bl = _POW10_LO.take(p)
    lo += np.multiply(ah, bl, out=ah)
    lo += np.multiply(al, np.take(_POW10_HI, p, out=ah, mode="clip"), out=ah)
    lo += np.multiply(al, bl, out=bl)
    return hi, lo


def _split(x):
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    hi = 134217729.0 * x  # 2^27 + 1
    lo = hi - x
    hi -= lo
    return hi, np.subtract(x, hi, out=lo)


# Veltkamp's halves of each power of ten in _POW10
_POW10_HI, _POW10_LO = _split(_POW10)


def integrate_position(data: WeierstrassData, paths) -> np.ndarray:
    """X-displacement Re int omega along a sequence of QuadraturePaths."""
    total = np.zeros(3)
    for path in paths:
        total = total + real_period(period_vector(data, path))
    return total


def enneper_data() -> WeierstrassData:
    """Enneper data s1 = phi, s2 = z phi on the sphere (no ends, so the
    default end clearance is 0.05)."""
    s1, s2 = polynomial_sphere_basis(1)
    return WeierstrassData(s1=s1, s2=s2)
