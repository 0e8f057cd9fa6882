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
SurfaceMesh.checks bounds by MESH_TOL.  Gauss-Legendre edge quadrature
stays as the oracle: quadrature_edges integrates every grid edge
independently, and quadrature_loop_residual closes its cells.

A mesh stores its vertices, its normals and the grid it was made on: the
chart map, grid point (i, j) at the chart point x[i] + y[j] (ChartMap),
made once a mesh and read by every stage, and the vertex and cell masks,
the cells with four valid corners whose closed chart square holds no end.
The vertex mask reads the data's end_distance and chart_singular_distance
on the grid points near an end or a chart singularity alone.  One walk
covers that grid: the mask, vertex and cell stages of integrate_surface
and both exporters work on blocks of whole grid rows (_row_blocks), and
the ordinal of the first vertex of each grid row (_row_starts) says
which vertices a block holds.
A block's chart points are chart.rows, masked; a block of cell rows gets
its faces from one cumsum of the vertex mask over its grid rows (_faces),
and its loop closures from its vertices scattered onto those rows a
coordinate at a time, as differences of grid slices.  On a torus a block
of vertices takes one theta frame (the domain's points), which the rows,
the chart weight and the primitive each read.  Each stage works in place
on block-sized arrays, each dropped before the next, so a mesh's memory
is the finished mesh plus one block, and every step is pointwise, so a
vertex's bits depend only on that vertex and not on the blocks.

export_obj and export_csv write the bytes of "%.17g" and "%d//%d", with
numpy making a block's text at once in one byte buffer, which each block
of a table reuses, each value's text NUL-padded in a slot of its own,
behind a 4-byte separator written as one uint32 word a slot: a float
with |x| in [1e-4, 1e16) is scaled exactly to its 17-digit integer
(Dekker's TwoProduct), whose digits come from a table of 4-digit chunks,
split off by floor division, with the zeros after the last kept digit
NUL, and a face index in [1, 10^8) is read from the same table, once per
block for each index of the block's span when that span is shorter than
the block, as a mesh's faces are.  "%" formats every other value, one by
one.  The bytes that are not NUL are the text.  Each block goes to the
file as it is made, through reportio.overwrite, which writes over an
existing file's bytes in place instead of freeing them with a truncating
open, so rewriting an output reuses its blocks.
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
    "ChartMap",
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
# grid points or cells, in whole grid rows, per block of integrate_surface's
# mask, vertex and cell stages: a mesh's memory is the finished mesh plus
# one block, and on a torus that block's theta frame sets the rest of the
# peak.  Every step is pointwise, so any block gives a mesh the same bits
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
        a = np.array(self.domain.ends.points, dtype=complex)
        a = a[~np.isinf(a)]
        i, j = np.triu_indices(a.size, 1)
        d = self.domain.distance(a[i], a[j])
        return float(d.min()) if d.size else 1.0

    @property
    def domain(self):
        return self.s1.domain

    def omega(self, u):
        """The three 1-form coefficients of dX at u, shape (3, ...)."""
        at = self.domain.points(u)
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
    """min over points p of dom.distance(u, p), from one array distance."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if not points:
        return np.full(u.shape, np.inf)
    return np.min(dom.distance(u[..., None], np.array(points, dtype=complex)), axis=-1)


@dataclass(frozen=True)
class GridSpec:
    """Chart grid: nx * ny vertices; extent L means [-L, L]^2 on the sphere.

    On a torus the unit square of lattice fractions is used and extent is
    ignored; it must still be positive and finite, as the CLI's --extent is.
    """

    nx: int = 65
    ny: int = 65
    extent: float = 2.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 vertices")
        if not 0.0 < self.extent < math.inf:
            raise ValueError(f"grid extent must be positive and finite, not {self.extent}")


@dataclass(frozen=True)
class ChartMap:
    """A chart grid's map: grid point (i, j) lies at the chart point x[i] +
    y[j].  On the sphere x holds the grid's real parts and y its imaginary
    ones; on a torus x and y are the lattice fractions 0 to 1 times 2
    omega1 and 2 omega3.  The masks, a mesh's vertices and the oracle's
    edges all read a grid point as that one sum (rows), so its bits are the
    same wherever it is read."""

    x: np.ndarray  # (nx,) complex
    y: np.ndarray  # (ny,) complex

    @property
    def shape(self):
        return len(self.x), len(self.y)

    def rows(self, r0, r1) -> np.ndarray:
        """The chart points of the grid rows r0 to r1, shape (r1 - r0, ny)."""
        return self.x[r0:r1, None] + self.y

    @property
    def steps(self):
        """The grid's two steps, x[1] - x[0] and y[1] - y[0]."""
        return complex(self.x[1] - self.x[0]), complex(self.y[1] - self.y[0])

    def positions(self, u) -> np.ndarray:
        """The coordinates of the chart points u along the grid's two steps
        from grid point (0, 0), shape (2, u.size)."""
        (p, q), w = self.steps, np.reshape(u, -1) - complex(self.x[0] + self.y[0])
        det = (p.conjugate() * q).imag
        return np.stack([(w.conjugate() * q).imag, (p.conjugate() * w).imag]) / det

    def nearest(self, u):
        """(i, j), the grid point nearest the chart point u: its positions,
        rounded and clipped to the grid; a coordinate that is not finite,
        as inf and nan make, reads 0."""
        with np.errstate(all="ignore"):
            t = self.positions(u)[:, 0].tolist()
        return tuple(min(max(round(x), 0), n - 1) if math.isfinite(x) else 0
                     for x, n in zip(t, self.shape))

    def snaps(self, ij, u) -> bool:
        """Whether the chart point u is grid point ij = (i, j): within
        GRID_SNAP_TOL of the grid's least step, so that the snap scales with
        the chart."""
        (i, j), x, y = ij, self.x, self.y
        step = min(abs(x[1] + y[0] - (x[0] + y[0])), abs(x[0] + y[1] - (x[0] + y[0])))
        return bool(abs(x[i] + y[j] - complex(u)) <= GRID_SNAP_TOL * step)


@dataclass
class SurfaceMesh:
    """A closed-form mesh and the chart grid it was made on: the chart map
    and the vertex and cell masks.  Its vertices are the grid points of the
    vertex mask in the grid's C order, and each cell of the cell mask, in
    that order, is two faces.  The faces and the vertices' chart points are
    not stored but read from the grid (_faces, ChartMap.rows), and the
    exporters read them a block of grid rows at a time (module docstring)."""

    vertices: np.ndarray  # (N, 3) real
    gauss: np.ndarray  # (N, 3) unit normals
    chart: ChartMap
    valid: np.ndarray  # (nx, ny) bool, the vertex mask
    cell: np.ndarray  # (nx - 1, ny - 1) bool, the cells that are faces
    metadata: dict = field(default_factory=dict)

    @property
    def faces(self) -> np.ndarray:
        """(M, 3) int32 vertex indices, 0-based."""
        return _faces(self, _row_starts(self.valid), 0, len(self.cell))

    @property
    def domain_uv(self) -> np.ndarray:
        """(N,) complex chart coordinates of the vertices."""
        return self.chart.rows(0, len(self.valid))[self.valid]

    def vertex_at(self, u):
        """Index of the mesh vertex at chart coordinate u: the grid point
        nearest u, when u is that point (ChartMap.snaps) and it is a vertex."""
        i, j = self.chart.nearest(u)
        if not (self.chart.snaps((i, j), u) and self.valid[i, j]):
            raise KeyError(f"no mesh vertex at {u}")
        return int(np.count_nonzero(self.valid[:i]) + np.count_nonzero(self.valid[i, :j]))

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
# a chart point within GRID_SNAP_TOL of the least grid step of a grid
# point is that point (integrate_surface's basepoint, SurfaceMesh.vertex_at)
GRID_SNAP_TOL = 1e-9


def _chart_map(dom, grid: GridSpec) -> ChartMap:
    """The grid's chart map on the domain: its sums are the whole grid's X
    + iY on the sphere and FX 2 omega1 + FY 2 omega3 on a torus, bit for
    bit."""
    if dom.genus == 1:
        return ChartMap(np.linspace(0.0, 1.0, grid.nx) * (2 * dom.ctx.omega1),
                        np.linspace(0.0, 1.0, grid.ny) * (2 * dom.ctx.omega3))
    return ChartMap(np.linspace(-grid.extent, grid.extent, grid.nx).astype(complex),
                    1j * np.linspace(-grid.extent, grid.extent, grid.ny))


def _row_blocks(rows, width, size):
    """(r0, r1), the blocks of rows 0 to rows of width values each: whole
    rows, about size values a block and at least one row."""
    step = max(1, size // width)
    return ((r, min(r + step, rows)) for r in range(0, rows, step))


def _row_starts(valid) -> np.ndarray:
    """The ordinal of the first vertex of each grid row of the vertex mask,
    and the vertex count last: grid rows r0 to r1 hold the vertices
    starts[r0] to starts[r1]."""
    return np.concatenate([[0], np.cumsum(np.count_nonzero(valid, axis=1))])


def _stamps(dom, chart: ChartMap, points, reach):
    """(g, e): the grid positions g, shape (2, stamps), of the chart points
    and, on a torus, of their lattice translates whose disks of radius
    reach (one per point) may meet the grid, and e, the same shape, each
    disk's half-extent in grid steps along each axis.  A position is the
    point's coordinates along the grid's two steps (ChartMap.positions),
    clipped to 2 steps beyond the grid, so that an end far off it stays a
    finite position off it.
    On a torus the translates are a + m 2 omega1 + n 2 omega3 over the
    (m, n) that the grid's corners span in lattice fractions, widened by
    the widest disk: the 3 x 3 around a point of the unit cell at reach 0,
    more on a skewed or unreduced basis or a wide disk.  A reach is capped
    at |b1| + |b2| of the reduced periods, beyond which the disks around
    a point's translates cover the plane."""
    a = np.array(points, dtype=complex).reshape(-1)
    reach = np.zeros(a.size) + reach
    if dom.genus == 1 and a.size:
        reach = np.minimum(reach, sum(map(abs, dom.ctx.lattice.reduced_periods)))
        b1, b2 = 2 * dom.ctx.omega1, 2 * dom.ctx.omega3
        # lattice fractions of the grid's corners and of the points
        u, det = np.concatenate([chart.x[[0, -1, 0, -1]] + chart.y[[0, 0, -1, -1]], a]), \
            (b1.conjugate() * b2).imag
        f = np.stack([(u.conjugate() * b2).imag, (b1.conjugate() * u).imag]) / det
        span = reach.max() * np.array([abs(b2), abs(b1)]) / abs(det)
        m, n = (np.arange(math.floor(c[:4].min() - w - c[4:].max()),
                          math.ceil(c[:4].max() + w - c[4:].min()) + 1) for c, w in zip(f, span))
        shifts = (m[:, None] * b1 + n * b2).ravel()
        a, reach = (a[:, None] + shifts).ravel(), np.repeat(reach, shifts.size)
    p, q = chart.steps
    extent = np.array([[abs(q)], [abs(p)]]) / abs((p.conjugate() * q).imag)
    return np.clip(chart.positions(a), -2, np.reshape(chart.shape, (2, 1)) + 1), reach * extent


def _valid_mask(data: WeierstrassData, chart: ChartMap) -> np.ndarray:
    """Grid points outside the end clearance and off chart singularities
    (the lattice point and omega_r when those are not ends; the form itself
    is regular there).  Only the grid points of the box of grid steps
    around each end's or singularity's disk (_stamps), one step wider on
    every side, can miss either, so every other grid point is valid, and
    the distances are taken on those boxes alone: end_distance and
    chart_singular_distance, each in one call per block of about _BLOCK
    distances."""
    dom = data.domain
    points = [p for p in dom.ends.points if not is_infinity(p)]
    singular = dom.chart_singularities()
    reach = np.repeat([data.end_clearance, CHART_SINGULAR_TOL], [len(points), len(singular)])
    g, e = _stamps(dom, chart, points + singular, reach)
    lo = np.maximum(np.ceil(g - e) - 1, 0).astype(int)
    hi = np.minimum(np.floor(g + e) + 2, np.reshape(chart.shape, (2, 1))).astype(int)
    near, meets = np.zeros(chart.shape, bool), (lo < hi).all(axis=0)
    for (i0, j0), (i1, j1) in zip(lo.T[meets].tolist(), hi.T[meets].tolist()):
        near[i0:i1, j0:j1] = True
    valid = np.ones(chart.shape, bool)
    i, j = np.nonzero(near)
    step = max(1, _BLOCK // max(len(reach), 1))
    for k in range(0, i.size, step):
        ij = i[k:k + step], j[k:k + step]
        u = chart.x[ij[0]] + chart.y[ij[1]]
        valid[ij] = (data.end_distance(u) > data.end_clearance) \
            & (data.chart_singular_distance(u) > CHART_SINGULAR_TOL)
    return valid


def _cell_mask(data: WeierstrassData, chart: ChartMap, valid) -> np.ndarray:
    """Cells (i, j), corners (i, j) to (i+1, j+1), with four valid corners
    and no finite end in their closed chart square: on a torus the square
    in lattice fractions, and the ends' lattice translates (_stamps).  Each
    end clears the cells i <= g <= i + 1 on each axis around its grid
    position g, a position within GRID_LINE_TOL of a grid line counting as
    on it, so no face spans an end when the end clearance is below the
    grid step."""
    cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    dom = data.domain
    g, _ = _stamps(dom, chart, [p for p in dom.ends.points if not is_infinity(p)], 0.0)
    lo = np.maximum(np.ceil(g - GRID_LINE_TOL) - 1, 0).astype(int)
    hi = np.clip(np.floor(g + GRID_LINE_TOL), -1, np.reshape(cell.shape, (2, 1)) - 1).astype(int)
    for (i0, j0), (i1, j1) in zip(lo.T, hi.T):
        cell[i0:i1 + 1, j0:j1 + 1] = False
    return cell


def _closure(h0, v1, h1, v0) -> np.ndarray:
    """|((h0 + v1) - h1) - v0|, the closure of a cell's four edge increments
    h0 = b - a, v1 = c - b, h1 = c - d and v0 = d - a, with its corners
    a, b, c, d at grid points (i, j), (i+1, j), (i+1, j+1) and (i, j+1),
    each increment's coordinate axis first: in two buffers, the sum and its
    norm, bitwise np.linalg.norm's over a last axis (three terms add in
    the same order along either axis)."""
    t = np.add(h0, v1)
    t -= h1
    t -= v0
    t *= t
    norm = np.add.reduce(t, axis=0)
    return np.sqrt(norm, out=norm)


def _faces(mesh: SurfaceMesh, starts, r0, r1, base=0) -> np.ndarray:
    """The int32 faces of the cell rows r0 to r1, their vertex indices
    counted from base: (a, b, c) and (a, c, d) for each cell of the cell
    mask in order, its corners a, b, c, d at grid points (i, j), (i+1, j),
    (i+1, j+1) and (i, j+1).  The corners are counted on the cells' grid
    rows alone, from starts (_row_starts); c and d, a cell's corners after
    b and a in C order, are b + 1 and a + 1."""
    index = np.cumsum(mesh.valid[r0:r1 + 1], dtype=np.int32).reshape(r1 + 1 - r0, -1)
    index += int(starts[r0]) + base - 1
    cell = mesh.cell[r0:r1]
    a, b = index[:-1, :-1][cell], index[1:, :-1][cell]
    del index
    quads = np.empty((len(a), 6), np.int32)
    quads[:, 0] = quads[:, 3] = a
    quads[:, 1] = b
    np.add(b, 1, out=quads[:, 2])
    quads[:, 4] = quads[:, 2]
    np.add(a, 1, out=quads[:, 5])
    return quads.reshape(-1, 3)


def integrate_surface(data: WeierstrassData, grid: GridSpec, basepoint) -> SurfaceMesh:
    """Closed-form mesh X = Re sigma(Phi(u) - Phi(basepoint)) over the masked chart grid.

    Phi holds the primitives of s1^2, s2^2 and s1 s2 (spinor.form_primitive).
    The basepoint must be a grid vertex at clearance distance from every
    end; its image is the origin.  The metadata records the closed form's
    own evidence: the largest identity residual |f g mu - form| at a
    vertex, relative to |f g mu| plus the size of the form's terms there;
    the largest relative end residue; and the largest loop closure of a
    cell's four edge increments.  Every stage works on blocks of whole grid
    rows (_row_blocks): vertices and normals on blocks of about _BLOCK grid
    points, whose vertices' chart points are read from the grid and whose
    results are written straight into the mesh; closures on blocks of
    about _BLOCK cells, from the block's vertices laid out on its grid rows.
    """
    chart = _chart_map(data.domain, grid)
    valid = _valid_mask(data, chart)
    base = complex(basepoint)
    root = chart.nearest(base)
    if not valid[root]:
        raise ValueError("basepoint is inside an end clearance disk")
    if not chart.snaps(root, base):
        raise ValueError("basepoint must be a grid vertex")

    s1, s2 = data.s1, data.s2
    prim = form_primitive(((s1, s1), (s2, s2), (s1, s2)))
    starts = _row_starts(valid)
    count = int(starts[-1])
    verts, gauss = np.empty((count, 3)), np.empty((count, 3))
    # each coordinate's range, kept per block: a reduction down the
    # columns of verts would step through its rows three values at a time
    identity, lo, hi = 0.0, np.inf, -np.inf
    for r0, r1 in _row_blocks(grid.nx, grid.ny, _BLOCK):
        k0, k1, lead = starts[r0], starts[r1], int(r0 == 0)
        if k0 == k1 and not lead:
            continue
        pts = chart.rows(r0, r1)[valid[r0:r1]]
        if lead:
            # the root leads the first block: its Phi comes from that call,
            # not from a call of its own (one more theta frame on a torus)
            pts = np.concatenate([[chart.x[root[0]] + chart.y[root[1]]], pts])
        at = data.domain.points(pts)
        f1, f2 = section_values((s1, s2), at)
        products = np.empty((3,) + f1.shape, complex)
        np.multiply(f1, f1, out=products[0])
        np.multiply(f2, f2, out=products[1])
        np.multiply(f1, f2, out=products[2])
        weight = data.domain.form_weight(at)
        if np.ndim(weight) or weight != 1.0:  # the sphere's 1.0 would leave them as they are
            products *= weight
        del weight
        _normals(f1[lead:], f2[lead:], gauss[k0:k1])
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
        verts[k0:k1] = x.T
        # initial: the root may be the first block's only point
        lo = np.minimum(lo, x.min(axis=1, initial=np.inf))
        hi = np.maximum(hi, x.max(axis=1, initial=-np.inf))
        del x

    cell, resid = _cell_mask(data, chart, valid), 0.0
    for r0, r1 in _row_blocks(grid.nx - 1, grid.ny - 1, _BLOCK):
        # the block's cell rows and the grid rows of their corners, onto
        # which the block's vertices are scattered a coordinate at a time,
        # 0 off the mask; the edges along x and y are grid differences
        mask, block = valid[r0:r1 + 1], verts[starts[r0]:starts[r1 + 1]]
        X = np.zeros((3,) + mask.shape)
        for i in range(3):
            X[i][mask] = block[:, i]
        h, v = np.subtract(X[:, 1:], X[:, :-1]), np.subtract(X[:, :, 1:], X[:, :, :-1])
        del X
        closure = _closure(h[:, :, :-1], v[:, 1:], h[:, :, 1:], v[:, :-1])
        del h, v
        resid = np.maximum(resid, np.max(closure, where=cell[r0:r1], initial=0.0))
        del closure

    return SurfaceMesh(
        vertices=verts,
        gauss=gauss,
        chart=chart,
        valid=valid,
        cell=cell,
        metadata={
            "end_clearance": data.end_clearance,
            "grid": (grid.nx, grid.ny, grid.extent),
            "basepoint": base,
            "loop_residual_max": float(resid),
            "identity_residual_max": float(identity),
            "end_residue_max": prim.end_residue_max,
            "mesh_scale": float((hi - lo).max()),
            "vertex_count": count,
        })


def quadrature_edges(data: WeierstrassData, grid: GridSpec):
    """(valid, h, v): the vertex mask and Re int omega by 12-node Gauss-Legendre
    quadrature along every grid edge, h[i, j] from U[i, j] to U[i+1, j] and
    v[i, j] from U[i, j] to U[i, j+1], NaN where an edge leaves the mask.

    The test oracle for integrate_surface."""
    chart = _chart_map(data.domain, grid)
    U, valid = chart.rows(0, grid.nx), _valid_mask(data, chart)
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
    h, v = np.moveaxis(h, -1, 0), np.moveaxis(v, -1, 0)
    closure = _closure(h[:, :, :-1], v[:, 1:], h[:, :, 1:], v[:, :-1])
    return float(np.max(closure[_cell_mask(data, _chart_map(data.domain, grid), valid)],
                        initial=0.0))


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
    f1, f2 = section_values((data.s1, data.s2), u)
    return _normals(f1, f2, np.empty(f1.shape + (3,)))


def _normals(f1, f2, n):
    """gauss_map from the section values f1, f2, written into n, shape
    f1.shape + (3,), and returned."""
    if np.any((f1 == 0) & (f2 == 0)):
        raise ValueError("gauss map undefined at a common zero (branch point)")
    pole = np.abs(f1) <= 1e-15 * np.abs(f2)
    g = np.where(pole, 1.0, f1)
    np.divide(f2, g, out=g)
    g2 = np.abs(g)
    g2 *= g2
    den = g2 + 1.0
    np.multiply(g.real, 2.0, out=n[..., 0])
    np.multiply(g.imag, 2.0, out=n[..., 1])
    del g
    np.subtract(g2, 1.0, out=n[..., 2])
    n /= den[..., None]
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
    estimates = []
    for m in _DEGREE_LEVELS:
        total = 0.0
        for u, w in _degree_blocks(data.domain, m):
            (f1, f2), (d1, d2) = section_values(pair, data.domain.points(u), derivative=True)
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
        w = abs((b1.conjugate() * b2).imag) / (n1 * n2)
        for r0, r1 in _row_blocks(n1, n2, _BLOCK):
            yield (rows[r0:r1, None] + row).ravel(), w
        return
    t, wt = np.polynomial.legendre.leggauss(m)
    r, row = (t + 1.0) / 2.0, np.exp(1j * np.pi * np.arange(2 * m) / m)
    weight = wt / 2.0 * r * (np.pi / m)
    for r0, r1 in _row_blocks(m, 4 * m, _BLOCK):
        z = (r[r0:r1, None] * row).ravel()
        w = np.repeat(weight[r0:r1], 2 * m)
        yield np.concatenate([z, 1.0 / z]), np.concatenate([w, w / np.abs(z) ** 4])


def export_obj(mesh: SurfaceMesh, path) -> Path:
    """Wavefront OBJ with 17-significant-digit vertices and normals; the
    faces are read from the mesh's grid, a block of cell rows at a time."""
    if not len(mesh.vertices):
        raise ValueError("cannot export an empty mesh")
    (nx, ny), starts = mesh.valid.shape, _row_starts(mesh.valid)

    def rows(a):
        return (a[starts[r0]:starts[r1]] for r0, r1 in _row_blocks(nx, ny, _VALUES // 3))
    faces = (_faces(mesh, starts, r0, r1, base=1)
             for r0, r1 in _row_blocks(nx - 1, ny - 1, _VALUES // 6))
    return _write_rows(path, b"", ((b"v ", b" ", rows(mesh.vertices), _float_text),
                                   (b"vn ", b" ", rows(mesh.gauss), _float_text),
                                   (b"f ", b" ", faces, _index_text)))


def export_csv(mesh: SurfaceMesh, path) -> Path:
    """CSV of (u, X, n) samples: re(u), im(u), x, y, z, nx, ny, nz; the
    chart points are read from the mesh's grid, a block of rows at a time."""
    if not len(mesh.vertices):
        raise ValueError("cannot export an empty mesh")
    (nx, ny), starts = mesh.valid.shape, _row_starts(mesh.valid)

    def rows():
        for r0, r1 in _row_blocks(nx, ny, _VALUES // 8):
            k0, k1 = starts[r0], starts[r1]
            uv = mesh.chart.rows(r0, r1)[mesh.valid[r0:r1]]
            yield np.column_stack([uv.real, uv.imag, mesh.vertices[k0:k1], mesh.gauss[k0:k1]])
    return _write_rows(path, b"re_u,im_u,x,y,z,nx,ny,nz\n", ((b"", b",", rows(), _float_text),))


def _write_rows(path, header: bytes, tables) -> Path:
    """The header, then each (prefix, sep, blocks, text) table, blocks an
    iterable of 2-D arrays of rows: one line per row, the prefix, then each
    value's text ("%.17g" by _float_text, "%d//%d" by _index_text)
    followed by sep, the last by a newline.  A block of no rows is skipped.

    A block is one byte buffer with a slot per value: sep or, first in a
    row, the newline that ends the row before and the prefix, NUL-padded in
    front to one _GAP-byte word, then the value's text, NUL-padded behind
    to whole words.  No text byte is NUL, so the block's text is the
    buffer's bytes that are not NUL, less the first newline, and a newline,
    which bytearray.translate copies out without a mask.  A table's blocks
    reuse its buffers (_Buffers), and each block drops its temporaries
    before it lays its text.  numpy makes the text of floats with |x| in
    [1e-4, 1e16) and of indices in [1, 10^8); "%" formats every other
    value, one at a time: 0, subnormals, |x| below 1e-4 or from 1e16 up,
    inf, nan and the other indices.  The blocks go to path through
    reportio.overwrite as they are made."""
    return overwrite(path, _blocks(header, tables))


def _blocks(header: bytes, tables):
    """The chunks of _write_rows' bytes: the header, then each block's
    text and its last newline.  A table's blocks reuse its _Buffers."""
    yield header
    for prefix, sep, blocks, text in tables:
        buffers = _Buffers()
        for rows in blocks:
            if not rows.size:
                continue
            # each slot's separator word: the newline and prefix, or sep
            width = rows.shape[1]
            gaps = np.frombuffer(b"".join(x.rjust(_GAP, b"\0") for x in
                                          [b"\n" + prefix] + [sep] * (width - 1)), np.uint32)
            slots = text(rows.ravel(), _GAP, buffers=buffers)
            slots.view(np.uint32).reshape(-1, width, slots.shape[1] // _GAP)[:, :, 0] = gaps
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


# values per block of the exporters, in whole grid rows (about 4096 OBJ
# vertex rows or 2048 cells): a block's text arrays and buffer stay well
# under integrate_surface's block
_VALUES = 3 * _BLOCK // 2
# bytes of a float's text: "%.17g" is at most 24 bytes long, as in
# "-2.2250738585072014e-308"
_FIELD = 24
# bytes of a slot's separator, one uint32 word: "\nvn " just fits
_GAP = 4
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
    after, q, t = np.full(len(n), trim), np.empty_like(n), np.empty_like(n)
    for j in range(chunks - 1, -1, -1):
        # the chunk n - 10^4 q by floor_divide, a multiply and a subtract,
        # in half np.divmod's time on int64, and exact on these integers
        np.floor_divide(n, 10**4, out=q)
        n -= np.multiply(q, 10**4, out=t)
        np.add(n, 10**4, out=n, where=after)
        out[:, j] = _DIGITS4.take(n)
        after &= n == 10**4
        n, q = q, n
    return out.view(np.uint8)[:, 4 * chunks - count:]


def _index_text(x, gap, *, buffers):
    """(len(x), gap + w) slots: "%d//%d" % (i, i) for each i = x[j] in
    row j after the gap, NUL-padded to w bytes, the longest text's rounded
    up to whole words of _GAP bytes, so that slots align as uint32.  numpy
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
                     -(-max(len(b"%d//%d" % (i, i)) for i in (lo, hi)) // _GAP) * _GAP, buffers)
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
