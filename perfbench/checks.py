"""Output checks made apart from the program.

Every check reads what an operation wrote (JSON report, OBJ mesh) or
returned, and compares it with a computation of the benchmark's own or
with a property the method must have.  Checks run outside the timed
region; a failed check raises CheckFailed and the operation counts as
failed.  Independent references: mpmath (`jtheta`, `quad`), numpy
linear algebra, brute-force nearest-lattice-point search, and a
trapezoidal contour rule on circles whose radii come from that search.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

mpmath.mp.dps = 20


class CheckFailed(Exception):
    """An operation's output disagrees with the independent reference."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def cx(pair):
    """Decode a report complex number ([re, im]) or a plain real."""
    if isinstance(pair, (list, tuple)):
        return complex(float(pair[0]), float(pair[1]))
    return complex(pair)


def cx_array(rows):
    return np.array([[cx(v) for v in row] for row in rows], dtype=complex)


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# lattices: brute-force nearest lattice point, mpmath Weierstrass functions
# ---------------------------------------------------------------------------

class BruteLattice:
    """Lattice {2m w1 + 2n w3}; distances by exhaustive nearest-point search.

    Points are first shifted by rounding their coordinates (which may
    pick the wrong lattice point on a skewed basis); the search then
    scans every lattice point within twice the cell diameter, so the
    nearest one is always among them.
    """

    def __init__(self, w1, w3):
        self.w1, self.w3 = complex(w1), complex(w3)
        self.p1, self.p3 = 2 * self.w1, 2 * self.w3
        reach = 2.0 * (abs(self.p1) + abs(self.p3))
        shortest = min(abs(self.p1), abs(self.p3), abs(self.p1 + self.p3),
                       abs(self.p1 - self.p3))
        height = abs((self.p1.conjugate() * self.p3).imag) / max(abs(self.p1), abs(self.p3))
        k = int(math.ceil(reach / min(shortest, height))) + 1
        m = np.arange(-k, k + 1)
        lam = (m[:, None] * self.p1 + m[None, :] * self.p3).ravel()
        self.points = lam[np.abs(lam) <= reach]

    def distance(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        det = (self.p1.conjugate() * self.p3).imag
        x = (u * self.p3.conjugate()).imag / -det
        y = (u * self.p1.conjugate()).imag / det
        red = u - np.round(x) * self.p1 - np.round(y) * self.p3
        out = np.empty(red.shape)
        for lo in range(0, red.size, 2048):
            chunk = red[lo:lo + 2048]
            out[lo:lo + 2048] = np.min(np.abs(chunk[:, None] - self.points[None, :]), axis=1)
        return out


class MpWeierstrass:
    """e_i, eta_i and wp from mpmath.jtheta at nome q = exp(i pi w3/w1)."""

    def __init__(self, w1, w3):
        self.w1, self.w3 = mpmath.mpc(w1), mpmath.mpc(w3)
        self.q = mpmath.exp(1j * mpmath.pi * self.w3 / self.w1)
        self.c = mpmath.pi / (2 * self.w1)
        th2, th3, th4 = (mpmath.jtheta(k, 0, self.q) for k in (2, 3, 4))
        c2 = self.c ** 2
        self.e = (c2 * (th3**4 + th4**4) / 3, c2 * (th2**4 - th4**4) / 3,
                  -c2 * (th2**4 + th3**4) / 3)
        d1 = mpmath.jtheta(1, 0, self.q, 1)
        d3 = mpmath.jtheta(1, 0, self.q, 3)
        self.eta1 = -(mpmath.pi**2 / (12 * self.w1)) * d3 / d1
        # Legendre relation eta1 w3 - eta3 w1 = i pi / 2
        self.eta3 = (self.eta1 * self.w3 - 1j * mpmath.pi / 2) / self.w1

    def wp(self, u):
        v = self.c * mpmath.mpc(u)
        t0 = mpmath.jtheta(1, v, self.q)
        t1 = mpmath.jtheta(1, v, self.q, 1)
        t2 = mpmath.jtheta(1, v, self.q, 2)
        return complex(-self.eta1 / self.w1 + self.c**2 * ((t1 / t0) ** 2 - t2 / t0))


def rel_close(a, b, tol, floor=1e-300):
    return abs(a - b) <= tol * max(abs(a), abs(b), floor)


# ---------------------------------------------------------------------------
# linear algebra of Omega
# ---------------------------------------------------------------------------

def check_omega_algebra(omega, pf=None, K=(), abs_pf=None):
    """pf^2 = det (numpy), skewness, and K vectors in ker Omega."""
    n = omega.shape[0]
    scale = max(float(np.max(np.abs(omega))), 1e-300)
    require(np.max(np.abs(omega + omega.T)) <= 1e-12 * scale, "Omega is not skew")
    det = np.linalg.det(omega)
    floor = 1e-9 * scale**n
    if pf is not None:
        require(abs(pf * pf - det) <= 1e-8 * abs(det) + floor,
                f"pf^2 {pf * pf:.6e} != det {det:.6e}")
    if abs_pf is not None:
        require(abs(abs_pf**2 - abs(det)) <= 1e-8 * abs(det) + floor,
                f"|pf|^2 {abs_pf**2:.6e} != |det| {abs(det):.6e}")
    for k in K:
        k = np.asarray(k, dtype=complex)
        require(np.linalg.norm(omega @ k) <= 1e-7 * scale * np.linalg.norm(k),
                "K vector not in ker Omega")


# ---------------------------------------------------------------------------
# Omega by a trapezoidal quadratic-residue rule
# ---------------------------------------------------------------------------

def _on_circle(fns, z):
    """Values of each callable on the circle points z, as an (n, N) array."""
    return np.array([np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape) for f in fns])


def qres_omega(basis, ends, singular, dist, weight=None, nodes=96):
    """-1/2 sum_p qres_p(s dt - t ds) over the ends, every pair at once.

    On a circle of radius R around p the trapezoidal rule with N nodes
    gives (1/2 pi i) \\oint g du = (1/N) sum g(u_k)(u_k - p), exact up to
    (R / distance to the next singularity)^N; R is a quarter of that
    distance, measured by `dist` (brute-force on a torus).
    """
    n = len(basis)
    theta = 2 * np.pi * np.arange(nodes) / nodes
    total = np.zeros((n, n), dtype=complex)
    finite_sing = [q for q in singular if not math.isinf(abs(q))]
    for p in ends:
        if math.isinf(abs(p)):
            ws = [abs(1.0 / q) for q in finite_sing if q != 0]
            rad = 0.25 * min(ws)
            w = rad * np.exp(1j * theta)
            z = 1.0 / w
            f = _on_circle([s.evaluate for s in basis], z)
            df = _on_circle([s.derivative for s in basis], z)
            F = 1j * f / w
            D = -1j * (df / w**3 + f / w**2)
            wt = w * w
        else:
            ds = [d for d in (dist(p - q) for q in finite_sing) if d > 1e-12]
            rad = 0.25 * min(ds)
            u = p + rad * np.exp(1j * theta)
            F = _on_circle([s.evaluate for s in basis], u)
            D = _on_circle([s.derivative for s in basis], u)
            wt = (u - p) ** 2 * (weight(u) if weight is not None else 1.0)
        total += ((F * wt) @ D.T - (D * wt) @ F.T) / nodes
    return -0.5 * total


def check_omega_matrix(reference, omega, tol, what):
    scale = max(float(np.max(np.abs(omega))), 1.0)
    err = float(np.max(np.abs(reference - omega))) / scale
    require(err <= tol, f"{what} disagrees with the reported Omega by {err:.3e} (tol {tol:.0e})")


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

class Obj:
    """Vertices, normals and 0-based faces of an OBJ file."""

    def __init__(self, path):
        lines = Path(path).read_bytes().split(b"\n")
        v = [ln[2:] for ln in lines if ln.startswith(b"v ")]
        vn = [ln[3:] for ln in lines if ln.startswith(b"vn ")]
        f = [ln[2:].replace(b"//", b" ") for ln in lines if ln.startswith(b"f ")]
        self.v = np.array(b" ".join(v).split(), dtype=float).reshape(-1, 3)
        self.vn = np.array(b" ".join(vn).split(), dtype=float).reshape(-1, 3)
        idx = np.array(b" ".join(f).split(), dtype=np.int64).reshape(-1, 6)
        require(np.array_equal(idx[:, 0::2], idx[:, 1::2]), "face normal indices differ")
        self.f = idx[:, 0::2] - 1


def vertex_index(valid):
    """Mesh index of each valid grid vertex (row-major order, i slowest)."""
    index = np.full(valid.shape, -1, dtype=np.int64)
    index[valid] = np.arange(int(valid.sum()))
    return index


def check_mesh_common(obj, meta, valid):
    """Counts against the report, unit normals orthogonal to mesh edges,
    the reported scale, and the reported loop-closure residual."""
    n_valid = int(valid.sum())
    require(len(obj.v) == meta["vertex_count"] == n_valid,
            f"vertex count obj {len(obj.v)} report {meta['vertex_count']} mask {n_valid}")
    require(len(obj.vn) == len(obj.v), "one normal per vertex")
    cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    require(len(obj.f) == 2 * int(cells.sum()),
            f"face count {len(obj.f)} != {2 * int(cells.sum())}")
    require(obj.f.min() >= 0 and obj.f.max() < len(obj.v), "face index out of range")
    norms = np.linalg.norm(obj.vn, axis=1)
    require(np.max(np.abs(norms - 1.0)) <= 1e-12, "normals are not unit vectors")
    a, b = obj.f[:, [0, 1, 2]].ravel(), obj.f[:, [1, 2, 0]].ravel()
    edge = obj.v[b] - obj.v[a]
    mean_n = obj.vn[a] + obj.vn[b]
    length = np.linalg.norm(edge, axis=1) * np.linalg.norm(mean_n, axis=1)
    ok = length > 0
    cosine = np.abs(np.sum(edge * mean_n, axis=1))[ok] / length[ok]
    # the chord defect against the mean of the end normals is O(h^2)
    h2 = 1.0 / (meta["grid"][0] - 1) ** 2
    require(np.median(cosine) <= 20 * h2 and np.max(cosine) <= 1000 * h2,
            f"normals not orthogonal to edges (median {np.median(cosine):.2e}, "
            f"max {np.max(cosine):.2e})")
    scale = float(np.ptp(obj.v, axis=0).max())
    require(rel_close(scale, meta["mesh_scale"], 1e-12), "reported mesh scale differs")
    require(meta["loop_residual_max"] <= 1e-8 * scale,
            f"loop residual {meta['loop_residual_max']:.2e} above 1e-8 of the scale")
    return scale


def sphere_grid(meta):
    nx, ny, extent = meta["grid"]
    xs = np.linspace(-extent, extent, nx)
    ys = np.linspace(-extent, extent, ny)
    return xs[:, None] + 1j * ys[None, :]


def check_sphere_mesh(obj, meta, finite_ends, sections, samples, cache, key):
    """Mask and counts from the ends, then vertices against mpmath.quad of
    the Weierstrass form along straight chart paths from the basepoint.

    `sections` are two callables of an mpmath complex argument.  The
    reference displacement of each sampled vertex is cached under `key`,
    since it does not depend on the program's output.
    """
    U = sphere_grid(meta)
    eps = meta["end_clearance"]
    valid = np.ones(U.shape, dtype=bool)
    for p in finite_ends:
        valid &= np.abs(U - p) > eps
    scale = check_mesh_common(obj, meta, valid)
    index = vertex_index(valid)
    base = cx(meta["basepoint"])
    bi, bj = np.unravel_index(int(np.argmin(np.abs(U - base))), U.shape)
    require(np.allclose(obj.v[index[bi, bj]], 0.0, atol=1e-14), "basepoint image is not the origin")
    if key not in cache:
        picks = []
        order = samples.permutation(int(valid.sum()))
        flat = np.flatnonzero(valid.ravel())
        for k in order:
            u = U.ravel()[flat[k]]
            if all(_segment_distance(base, u, p) > 2 * eps for p in finite_ends):
                picks.append((int(flat[k]), _mp_displacement(sections, base, u)))
            if len(picks) == 2:
                break
        require(len(picks) == 2, "no vertex reachable by a straight path clear of the ends")
        cache[key] = picks
    worst = 0.0
    for flat_k, ref in cache[key]:
        i, j = np.unravel_index(flat_k, U.shape)
        worst = max(worst, float(np.max(np.abs(obj.v[index[i, j]] - ref))))
    require(worst <= 1e-9 * scale, f"vertex off the mpmath displacement by {worst:.2e}")


def _segment_distance(a, b, p):
    d = b - a
    t = min(max(((p - a) * d.conjugate()).real / max(abs(d) ** 2, 1e-300), 0.0), 1.0)
    return abs(a + t * d - p)


def _mp_displacement(sections, base, u):
    f1, f2 = sections
    base, d = mpmath.mpc(base), mpmath.mpc(u - base)
    comps = (lambda a, b: a * a - b * b, lambda a, b: 1j * (a * a + b * b),
             lambda a, b: 2 * a * b)
    out = []
    for comp in comps:
        val = mpmath.quad(lambda t: comp(f1(base + t * d), f2(base + t * d)) * d,
                          [0, 0.25, 0.5, 0.75, 1])
        out.append(float(mpmath.re(val)))
    return np.array(out)


def sphere_section(ends, coefficients):
    """f(z) = sum c_i / (z - a_i) + c_n, on the basis {phi/(z - a_i), phi}."""
    ends = [mpmath.mpc(a) for a in ends]
    coefficients = [mpmath.mpc(c) for c in coefficients]
    return lambda z: sum(c / (z - a) for c, a in zip(coefficients, ends)) + coefficients[-1]


def rational_section(numer, denom):
    """f(z) = N(z) / D(z) with ascending coefficient lists."""
    numer = [mpmath.mpc(c) for c in numer]
    denom = [mpmath.mpc(c) for c in denom]
    return lambda z: mpmath.polyval(numer[::-1], z) / mpmath.polyval(denom[::-1], z)


def check_torus_mesh(obj, meta, w1, w3, ends, extra_singular=()):
    """Mask from brute-force distances, counts, and periodicity: the
    vertices at u and u + 2 w1, u + 2 w3 coincide because the real
    periods vanish."""
    nx, ny, _ = meta["grid"]
    fx = np.linspace(0.0, 1.0, nx)
    fy = np.linspace(0.0, 1.0, ny)
    U = fx[:, None] * (2 * w1) + fy[None, :] * (2 * w3)
    lat = BruteLattice(w1, w3)
    eps = meta["end_clearance"]
    valid = np.ones(U.shape, dtype=bool)
    for p in ends:
        valid &= lat.distance(U.ravel() - p).reshape(U.shape) > eps
    for p in extra_singular:
        valid &= lat.distance(U.ravel() - p).reshape(U.shape) > 1e-9
    scale = check_mesh_common(obj, meta, valid)
    index = vertex_index(valid)
    gaps = []
    for a, b in ((index[0, :], index[-1, :]), (index[:, 0], index[:, -1])):
        both = (a >= 0) & (b >= 0)
        require(both.sum() >= 2, "no periodic vertex pairs on the cell boundary")
        gaps.append(np.max(np.linalg.norm(obj.v[a[both]] - obj.v[b[both]], axis=1)))
    worst = float(max(gaps))
    require(worst <= 1e-9 * scale, f"periodic vertices differ by {worst:.2e} (scale {scale:.3g})")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

SQRT3 = math.sqrt(3.0)
KLEIN_M = -2.0 * (1.0 - 4.0 * math.sqrt(2.0) * 1j) / 3.0


def check_sphere4(report):
    a = cx(report["parameter"][0])
    require(abs(a - (SQRT3 + 1j) / 2) <= 1e-12, f"sphere-4 root {a} is not (sqrt3+i)/2")
    ends = [cx(p) for p in report["ends"]]
    require(math.isinf(ends[-1].real) and abs(ends[0] - a) < 1e-12
            and abs(ends[1] - 1 / a) < 1e-12 and ends[2] == 0, "sphere-4 ends")
    omega = cx_array(report["omega"])
    K = [[cx(c) for c in k] for k in report["K_coefficients"]]
    require(len(K) == 2, "sphere-4 K plane must be 2-dimensional")
    check_omega_algebra(omega, K=K, abs_pf=report["residuals"]["pfaffian"])
    return ends[:-1], K


def check_torus4(report, mp_lattice):
    w1, w3 = cx(report["omega1"]), cx(report["omega3"])
    ends = [cx(p) for p in report["ends"]]
    want = [0, w1, w1 + w3, w3]
    require(all(abs(a - b) <= 1e-12 * abs(w1) for a, b in zip(ends, want)), "torus-4 ends")
    worst = 0.0
    for k, wk, eta in ((1, mp_lattice.w1, mp_lattice.eta1), (3, mp_lattice.w3, mp_lattice.eta3)):
        for i in range(3):
            ref = complex(-8 * (eta + wk * mp_lattice.e[i]))
            got = cx(report["periods_closed"][f"P{k}^{i + 1}{i + 1}"])
            worst = max(worst, abs(got - ref) / abs(ref))
    require(worst <= 1e-8, f"closed-form periods off mpmath by {worst:.2e}")
    return w1, w3, ends


def klein_lattice():
    """Square lattice scaled so that wp(w1) = 1, from mpmath."""
    base = MpWeierstrass(1.0, 1.0j)
    lam = complex(mpmath.sqrt(base.e[0]))
    return lam, 1j * lam


def check_klein4(report, mp_klein):
    r = cx(report["r"])
    require(r.real > 0 and r.imag < 0 and abs(r**4 + KLEIN_M * r**2 + 1) <= 1e-12,
            f"r = {r} is not the fourth-quadrant root")
    p = [r, -1 / r, -r, 1 / r]
    W = np.array([[4 / (p[i] - p[j]) if i != j else (p[i] ** 2 + 1) / (p[i] * (p[i] ** 2 - 1))
                   for j in range(4)] for i in range(4)])
    got = cx_array(report["W"])
    err = float(np.max(np.abs(got - W)) / np.max(np.abs(W)))
    require(err <= 1e-8, f"W block off the printed formula by {err:.2e}")
    a = cx(report["a"])
    wp_a = mp_klein.wp(a)
    require(abs(wp_a - r) <= 1e-9 * abs(r), f"wp(a) = {wp_a} != r = {r}")
    return [cx(e) for e in report["ends"]]


def check_sphere6_scan(report):
    rows = report["scan"]
    require(len(rows) > 0, "empty scan")
    for row in rows:
        s1, s2, s3 = (cx(s) for s in row["sigma"])
        closed = (s1 * s1 + 3 * s2) * (s3 * s3 + 3 * s2) + s1 * s3 - 20
        require(rel_close(cx(row["closed_form"]), closed, 1e-12, 1.0), "closed form")
        require(abs(cx(row["normalized"]) + closed) <= 1e-6 * max(abs(closed), 1.0),
                "Vandermonde-normalized pfaffian != -closed form")
        roots = np.roots([1.0, -s1, -s2, -s3, 1.0])
        finite = list(roots) + [0.0]
        vander = np.prod([abs(finite[j] - finite[i])
                          for i in range(5) for j in range(i + 1, 5)])
        require(rel_close(abs(cx(row["pfaffian"])) * vander, abs(cx(row["normalized"])), 1e-7),
                "|pf| |V| != |normalized pfaffian|")


def rp2_variety(c):
    c1, c2, c3 = c
    return (c1 * c1 + 3) * (c2 * c2 + 3) * (c3 * c3 + 3) - 32 * (c1 * c2 * c3 + 1)


RP2_ORDER = {"trivial": (1,), "Z2": (2,), "Z2xZ2": (4,), "Z4": (4,), "S3": (6,), "S4-point": (24,)}


def check_rp2_scan(report):
    rows = report["boundary_points"]
    require(report["count"] == len(rows) > 0, "scan count")
    flips = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for row in rows:
        c = [float(x) for x in row["c"]]
        require(max(abs(x) for x in c) <= 1.0, "direction cosine above 1")
        require(abs(rp2_variety(c)) <= 1e-9 * 32, f"point {c} is off the variety")
        order = sum(1 for pm in perms for s in flips
                    if max(abs(s[i] * c[pm[i]] - c[i]) for i in range(3)) < 1e-8)
        require(order in RP2_ORDER.get(row["stabilizer"], ()),
                f"stabilizer {row['stabilizer']} has order {order}")
