"""The three workloads: fixed operation lists made from the seed.

An operation is one in-process call of `spinorminimal.cli.main` with the
argv a user would type (reports and meshes go to the run's scratch
directory), or, where no command exists, the public function a user
would script (`spinor.omega_qres_oracle`).  The seed fixes the inputs
and the order of the operations; it never bounds the list by time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import cx, cx_array, require


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: str = ""  # set when the program is known to fail this one


@dataclass
class Env:
    """What operations and checks share within one run."""

    out: Path
    seed: int
    modules: dict
    mp_lattices: dict = field(default_factory=dict)
    # mpmath reference displacements by (operation, grid); they depend on
    # the seed only, so the set-up repeats share them
    sample_cache: dict = field(default_factory=dict)
    sphere4: tuple = None  # (finite ends, K) from a checked sphere4 report

    def mp(self, w1, w3):
        key = (complex(w1), complex(w3))
        if key not in self.mp_lattices:
            self.mp_lattices[key] = checks.MpWeierstrass(*key)
        return self.mp_lattices[key]

    def samples(self):
        return np.random.default_rng([self.seed, 7])


def cli_op(env, name, argv, check):
    """`spinor-minimal <argv>` writing into its own report directory."""
    d = env.out / name
    d.mkdir(parents=True, exist_ok=True)
    argv = [a.replace("{d}", str(d)) for a in argv] + ["--out", str(d)]
    cli = env.modules["cli"]

    def run():
        return cli.main(argv)

    def check_out(rc):
        require(rc == 0, f"exit code {rc}")
        check(d)
    return Op(name, run, check_out)


# ---------------------------------------------------------------------------
# mesh-sphere
# ---------------------------------------------------------------------------

SPHERE6_SIGMA = (0.0, 2.0 * math.sqrt(5.0) / 3.0, 0.0)


def _sphere4_check(env, report_name, obj_name):
    def check(d):
        report = checks.load_report(d / report_name)
        if "parameter" in report:
            env.sphere4 = checks.check_sphere4(report)
            meta = report["mesh"]
        else:
            meta = report
        require(env.sphere4 is not None, "no checked sphere-4 report to rebuild sections from")
        ends, K = env.sphere4
        sections = (checks.sphere_section(ends, K[0]), checks.sphere_section(ends, K[1]))
        checks.check_sphere_mesh(checks.Obj(d / obj_name), meta, ends, sections,
                                 env.samples(), env.sample_cache, (d.name, meta["grid"][0]))
    return check


def sphere6_sections(sigma):
    """The printed K basis t1 = B(z)/(z Q(z)), t2 = z C(z)/Q(z) on the
    variety, with Q(z) = 1 - s3 z - s2 z^2 - s1 z^3 + z^4."""
    s1, s2, s3 = sigma
    tau1, tau3 = s1 * s1 + 3 * s2, s3 * s3 + 3 * s2
    b = (s2, -s2 * s3, s2 * tau3 - 2 * s1 * s3 - 10, s1 * tau3 + 5 * s3)
    c = (s3 * tau1 + 5 * s1, s2 * tau1 - 2 * s1 * s3 - 10, -s1 * s2, s2)
    q = (1.0, -s3, -s2, -s1, 1.0)
    ends = list(np.roots(q[::-1])) + [0.0]
    return ends, (checks.rational_section(b, (0.0,) + q),
                  checks.rational_section((0.0,) + c, q))


def _sphere6_check(env, sigma):
    def check(d):
        report = checks.load_report(d / "sphere6.json")
        got = tuple(cx(s) for s in report["sigma"])
        require(max(abs(a - b) for a, b in zip(got, sigma)) <= 1e-15, "sigma echoed wrongly")
        require(abs(cx(report["closed_form_pfaffian"])) <= 1e-12, "not on the variety")
        ends, sections = sphere6_sections(sigma)
        checks.check_sphere_mesh(checks.Obj(d / "sphere6.obj"), report["mesh"], ends, sections,
                                 env.samples(), env.sample_cache,
                                 (d.name, report["mesh"]["grid"][0]))
    return check


def mesh_sphere(env):
    s6 = [repr(s) for s in SPHERE6_SIGMA]
    warm = [
        cli_op(env, "warm-sphere4", ["sphere4", "--mesh", "{d}/sphere4.obj", "--grid", "33"],
               _sphere4_check(env, "sphere4.json", "sphere4.obj")),
        cli_op(env, "warm-mesh", ["mesh", "sphere4", "{d}/m.obj", "--grid", "33"],
               _sphere4_check(env, "mesh-sphere4.json", "m.obj")),
    ]
    units = [[cli_op(env, "sphere4-mesh", ["sphere4", "--mesh", "{d}/sphere4.obj"],
                     _sphere4_check(env, "sphere4.json", "sphere4.obj"))]]
    units += [[cli_op(env, f"mesh-sphere4-{n}", ["mesh", "sphere4", "{d}/m.obj", "--grid", str(n)],
                      _sphere4_check(env, "mesh-sphere4.json", "m.obj"))] for n in (129, 257)]
    units.append([cli_op(env, "sphere6-mesh", ["sphere6", *s6, "--mesh", "{d}/sphere6.obj"],
                         _sphere6_check(env, SPHERE6_SIGMA))])
    return warm, units


# ---------------------------------------------------------------------------
# mesh-torus
# ---------------------------------------------------------------------------

MESH_LATTICES = {
    "square": ("1", "1j"),
    "rect2": ("1", "2j"),
    "rhombic": ("1+0.4j", "1-0.4j"),
    "generic": ("1.1-0.2j", "0.3+0.9j"),
}
TORUS_GRID = 33


def _torus4_check(env, mesh):
    def check(d):
        report = checks.load_report(d / "torus4.json")
        w1, w3, ends = checks.check_torus4(report, env.mp(cx(report["omega1"]),
                                                          cx(report["omega3"])))
        if mesh:
            checks.check_torus_mesh(checks.Obj(d / "torus4.obj"), report["mesh"], w1, w3, ends)
    return check


def _klein4_check(env, mesh):
    def check(d):
        report = checks.load_report(d / "klein4.json")
        if "klein" not in env.mp_lattices:
            env.mp_lattices["klein"] = checks.klein_lattice()
        w1, w3 = env.mp_lattices["klein"]
        ends = checks.check_klein4(report, env.mp(w1, w3))
        if mesh:
            checks.check_torus_mesh(checks.Obj(d / "klein4.obj"), report["mesh"], w1, w3, ends,
                                    extra_singular=(0.0, w1 + w3))
    return check


def mesh_torus(env):
    warm = [cli_op(env, "warm-torus4", ["torus4", "1", "1j", "--mesh", "{d}/torus4.obj",
                                        "--grid", "17"], _torus4_check(env, True))]
    ops = [[cli_op(env, f"torus4-{name}-mesh",
                   ["torus4", w1, w3, "--mesh", "{d}/torus4.obj", "--grid", str(TORUS_GRID)],
                   _torus4_check(env, True))]
           for name, (w1, w3) in MESH_LATTICES.items()]
    ops.append([cli_op(env, "klein4-mesh", ["klein4", "--mesh", "{d}/klein4.obj",
                                             "--grid", str(TORUS_GRID)], _klein4_check(env, True))])
    return warm, ops


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_LATTICES = {
    "square": ("1", "1j"),
    "rect2": ("1", "2j"),
    "skew": ("1", "0.5+0.1j"),
    "generic": ("1.1-0.2j", "0.3+0.9j"),
}
OMEGA_LATTICES = {"square": (1.0, 1.0j), "rect2": (1.0, 2.0j)}
# lattice_distance rounds in the unreduced basis, so qres_radius comes out
# too large here and the oracle's contour encloses a second end
PINNED = ("twisted", (1.0, 0.5 + 0.1j), (0.0, 0.904 + 0.049j, 0.815 + 0.063j), 1)
PINNED_FAULT = "EllipticContext.lattice_distance rounds in the unreduced basis"


def _fmt(z):
    z = complex(z)
    return "inf" if math.isinf(z.real) else f"{z.real!r},{z.imag!r}"


def random_divisors(seed):
    """Seeded divisors: (domain, (w1, w3) or None, ends, r)."""
    rng = np.random.default_rng([seed, 11])
    out = []
    for count in (3, 5):
        while True:
            pts = rng.uniform(-1.5, 1.5, count) + 1j * rng.uniform(-1.5, 1.5, count)
            gaps = [abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:]]
            if min(gaps) > 0.35 and min(abs(pts)) > 0.2:
                break
        out.append(("sphere", None, tuple(pts) + (complex(math.inf, 0.0),), 1))
    for w1, w3 in OMEGA_LATTICES.values():
        lat = checks.BruteLattice(w1, w3)
        least = 0.3 * min(abs(w1), abs(w3))
        for domain, count in (("twisted", 3), ("untwisted", 4)):
            r = int(rng.integers(1, 4))
            avoid = [0.0] if domain == "twisted" else [0.0, (w1, w1 + w3, w3)[r - 1]]
            while True:
                fr = rng.uniform(0.08, 0.92, (count, 2))
                pts = fr[:, 0] * 2 * w1 + fr[:, 1] * 2 * w3
                sing = list(pts) + avoid
                if min(lat.distance(p - q)[0] for i, p in enumerate(sing)
                       for q in sing[i + 1:]) > least:
                    break
            ends = ((0.0,) if domain == "twisted" else ()) + tuple(pts)
            out.append((domain, (w1, w3), ends, r))
    return out


def _omega_pair_ops(env, tag, spec):
    domain, lattice, ends, r = spec
    argv = ["omega", "--domain", domain, "--ends=" + ";".join(_fmt(p) for p in ends),
            "--r", str(r)]
    if lattice is not None:
        argv += ["--omega1", repr(lattice[0]), "--omega3", repr(lattice[1])]

    def check_report(d):
        report = checks.load_report(d / "omega.json")
        omega = cx_array(report["omega"])
        require(report["dim_F"] == len(ends) == omega.shape[0], "dim F")
        K = [[cx(c) for c in k] for k in report["K_coefficients"]]
        checks.check_omega_algebra(omega, pf=cx(report["pfaffian"]), K=K)
    op_cli = cli_op(env, f"omega-{tag}", argv, check_report)
    report_dir = env.out / f"omega-{tag}"
    m = env.modules

    def run():
        ctx = None
        divisor = m["spinor"].EndDivisor(tuple(complex(p) for p in ends))
        if domain == "sphere":
            basis = m["spinor"].basis_F_sphere(divisor)
        else:
            ctx = m["elliptic"].build_context(*lattice)
            if domain == "twisted":
                basis = m["spinor"].basis_F_torus_twisted(ctx, divisor)
            else:
                basis = m["spinor"].basis_F_torus_untwisted(ctx, r, divisor)
        n = len(basis)
        oracle = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                oracle[i, j] = m["spinor"].omega_qres_oracle(basis[i], basis[j])
                oracle[j, i] = -oracle[i, j]
        return ctx, basis, oracle

    def check(out):
        ctx, basis, oracle = out
        report = checks.load_report(report_dir / "omega.json")
        omega = cx_array(report["omega"])
        points = [cx(p) for p in report["ends"]]
        if domain == "sphere":
            own = checks.qres_omega(basis, points, points, dist=abs)
        else:
            lat = checks.BruteLattice(*lattice)
            dist = lambda u: float(lat.distance(u)[0])
            if domain == "twisted":
                own = checks.qres_omega(basis, points, points, dist)
            else:
                wr = (ctx.omega1, ctx.omega2, ctx.omega3)[r - 1]
                er = ctx.e(r)
                wp = m["elliptic"].wp
                own = checks.qres_omega(basis, points, points + [0.0, wr], dist,
                                        weight=lambda u: 1.0 / (wp(ctx, u) - er))
        checks.check_omega_matrix(own, omega, 1e-7, "trapezoidal qres Omega")
        checks.check_omega_matrix(oracle, omega, 1e-6, "omega_qres_oracle")
    op_oracle = Op(f"oracle-{tag}", run, check)
    return [op_cli, op_oracle]


def _report_check(report_name, fn):
    return lambda d: fn(checks.load_report(d / report_name))


def solve(env):
    seed_arg = str(env.seed % 1000)
    warm = [
        cli_op(env, "warm-sphere4", ["sphere4"],
               _report_check("sphere4.json", checks.check_sphere4)),
        cli_op(env, "warm-scan", ["sphere6", "--scan", "2"],
               _report_check("sphere6-scan.json", checks.check_sphere6_scan)),
        cli_op(env, "warm-rp2", ["rp2", "--boundary-scan", "5"],
               _report_check("rp2-scan.json", checks.check_rp2_scan)),
        cli_op(env, "warm-torus4", ["torus4", "1", "1j"], _torus4_check(env, False)),
    ] + _omega_pair_ops(env, "warm", ("sphere", None, (0.5j, 1.0, -1.0, complex(math.inf, 0)), 1))
    units = [
        [cli_op(env, "sphere4", ["sphere4"],
                _report_check("sphere4.json", checks.check_sphere4))],
        [cli_op(env, "sphere6-scan", ["sphere6", "--scan", "10", "--seed", seed_arg],
                _report_check("sphere6-scan.json", checks.check_sphere6_scan))],
        [cli_op(env, "rp2-scan", ["rp2", "--boundary-scan", "41"],
                _report_check("rp2-scan.json", checks.check_rp2_scan))],
        [cli_op(env, "klein4", ["klein4"], _klein4_check(env, False))],
    ]
    units += [[cli_op(env, f"torus4-{name}", ["torus4", w1, w3], _torus4_check(env, False))]
              for name, (w1, w3) in SOLVE_LATTICES.items()]
    units += [_omega_pair_ops(env, f"d{k}", spec)
              for k, spec in enumerate(random_divisors(env.seed))]
    pinned = _omega_pair_ops(env, "pinned", PINNED)
    pinned[1].known_fault = PINNED_FAULT
    units.append(pinned)
    return warm, units


WORKLOADS = {"mesh-sphere": mesh_sphere, "mesh-torus": mesh_torus, "solve": solve}
# nominal seconds of one pass: a run makes round(--seconds / this) whole
# passes, 3, 2 and 4 at --seconds 30, which keeps 70 runs of the three
# workloads under 50 minutes on a 2-core x86-64 container
NOMINAL_ROUND_S = {"mesh-sphere": 9.0, "mesh-torus": 17.0, "solve": 7.5}


def build(name, env):
    """(warm-up ops, timed ops in the seed's order)."""
    warm, units = WORKLOADS[name](env)
    order = np.random.default_rng([env.seed, 3]).permutation(len(units))
    return warm, [op for k in order for op in units[k]]
