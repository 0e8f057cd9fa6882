"""Command-line driver: constructions, verification suites, scans, exports.

Every command writes a JSON report (schema-stamped, complex numbers as
[re, im] pairs, no timestamps) and optionally an OBJ mesh.  Exit codes:
0 success, 2 verification failure, 1 usage error.  Every meshing command
fails verification when some grid cell's loop-closure residual reaches
1e-6 of the mesh scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance, moduli
from .arf import HyperellipticSpin, arf_bruteforce, arf_closed_form, \
    spin_structure_counts, torus_spin_table
from .elliptic import build_context
from .numkit import pfaffian
from .reportio import SCHEMA, jsonify, write_report
from .spinor import (
    INF,
    EndDivisor,
    basis_F_sphere,
    basis_F_torus_twisted,
    basis_F_torus_untwisted,
    extract_K,
    omega_matrix,
)
from .surface import GridSpec, WeierstrassData, export_obj, integrate_surface

USAGE_ERROR, VERIFICATION_ERROR = 1, 2


@dataclass(frozen=True)
class RunConfig:
    """Validated shared run options; identical configs give identical
    outputs byte-for-byte (reports carry no timestamps)."""

    command: str
    tol: float = 1e-9
    grid: int = 65
    eps: float = None
    extent: float = 2.0
    seed: int = 0
    out: str = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("end clearance must be positive")
        if self.grid < 2:
            raise ValueError("grid resolution must be at least 2")
        if self.extent <= 0:
            raise ValueError("extent must be positive")


def parse_complex(text: str) -> complex:
    """Accept '1+2j', '1.5', 'inf', or 're,im'."""
    text = text.strip()
    if text in ("inf", "oo", "infinity"):
        return INF
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text.replace(" ", ""))


def _emit(args, payload: dict, name: str) -> None:
    payload = dict(payload)
    payload.setdefault("command", name)
    if args.out:
        path = write_report(payload, Path(args.out) / f"{name}.json")
        print(f"wrote {path}")
    if args.json or not args.out:
        body = {"schema": SCHEMA}
        body.update(jsonify(payload))
        print(json.dumps(body, sort_keys=True, indent=2))


def _loop_gate(mesh) -> int:
    """VERIFICATION_ERROR unless every grid cell closes to 1e-6 of the mesh scale."""
    meta = mesh.metadata
    return 0 if meta["loop_residual_max"] < 1e-6 * meta["mesh_scale"] else VERIFICATION_ERROR


def _mesh_if_requested(args, data: WeierstrassData, basepoint, payload: dict) -> int:
    """Mesh and export when --mesh is given; returns the loop-closure gate's code."""
    if not getattr(args, "mesh", None):
        return 0
    grid = GridSpec(nx=args.grid, ny=args.grid, extent=getattr(args, "extent", 2.0))
    mesh = integrate_surface(data, grid, basepoint)
    export_obj(mesh, args.mesh)
    payload["mesh"] = {"path": str(args.mesh), **{k: v for k, v in mesh.metadata.items()
                                                  if k != "loop_residual_sample"}}
    print(f"wrote {args.mesh}")
    return _loop_gate(mesh)


def cmd_sphere4(args) -> int:
    fam = moduli.sphere4_solve(tol=args.tol)
    payload = fam.report()
    data = WeierstrassData(s1=fam.K_basis[0], s2=fam.K_basis[1],
                           end_clearance=args.eps)
    rc = _mesh_if_requested(args, data, -1.0 - 1.0j, payload)
    _emit(args, payload, "sphere4")
    return rc or (0 if fam.residuals["pfaffian"] < 1e-10 else VERIFICATION_ERROR)


def cmd_sphere6(args) -> int:
    if args.scan:
        rng = np.random.default_rng(args.seed)
        rows = []
        for _ in range(args.scan):
            sigma = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            pf, normalized = moduli.sphere6_numeric_pfaffian(sigma)
            closed = moduli.sphere6_pfaffian(sigma)
            rows.append({"sigma": sigma, "pfaffian": pf,
                         "normalized": normalized, "closed_form": closed,
                         "ratio": normalized / closed})
        worst = max(abs(r["ratio"] + 1.0) for r in rows)
        _emit(args, {"scan": rows, "worst_ratio_deviation": worst}, "sphere6-scan")
        return 0 if worst < 1e-6 else VERIFICATION_ERROR
    sigma = tuple(parse_complex(s) for s in args.sigma)
    closed = moduli.sphere6_pfaffian(sigma)
    payload = {"sigma": sigma, "closed_form_pfaffian": closed}
    pf, normalized = moduli.sphere6_numeric_pfaffian(sigma)
    payload["numeric_pfaffian"] = pf
    payload["vandermonde_normalized"] = normalized
    on_variety = abs(closed) < 1e-8 * max(1.0, sum(abs(s) for s in sigma) ** 4)
    rc = 0
    if on_variety:
        (t1, t2), form, residuals = moduli.sphere6_K_basis(sigma, tol=args.tol * 10)
        payload["K_residuals"] = residuals
        if getattr(args, "mesh", None):
            data = WeierstrassData(s1=t1, s2=t2, end_clearance=args.eps)
            rc = _mesh_if_requested(args, data, -1.5 - 1.5j, payload)
    _emit(args, payload, "sphere6")
    return rc


def cmd_rp2(args) -> int:
    if args.boundary_scan:
        rows = []
        grid = np.linspace(-0.95, 0.95, args.boundary_scan)
        for c1 in grid:
            for c2 in grid:
                kq = (c1 * c1 + 3.0) * (c2 * c2 + 3.0)
                # quadratic in c3: kq (c3^2 + 3) ... expanded variety equation
                aa = kq
                bb = -32.0 * c1 * c2
                cc = 3.0 * kq - 32.0
                disc = bb * bb - 4 * aa * cc
                if disc < 0:
                    continue
                for sgn in (1.0, -1.0):
                    c3 = (-bb + sgn * np.sqrt(disc)) / (2 * aa)
                    if abs(c3) <= 1.0:
                        c = (float(c1), float(c2), float(c3))
                        rows.append({"c": c, "variety": moduli.rp2_variety(c),
                                     "stabilizer": moduli.rp2_symmetry_group(c)})
        _emit(args, {"boundary_points": rows, "count": len(rows)}, "rp2-scan")
        return 0
    c = tuple(float(x) for x in args.c)
    value = moduli.rp2_variety(c)
    payload = {"c": c, "variety_value": value}
    if abs(value) < 1e-6 * 32.0:
        payload["stabilizer"] = moduli.rp2_symmetry_group(c)
    _emit(args, payload, "rp2")
    return 0


def cmd_torus4(args) -> int:
    ctx = build_context(parse_complex(args.omega1), parse_complex(args.omega3))
    choice = tuple(int(ch) for ch in args.choice)
    t4 = moduli.torus4_construct(ctx, choice)
    payload = t4.report()
    data = WeierstrassData(s1=t4.s1, s2=t4.s2, end_clearance=args.eps)
    frac = round((args.grid - 1) / 2) / (args.grid - 1), round((args.grid - 1) / 4) / (args.grid - 1)
    base = frac[0] * 2 * ctx.omega1 + frac[1] * 2 * ctx.omega3
    rc = _mesh_if_requested(args, data, base, payload)
    _emit(args, payload, "torus4")
    ok = t4.residuals["period1"] < 1e-7 and abs(t4.branch_condition) > 1e-3
    return rc or (0 if ok else VERIFICATION_ERROR)


def cmd_klein4(args) -> int:
    kb = moduli.klein4_construct(tol=args.tol * 10)
    payload = kb.report()
    data = WeierstrassData(s1=kb.s1, s2=kb.s2, end_clearance=args.eps)
    ctx = kb.ctx
    n = args.grid
    frac = (round((n - 1) * 0.5) / (n - 1), round((n - 1) * 0.125) / (n - 1))
    base = frac[0] * 2 * ctx.omega1 + frac[1] * 2 * ctx.omega3
    rc = _mesh_if_requested(args, data, base, payload)
    _emit(args, payload, "klein4")
    checks = ("period_equation", "gamma1_s1sq_quadrature", "gamma3_auto")
    return rc or (0 if all(kb.residuals[k] < 1e-8 for k in checks) else VERIFICATION_ERROR)


def cmd_arf(args) -> int:
    g = args.genus
    if args.branch:
        branch = tuple(range(2 * g + 1))
        B = frozenset(int(k) for k in args.branch.split(","))
        spin = HyperellipticSpin(branch, B)
        payload = {"genus": g, "B": sorted(B),
                   "arf_bruteforce": arf_bruteforce(spin),
                   "arf_closed_form": arf_closed_form(g, len(B))}
        _emit(args, payload, "arf")
        return 0
    plus, minus = spin_structure_counts(g)
    payload = {"genus": g, "counts": {"plus": plus, "minus": minus}}
    if g == 1:
        rows = torus_spin_table()
        payload["torus_table"] = rows
        header = f"{'eta':>16} | q(0) q(a1) q(a2) q(a3) | Arf"
        print(header)
        print("-" * len(header))
        for row in rows:
            q = row["q"]
            print(f"{row['eta']:>16} |  {q[0]}    {q[1]}     {q[2]}     {q[3]}   | {row['arf']:+d}")
    _emit(args, payload, "arf")
    return 0


def cmd_omega(args) -> int:
    ends = [parse_complex(s) for s in args.ends.split(";")]
    if args.domain == "sphere":
        basis = basis_F_sphere(EndDivisor(tuple(ends)))
    else:
        ctx = build_context(parse_complex(args.omega1), parse_complex(args.omega3))
        if args.domain == "twisted":
            basis = basis_F_torus_twisted(ctx, EndDivisor(tuple(ends)))
        elif args.domain == "untwisted":
            basis = basis_F_torus_untwisted(ctx, args.r, EndDivisor(tuple(ends)))
        else:
            raise ValueError(f"unknown domain {args.domain!r}")
    form = omega_matrix(basis)
    K = extract_K(form, args.tol)
    payload = {
        "domain": args.domain,
        "ends": form.divisor.points,
        "omega": form.matrix.entries,
        "pfaffian": pfaffian(form.matrix),
        "dim_F": len(basis),
        "h_dim": form.h_dim,
        "dim_K": len(K),
        "K_coefficients": [k.coefficients for k in K],
    }
    _emit(args, payload, "omega")
    return 0


def cmd_mesh(args) -> int:
    name = args.construction
    if name == "enneper":
        from .surface import enneper_data
        data = enneper_data()
        base = 0.0
        extent = args.extent
    elif name == "sphere4":
        fam = moduli.sphere4_solve()
        data = WeierstrassData(s1=fam.K_basis[0], s2=fam.K_basis[1],
                               end_clearance=args.eps)
        base, extent = -1.0 - 1.0j, args.extent
    elif name == "torus4":
        t4 = moduli.torus4_construct(build_context(1.0, 1.0j))
        data = WeierstrassData(s1=t4.s1, s2=t4.s2, end_clearance=args.eps)
        n = args.grid
        base = (round((n - 1) / 2) / (n - 1)) * 2 * t4.ctx.omega1 \
            + (round((n - 1) / 4) / (n - 1)) * 2 * t4.ctx.omega3
        extent = args.extent
    elif name == "klein4":
        kb = moduli.klein4_construct()
        data = WeierstrassData(s1=kb.s1, s2=kb.s2, end_clearance=args.eps)
        n = args.grid
        base = (round((n - 1) * 0.5) / (n - 1)) * 2 * kb.ctx.omega1 \
            + (round((n - 1) * 0.125) / (n - 1)) * 2 * kb.ctx.omega3
        extent = args.extent
    else:
        print(f"unknown construction {name!r}", file=sys.stderr)
        return USAGE_ERROR
    mesh = integrate_surface(data, GridSpec(nx=args.grid, ny=args.grid, extent=extent),
                             base)
    export_obj(mesh, args.obj)
    meta = {k: v for k, v in mesh.metadata.items() if k != "loop_residual_sample"}
    _emit(args, {"construction": name, "obj": str(args.obj), **meta}, f"mesh-{name}")
    print(f"wrote {args.obj}")
    return _loop_gate(mesh)


def cmd_verify(args) -> int:
    try:
        results = acceptance.run(args.suite, seed=args.seed)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    for r in results:
        print(r.line())
    payload = {"suite": args.suite,
               "results": [{"name": r.name, "passed": r.passed,
                            "value": r.value, "tol": r.tol} for r in results]}
    if args.out:
        write_report(payload, Path(args.out) / f"verify-{args.suite}.json")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else VERIFICATION_ERROR


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="rank/kernel tolerance")
    common.add_argument("--grid", type=int, default=65, help="mesh grid resolution")
    common.add_argument("--eps", type=float, default=None, help="end clearance override")
    common.add_argument("--extent", type=float, default=2.0, help="sphere chart half-width")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--out", type=str, default=None, help="directory for JSON reports")
    common.add_argument("--json", action="store_true", help="print the JSON report")
    common.add_argument("--mesh", type=str, default=None, help="write an OBJ mesh here")

    parser = argparse.ArgumentParser(
        prog="spinor-minimal",
        description="Minimal surfaces with embedded planar ends via the spinor representation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("sphere4", parents=[common],
                   help="4-ended minimal sphere").set_defaults(fn=cmd_sphere4)

    p6 = sub.add_parser("sphere6", parents=[common], help="6-ended sphere family")
    p6.add_argument("sigma", nargs="*", default=[], help="sigma1 sigma2 sigma3")
    p6.add_argument("--scan", type=int, default=0, help="random-sigma pfaffian scan")
    p6.set_defaults(fn=cmd_sphere6)

    prp = sub.add_parser("rp2", parents=[common],
                         help="projective-plane admissibility variety")
    prp.add_argument("c", nargs="*", type=float, default=[], help="c1 c2 c3")
    prp.add_argument("--boundary-scan", type=int, default=0, help="grid scan of the variety")
    prp.set_defaults(fn=cmd_rp2)

    pt4 = sub.add_parser("torus4", parents=[common], help="4-ended minimal torus")
    pt4.add_argument("omega1", help="half-period omega1 (complex)")
    pt4.add_argument("omega3", help="half-period omega3 (complex)")
    pt4.add_argument("--choice", default="123", help="permutation ijk")
    pt4.set_defaults(fn=cmd_torus4)

    sub.add_parser("klein4", parents=[common],
                   help="4-ended minimal Klein bottle").set_defaults(fn=cmd_klein4)

    pa = sub.add_parser("arf", parents=[common],
                        help="Arf invariants and the torus spin table")
    pa.add_argument("genus", type=int)
    pa.add_argument("branch", nargs="?", default=None,
                    help="comma-separated B indices, e.g. '0,2'")
    pa.set_defaults(fn=cmd_arf)

    po = sub.add_parser("omega", parents=[common],
                        help="Omega matrix and kernel on a divisor")
    po.add_argument("--domain", choices=("sphere", "twisted", "untwisted"), required=True)
    po.add_argument("--ends", required=True, help="semicolon-separated ends; 'inf' allowed")
    po.add_argument("--omega1", default="1")
    po.add_argument("--omega3", default="1j")
    po.add_argument("--r", type=int, default=1, help="untwisted spin label r")
    po.set_defaults(fn=cmd_omega)

    pm = sub.add_parser("mesh", parents=[common], help="mesh a construction and export OBJ")
    pm.add_argument("construction", choices=("enneper", "sphere4", "torus4", "klein4"))
    pm.add_argument("obj", help="output OBJ path")
    pm.set_defaults(fn=cmd_mesh)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("suite", nargs="?", default="acceptance",
                    help="one of: " + ", ".join(sorted(acceptance.SUITES)))
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        args.config = RunConfig(command=args.command, tol=args.tol, grid=args.grid,
                                eps=args.eps, extent=args.extent, seed=args.seed,
                                out=args.out)
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
