"""Command-line driver: constructions, verification suites, scans, exports.

Every command writes a JSON report (schema-stamped, complex numbers as
[re, im] pairs, no timestamps) and optionally an OBJ mesh.  Exit codes:
0 success, 2 verification failure, 1 usage error.  Every meshing command
fails verification unless the closed form's identity residual and end
residues, and every grid cell's loop closure relative to the mesh scale,
are below 1e-6.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import acceptance, moduli
from .arf import HyperellipticSpin, arf_bruteforce, arf_closed_form, \
    spin_structure_counts, torus_spin_table
from .elliptic import build_context
from .numkit import NonConvergenceError, pfaffian
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
from .surface import GridSpec, WeierstrassData, enneper_data, export_obj, integrate_surface

USAGE_ERROR, VERIFICATION_ERROR = 1, 2


def _lattice_point(fx, fy):
    """The vertex of an n x n torus grid at the lattice fractions (fx, fy),
    each snapped to the nearest grid line."""
    def basepoint(domain, n):
        ctx = domain.ctx
        return (round((n - 1) * fx) / (n - 1) * 2 * ctx.omega1
                + round((n - 1) * fy) / (n - 1) * 2 * ctx.omega3)
    return basepoint


@dataclass(frozen=True)
class Construction:
    """How a named construction is built, the spinor pair it meshes, and
    the basepoint rule (domain, grid size) -> chart point of its meshes:
    a fixed sphere-chart point, or lattice fractions on a torus."""

    build: Callable
    pair: Callable
    basepoint: Callable

    def weierstrass(self, built, eps=None) -> WeierstrassData:
        s1, s2 = self.pair(built)
        return WeierstrassData(s1=s1, s2=s2, end_clearance=eps)

    def mesh(self, built, grid: GridSpec, eps=None):
        """The closed-form mesh of the built construction on the grid."""
        data = self.weierstrass(built, eps)
        return integrate_surface(data, grid, self.basepoint(data.domain, grid.nx))


# builds look their moduli function up at call time, so that a function
# replaced on the module (a wrapper or a test double) is the one called
CONSTRUCTIONS = {
    "enneper": Construction(enneper_data, lambda d: (d.s1, d.s2), lambda dom, n: 0.0),
    "sphere4": Construction(lambda tol=1e-9: moduli.sphere4_solve(tol),
                            lambda fam: fam.K_basis, lambda dom, n: -1.0 - 1.0j),
    "sphere6": Construction(lambda sigma, tol=1e-8: moduli.sphere6_K_basis(sigma, tol),
                            lambda built: built[0], lambda dom, n: -1.5 - 1.5j),
    "torus4": Construction(lambda omega1=1.0, omega3=1.0j, choice=(1, 2, 3):
                           moduli.torus4_construct(build_context(omega1, omega3), choice),
                           lambda t4: (t4.s1, t4.s2), _lattice_point(0.5, 0.25)),
    "klein4": Construction(lambda tol=1e-8: moduli.klein4_construct(tol),
                           lambda kb: (kb.s1, kb.s2), _lattice_point(0.5, 0.125)),
}


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


def _mesh_gate(mesh) -> int:
    """VERIFICATION_ERROR unless the identity residual and the end residues
    are below 1e-6, and every grid cell closes to 1e-6 of the mesh scale."""
    meta = mesh.metadata
    ok = meta["identity_residual_max"] < 1e-6 and meta["end_residue_max"] < 1e-6 \
        and meta["loop_residual_max"] < 1e-6 * meta["mesh_scale"]
    return 0 if ok else VERIFICATION_ERROR


def _mesh_if_requested(args, built, payload: dict, grid: GridSpec) -> int:
    """Mesh and export when --mesh is given; returns the mesh gate's code."""
    if not args.mesh:
        return 0
    mesh = CONSTRUCTIONS[args.command].mesh(built, grid, args.eps)
    export_obj(mesh, args.mesh)
    payload["mesh"] = {"path": str(args.mesh), **mesh.metadata}
    print(f"wrote {args.mesh}")
    return _mesh_gate(mesh)


def cmd_sphere4(args) -> int:
    fam = CONSTRUCTIONS["sphere4"].build(tol=args.tol)
    payload = fam.report()
    rc = _mesh_if_requested(args, fam, payload, GridSpec(args.grid, args.grid, args.extent))
    _emit(args, payload, "sphere4")
    return rc or (0 if fam.residuals["pfaffian"] < 1e-10 else VERIFICATION_ERROR)


def cmd_sphere6(args) -> int:
    if len(args.sigma) != (0 if args.scan else 3):
        raise ValueError("sphere6 takes sigma1 sigma2 sigma3, or no values with --scan")
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
    sigma = tuple(args.sigma)
    closed = moduli.sphere6_pfaffian(sigma)
    payload = {"sigma": sigma, "closed_form_pfaffian": closed}
    pf, normalized = moduli.sphere6_numeric_pfaffian(sigma)
    payload["numeric_pfaffian"] = pf
    payload["vandermonde_normalized"] = normalized
    on_variety = abs(closed) < 1e-8 * max(1.0, sum(abs(s) for s in sigma) ** 4)
    if args.mesh and not on_variety:
        raise ValueError(f"--mesh needs sigma on the pfaffian variety (value {closed:.3e})")
    rc = 0
    if on_variety:
        built = CONSTRUCTIONS["sphere6"].build(sigma, tol=args.tol * 10)
        payload["K_residuals"] = built[2]
        rc = _mesh_if_requested(args, built, payload, GridSpec(args.grid, args.grid, args.extent))
    _emit(args, payload, "sphere6")
    return rc


def cmd_rp2(args) -> int:
    if len(args.c) != (0 if args.boundary_scan else 3):
        raise ValueError("rp2 takes c1 c2 c3, or no values with --boundary-scan")
    if args.boundary_scan:
        points = moduli.rp2_slice(args.boundary_scan)
        rows = [{"c": c, "variety": v, "stabilizer": label} for c, v, label in zip(
            points.tolist(), moduli.rp2_variety(points).tolist(),
            moduli.rp2_symmetry_group(points))]
        _emit(args, {"boundary_points": rows, "count": len(rows)}, "rp2-scan")
        return 0
    c = tuple(args.c)
    value = moduli.rp2_variety(c)
    if not math.isfinite(value):
        raise OverflowError(f"the variety value at c = {c} overflows")
    payload = {"c": c, "variety_value": value}
    if abs(value) < 1e-6 * 32.0:
        payload["stabilizer"] = moduli.rp2_symmetry_group(c)
    _emit(args, payload, "rp2")
    return 0


def cmd_torus4(args) -> int:
    t4 = CONSTRUCTIONS["torus4"].build(args.omega1, args.omega3, args.choice)
    payload = t4.report()
    rc = _mesh_if_requested(args, t4, payload, GridSpec(args.grid, args.grid))
    _emit(args, payload, "torus4")
    ok = t4.residuals["period1"] < 1e-7 and abs(t4.branch_condition) > 1e-3
    return rc or (0 if ok else VERIFICATION_ERROR)


def cmd_klein4(args) -> int:
    kb = CONSTRUCTIONS["klein4"].build(tol=args.tol * 10)
    payload = kb.report()
    rc = _mesh_if_requested(args, kb, payload, GridSpec(args.grid, args.grid))
    _emit(args, payload, "klein4")
    checks = ("period_equation", "gamma1_s1sq_quadrature", "gamma3_auto")
    return rc or (0 if all(kb.residuals[k] < 1e-8 for k in checks) else VERIFICATION_ERROR)


def cmd_arf(args) -> int:
    g = args.genus
    if args.branch:
        spin = HyperellipticSpin(tuple(range(2 * g + 1)), args.branch)
        payload = {"genus": g, "B": sorted(args.branch),
                   "arf_bruteforce": arf_bruteforce(spin),
                   "arf_closed_form": arf_closed_form(g, len(args.branch))}
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
    divisor = EndDivisor(args.ends)
    if args.domain == "sphere":
        basis = basis_F_sphere(divisor)
    else:
        ctx = build_context(args.omega1, args.omega3)
        if args.domain == "twisted":
            basis = basis_F_torus_twisted(ctx, divisor)
        else:
            basis = basis_F_torus_untwisted(ctx, args.r, divisor)
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
    entry = CONSTRUCTIONS[name]
    mesh = entry.mesh(entry.build(), GridSpec(args.grid, args.grid, args.extent), args.eps)
    export_obj(mesh, args.obj)
    _emit(args, {"construction": name, "obj": str(args.obj), **mesh.metadata}, f"mesh-{name}")
    print(f"wrote {args.obj}")
    return _mesh_gate(mesh)


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


def _checked(parse, ok, what):
    """An argparse type: parse(text) when the value passes ok, else a usage
    error that names what the option takes."""
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_REAL = _checked(float, math.isfinite, "a finite number")
_COMPLEX = _checked(parse_complex, cmath.isfinite, "a finite complex number")
# only the tokens 'inf', 'oo' and 'infinity' give the INF object; an
# overflow such as 1e400 parses to a different, infinite complex
_END = _checked(parse_complex, lambda z: z is INF or cmath.isfinite(z),
                "a finite complex number or inf")
_PERMUTATION = _checked(lambda text: tuple(int(ch) for ch in text),
                        lambda p: sorted(p) == [1, 2, 3], "a permutation of 123")
_GRID = _checked(int, lambda n: n >= 2, "an integer >= 2")
_COUNT = _checked(int, lambda n: n >= 0, "an integer >= 0")
_INDICES = _checked(lambda text: frozenset(int(k) for k in text.split(",")), bool,
                    "a comma-separated list of indices")


# every option a subcommand can take; each subcommand names the ones it reads
_OPTIONS = {
    "--tol": dict(type=_POSITIVE, default=1e-9, help="rank/kernel tolerance"),
    "--grid": dict(type=_GRID, default=65, help="mesh grid resolution"),
    "--eps": dict(type=_POSITIVE, default=None, help="end clearance override"),
    "--extent": dict(type=_POSITIVE, default=2.0, help="sphere chart half-width"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
    "--out": dict(default=None, help="directory for JSON reports"),
    "--json": dict(action="store_true", help="print the JSON report"),
    "--mesh": dict(default=None, help="write an OBJ mesh here"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: each subcommand takes exactly the options it reads."""
    parser = argparse.ArgumentParser(
        prog="spinor-minimal",
        description="Minimal surfaces with embedded planar ends via the spinor representation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, options, summary):
        p = sub.add_parser(name, help=summary)
        # any '-<digit>' or '-.<digit>' is a value, so '-1e-3', '-1+1j', '-0.5,1'
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        for flag in options.split():
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
        return p

    command("sphere4", cmd_sphere4, "--tol --grid --eps --extent --mesh --out --json",
            "4-ended minimal sphere")

    p6 = command("sphere6", cmd_sphere6, "--seed --tol --grid --eps --extent --mesh --out --json",
                 "6-ended sphere family")
    p6.add_argument("sigma", nargs="*", type=_COMPLEX, help="sigma1 sigma2 sigma3")
    p6.add_argument("--scan", type=_COUNT, default=0, help="random-sigma pfaffian scan")

    prp = command("rp2", cmd_rp2, "--out --json", "projective-plane admissibility variety")
    prp.add_argument("c", nargs="*", type=_REAL, help="c1 c2 c3")
    prp.add_argument("--boundary-scan", type=_COUNT, default=0, help="grid scan of the variety")

    thin = f"reduced Im(tau) <= {moduli.TORUS4_MAX_IM_TAU:g}"
    pt4 = command("torus4", cmd_torus4, "--grid --eps --mesh --out --json",
                  f"4-ended minimal torus, on lattices of {thin}")
    pt4.add_argument("omega1", type=_COMPLEX, help="half-period omega1 (complex)")
    pt4.add_argument("omega3", type=_COMPLEX,
                     help=f"half-period omega3 (complex); the lattice needs {thin}")
    pt4.add_argument("--choice", type=_PERMUTATION, default="123", help="permutation ijk")

    command("klein4", cmd_klein4, "--tol --grid --eps --mesh --out --json",
            "4-ended minimal Klein bottle")

    pa = command("arf", cmd_arf, "--out --json", "Arf invariants and the torus spin table")
    pa.add_argument("genus", type=int)
    pa.add_argument("branch", nargs="?", default=None, type=_INDICES,
                    help="comma-separated B indices, e.g. '0,2'")

    po = command("omega", cmd_omega, "--tol --out --json", "Omega matrix and kernel on a divisor")
    po.add_argument("--domain", choices=("sphere", "twisted", "untwisted"), required=True)
    po.add_argument("--ends", required=True,
                    type=lambda text: tuple(_END(s) for s in text.split(";")),
                    help="semicolon-separated ends; 'inf' allowed")
    po.add_argument("--omega1", type=_COMPLEX, default="1")
    po.add_argument("--omega3", type=_COMPLEX, default="1j")
    po.add_argument("--r", type=int, choices=(1, 2, 3), default=1, help="untwisted spin label r")

    pm = command("mesh", cmd_mesh, "--grid --eps --extent --out --json",
                 "mesh a construction and export OBJ")
    pm.add_argument("construction", choices=("enneper", "sphere4", "torus4", "klein4"))
    pm.add_argument("obj", help="output OBJ path")

    pv = command("verify", cmd_verify, "--seed --out", "run a verification suite")
    pv.add_argument("suite", nargs="?", default="acceptance",
                    help="one of: " + ", ".join(sorted(acceptance.SUITES)))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
