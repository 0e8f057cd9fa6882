"""Checks as data: each construction states its verdicts once, in checks(),
and the CLI's exit code and the acceptance gate both read them.

The bounds are written out here as literals, so that loosening one in the
package fails a test: each check is fed a value at 0.5x and at 2x its bound.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from spinorminimal import acceptance, cli, elliptic, moduli
from spinorminimal.cli import main
from spinorminimal.elliptic import DegenerateLatticeError, build_context
from spinorminimal.moduli import CONSTRUCTIONS
from spinorminimal.reportio import check
from spinorminimal.surface import ChartMap, SurfaceMesh

SPHERE6_ON_VARIETY = ["0", "1.4907119849998598", "0"]


def _plant(monkeypatch, name, **fields):
    """CONSTRUCTIONS[name] with fields of each build replaced, each new value
    a function of the real build."""
    entry = CONSTRUCTIONS[name]

    def build(*args):
        built = entry.build(*args)
        return dataclasses.replace(built, **{k: f(built) for k, f in fields.items()})
    monkeypatch.setitem(CONSTRUCTIONS, name, dataclasses.replace(entry, build=build))


def _verdicts(argv, suite, tmp_path):
    """(exit code of the command, whether every row of the suite passed)."""
    code = main(argv + ["--out", str(tmp_path)])
    return code, all(r.passed for r in acceptance.run(suite))


# (command, suite, residual, its bound)
RESIDUALS = [
    (["sphere4"], "sphere4", "pfaffian", 1e-10),
    (["sphere4"], "sphere4", "printed_K_span", 1e-8),
    (["sphere6", *SPHERE6_ON_VARIETY], "sphere6", "t1_kernel", 1e-8),
    (["torus4", "1", "1j"], "torus4", "period_diag_rel", 1e-6),
    (["torus4", "1", "1j"], "torus4", "period_offdiag", 1e-8),
    (["torus4", "1", "1j"], "torus4", "period1", 1e-7),
    (["klein4"], "klein4", "period_equation", 1e-8),
    (["klein4"], "klein4", "gamma1_s1sq_quadrature", 1e-8),
    (["klein4"], "klein4", "gamma3_auto", 1e-8),
]


@pytest.mark.parametrize("times", [0.5, 2.0])
@pytest.mark.parametrize("argv, suite, residual, bound", RESIDUALS,
                         ids=[f"{s}-{r}" for _, s, r, _ in RESIDUALS])
def test_a_residual_at_times_its_bound_decides_the_exit_code_and_the_gate(
        monkeypatch, tmp_path, capsys, argv, suite, residual, bound, times):
    _plant(monkeypatch, suite, residuals=lambda b: {**b.residuals, residual: times * bound})
    passed = times < 1
    assert _verdicts(argv, suite, tmp_path) == (0 if passed else 2, passed)


@pytest.mark.parametrize("times", [0.5, 2.0])
def test_the_relative_branch_condition_at_times_its_bound(monkeypatch, tmp_path, capsys, times):
    # a lower bound on the branch condition relative to its two terms
    _plant(monkeypatch, "torus4", branch_relative=lambda b: times * 1e-3)
    passed = times > 1
    assert main(["torus4", "1", "1j", "--out", str(tmp_path)]) == (0 if passed else 2)
    (row,) = [r for r in acceptance.run("torus4") if r.name.startswith("8d")]
    assert row.passed == passed and row.value == times * 1e-3


@pytest.mark.parametrize("argv, suite, fields", [
    (["sphere4"], "sphere4", dict(residuals=lambda b: {**b.residuals, "planar_ends": False})),
    (["sphere4"], "sphere4", dict(K_basis=lambda b: b.K_basis[:1])),
    (["klein4"], "klein4", dict(rank=lambda b: 3)),
], ids=["sphere4-planar_ends", "sphere4-dim_K", "klein4-rank"])
def test_a_failed_exact_check_fails_the_command_and_the_gate(monkeypatch, tmp_path, capsys,
                                                             argv, suite, fields):
    assert _verdicts(argv, suite, tmp_path) == (0, True)
    _plant(monkeypatch, suite, **fields)
    assert _verdicts(argv, suite, tmp_path) == (2, False)


@pytest.mark.parametrize("times", [0.5, 2.0])
@pytest.mark.parametrize("key", ["identity_residual_max", "end_residue_max",
                                 "loop_residual_max"])
@pytest.mark.parametrize("argv", [["mesh", "enneper", "{obj}"], ["sphere4", "--mesh", "{obj}"]],
                         ids=["mesh", "sphere4"])
def test_a_mesh_residual_at_times_its_bound_decides_the_exit_code(monkeypatch, tmp_path, capsys,
                                                                  argv, key, times):
    # the loop closure is bounded relative to the mesh scale
    exact = moduli.integrate_surface

    def planted(*args):
        mesh = exact(*args)
        scale = mesh.metadata["mesh_scale"] if key == "loop_residual_max" else 1.0
        mesh.metadata[key] = times * 1e-6 * scale
        return mesh
    monkeypatch.setattr(moduli, "integrate_surface", planted)
    obj = str(tmp_path / "m.obj")
    code = main([a.replace("{obj}", obj) for a in argv] + ["--grid", "9"])
    assert code == (0 if times < 1 else 2)


@pytest.mark.parametrize("times", [0.5, 2.0])
def test_the_sphere6_scan_ratio_at_times_its_bound(monkeypatch, capsys, times):
    # the closed form divided by 1 + d moves every ratio from -1 by d
    exact = moduli.sphere6_pfaffian
    monkeypatch.setattr(moduli, "sphere6_pfaffian",
                        lambda sigma: exact(sigma) / (1.0 + times * 1e-6))
    assert main(["sphere6", "--scan", "3"]) == (0 if times < 1 else 2)


@pytest.mark.parametrize("times", [0.5, 2.0])
def test_the_wp_ode_bound_at_times_its_bound(monkeypatch, times):
    # build_context's validation bounds the ODE residual at its six probe
    # points by 1e-8 of the largest |wp'|^2 + |4 wp^3| + |g2 wp| among them:
    # wp'^2 at the first point is moved by times that bound
    exact = elliptic._Frame.wp_prime

    def planted(self, part=...):
        dp, p = exact(self, part), self.wp(part)
        scale = np.max(np.abs(dp) ** 2 + np.abs(4 * p ** 3) + abs(self.ctx.g2) * np.abs(p))
        dp = dp.copy()
        dp[0] *= np.sqrt(1.0 + times * 1e-8 * scale / dp[0] ** 2)
        return dp
    monkeypatch.setattr(elliptic._Frame, "wp_prime", planted)
    if times < 1:
        build_context(1.0, 1.0j)
    else:
        with pytest.raises(DegenerateLatticeError, match="wp ODE fails"):
            build_context(1.0, 1.0j)


def _named(checks):
    return {c.name: c for c in checks}


def test_a_value_at_its_bound_passes_and_nan_fails(monkeypatch, tmp_path, capsys):
    # an upper bound is <=, as the gate always read it (the CLI once read <)
    t4 = CONSTRUCTIONS["torus4"].build()
    at = dataclasses.replace(t4, residuals={**t4.residuals, "period1": 1e-7})
    assert _named(at.checks())["period1"].passed
    nan = dataclasses.replace(t4, residuals={**t4.residuals, "period1": math.nan})
    assert not _named(nan.checks())["period1"].passed
    # a lower bound is strict: the branch condition at it fails, and NaN fails
    for branch in (1e-3, math.nan):
        branched = dataclasses.replace(t4, branch_relative=branch)
        assert not _named(branched.checks())["branch"].passed
    # a mesh residual at its bound passes, NaN fails
    meta = {"identity_residual_max": 1e-6, "end_residue_max": 0.0, "loop_residual_max": 2e-6,
            "mesh_scale": 2.0}
    mesh = SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3)), ChartMap(np.zeros(2), np.zeros(2)),
                       np.zeros((2, 2), bool), np.zeros((1, 1), bool), meta)
    assert all(c.passed for c in mesh.checks())
    meta["end_residue_max"] = math.nan
    assert [c.passed for c in mesh.checks()] == [True, False, True]
    assert not any(check("x", math.nan, 1.0, invert=invert).passed for invert in (False, True))
    # through the CLI and the gate: a period residual at its bound passes both
    _plant(monkeypatch, "torus4", residuals=lambda b: {**b.residuals, "period1": 1e-7})
    assert _verdicts(["torus4", "1", "1j"], "torus4", tmp_path) == (0, True)


def test_the_sphere6_check_reads_the_worst_residual_and_a_nan_anywhere():
    fam = CONSTRUCTIONS["sphere6"].build((0.0, 2.0 * np.sqrt(5.0) / 3.0, 0.0))
    (printed,) = fam.checks()
    assert printed.passed and printed.value == max(fam.residuals.values())
    # the last residual: Python's max would step over it
    nan = dataclasses.replace(fam, residuals={**fam.residuals, "t2_alpha0": math.nan})
    (printed,) = nan.checks()
    assert not printed.passed


def _bounds(node):
    """The non-zero numeric constants of an operand, through its arithmetic."""
    if isinstance(node, ast.BinOp):
        yield from _bounds(node.left)
        yield from _bounds(node.right)
    elif isinstance(node, ast.UnaryOp):
        yield from _bounds(node.operand)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float, complex) \
            and node.value != 0:
        yield node.value


def _compared_literals(source):
    """The comparisons in source with a bound among their operands: a
    non-zero number in an ordering, or a non-integer in any comparison (an
    integer compared for equality, as genus == 1, picks a case)."""
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(any(isinstance(op, order) for op in node.ops) or type(v) is not int
                    for operand in (node.left, *node.comparators) for v in _bounds(operand))]


def test_the_cli_compares_with_no_literal():
    # every bound is a construction's: a number compared in cli.py is a gate
    # that states its own
    assert _compared_literals(Path(cli.__file__).read_text(encoding="utf-8")) == []
    # the gates it once held are found, and a case is not
    assert sorted(line for line, _ in _compared_literals(
        'ok = m["identity"] < 1e-6 and m["loop"] < 1e-6 * m["scale"]\n'
        'ok = abs(t4.branch) * abs(t4.ctx.omega1) ** 2 > 1e-3\n'
        'ok = n >= 2\n'
        'ok = x != -0.5\n'
        'ok = g == 1 and 0.0 < x\n')) == [1, 1, 2, 3, 4]
