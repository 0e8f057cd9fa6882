"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion check (run pytest with
-s to see them inline; they also land in captured output on failure).
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorminimal
from spinorminimal import acceptance, moduli, numkit, surface
from spinorminimal.cli import main
from spinorminimal.spinor import section_combination

CRITERIA = [
    ("criterion-01-pfaffian", "pfaffian"),
    ("criterion-02-elliptic", "elliptic"),
    ("criterion-03-omega-oracle", "omega"),
    ("criterion-04-sphere4", "sphere4"),
    ("criterion-05-sphere6", "sphere6"),
    ("criterion-06-rp2", "rp2"),
    ("criterion-07-arf", "arf"),
    ("criterion-08-torus4", "torus4"),
    ("criterion-09-klein4", "klein4"),
    ("criterion-10-geometry", "geometry"),
    ("criterion-11-nonexistence", "nonexistence"),
]


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, suite):
    results = acceptance.run(suite)
    assert results, f"{label}: no checks ran"
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    assert not failed, f"{label} failed: " + "; ".join(r.line() for r in failed)


def test_every_criterion_takes_the_seed():
    for fn in acceptance.SUITES["acceptance"]:
        assert "seed" in inspect.signature(fn).parameters, fn.__name__


def test_the_null_curve_probes_follow_the_seed():
    def null_curve(seed):
        (check,) = [r for r in acceptance.criterion_10_geometry(seed) if r.name.startswith("10c")]
        assert check.passed and check.tol == 1e-10
        return check.value

    assert null_curve(0) != null_curve(3)


@pytest.fixture
def crashing_arf(monkeypatch):
    """The arf suite with a criterion in front that raises."""
    def criterion_0_crash(seed=0):
        raise ZeroDivisionError("complex division by zero")

    monkeypatch.setitem(acceptance.SUITES, "arf", [criterion_0_crash] + acceptance.SUITES["arf"])


def test_a_crashed_criterion_fails_and_names_the_exception_and_the_seed(crashing_arf):
    crashed, *rest = acceptance.run("arf", seed=7)
    assert (crashed.name, crashed.passed, crashed.value) == ("criterion_0_crash crashed", False,
                                                             float("inf"))
    assert crashed.detail == "ZeroDivisionError: complex division by zero (seed 7)"
    assert crashed.line().endswith("[ZeroDivisionError: complex division by zero (seed 7)]")
    # the criteria after it still run
    assert rest and all(r.passed for r in rest)


def test_the_verify_report_carries_each_detail(crashing_arf, tmp_path, capsys):
    assert main(["verify", "arf", "--seed", "7", "--out", str(tmp_path)]) == 2
    rows = json.loads((tmp_path / "verify-arf.json").read_text())["results"]
    assert rows[0]["detail"] == "ZeroDivisionError: complex division by zero (seed 7)"
    assert [r["detail"] for r in rows] == [r.detail for r in acceptance.run("arf", seed=7)]
    assert all(r["detail"] for r in rows[1:])


def test_the_gate_does_not_import_the_cli():
    # the construction table lives in moduli, below both the gate and the CLI
    env = dict(os.environ, PYTHONPATH=str(Path(spinorminimal.__file__).parents[1]))
    code = "import sys, spinorminimal.acceptance; print('spinorminimal.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


def test_the_klein4_suite_builds_through_the_table_and_cuts_the_rank_once(count_calls,
                                                                          count_everywhere):
    builds = count_calls(moduli, "klein4_construct")
    ranks = count_everywhere(numkit, "skew_rank_kernel")
    results = acceptance.run("klein4")
    assert results and all(r.passed for r in results)
    # 9c reads the rank that klein4_construct cut
    assert len(builds) == 1 and sum(map(len, ranks)) == 1


def test_one_run_builds_each_construction_once(count_everywhere):
    # sphere-4 in criteria 3, 4 and 10, torus-4 on (1, i) in 8 and 10
    counted = {name: count_everywhere(moduli, name)
               for name in ("sphere4_solve", "klein4_construct", "torus4_construct")}

    def calls(name):
        return [args for lists in counted[name] for args in lists]
    results = acceptance.run()
    assert len(results) == 39 and all(r.passed for r in results)
    assert len(calls("sphere4_solve")) == 1 and len(calls("klein4_construct")) == 1
    lattices = [(ctx.omega1, ctx.omega3) for ctx, _ in calls("torus4_construct")]
    assert len(lattices) == len(set(lattices)) == 3
    # the builds are one run's: the next run builds again
    acceptance.run("sphere4")
    assert len(calls("sphere4_solve")) == 2


def test_the_geometry_suite_meshes_each_construction_once(count_everywhere):
    meshes = count_everywhere(surface, "integrate_surface")
    edges = count_everywhere(surface, "quadrature_edges")
    masks = count_everywhere(surface, "_masks")
    results = acceptance.criterion_10_geometry()
    assert results and all(r.passed for r in results)
    # enneper, sphere-4 (shared by 10b and 10e) and torus-4
    assert sorted(grid.nx for calls in meshes for _, grid, _ in calls) == [33, 61, 65]
    # and one edge quadrature of the sphere-4 grid, also shared
    assert sorted(grid.nx for calls in edges for _, grid in calls) == [33, 61]
    # one mask pass per mesh and per edge quadrature: 10b's loops read the edges' cells
    assert sorted(chart.shape[0] for calls in masks for _, chart in calls) == [33, 33, 61, 61, 65]


def _row_11c():
    (row,) = [r for r in acceptance.criterion_11_nonexistence() if r.name.startswith("11c")]
    return row


def test_11c_reads_one_admissible_pair_per_lattice(monkeypatch):
    exact, reports = moduli.torus3_degeneracy, []

    def recorded(ctx, a1, a2):
        reports.append(exact(ctx, a1, a2))
        return reports[-1]
    monkeypatch.setattr(moduli, "torus3_degeneracy", recorded)
    row = _row_11c()
    assert row.passed and row.value > 4.5 and row.detail == "|a| > 1 on rect2, rect3"
    assert len(reports) == len(acceptance.ACCEPTANCE_LATTICES)
    # each pair satisfies the end-placement condition g2 = 4 (p1^2 + p1 p2 + p2^2)
    assert all(abs(rep.g2_condition) < 1e-6 * abs(rep.ctx.g2) for rep in reports)


def _plant(monkeypatch, names, **fields):
    """moduli.torus3_degeneracy with fields replaced in its reports on the
    named acceptance lattices."""
    exact = moduli.torus3_degeneracy
    periods = [dict(acceptance.ACCEPTANCE_LATTICES)[name] for name in names]

    def planted(ctx, a1, a2):
        rep = exact(ctx, a1, a2)
        return dataclasses.replace(rep, **fields) if (ctx.omega1, ctx.omega3) in periods else rep
    monkeypatch.setattr(moduli, "torus3_degeneracy", planted)


def test_11c_fails_on_a_three_ended_torus(monkeypatch):
    # a zero degeneracy where |a| > 1, on one lattice, is a surface
    _plant(monkeypatch, ["square"], degeneracy=0j, abs_a=2.0)
    row = _row_11c()
    assert not row.passed and row.value == 0.0
    assert row.detail == "|a| > 1 on square, rect2, rect3"


def test_11c_fails_when_no_lattice_has_a_big_a(monkeypatch):
    # with |a| <= 1 everywhere the row shows nothing, so it fails
    _plant(monkeypatch, [name for name, _ in acceptance.ACCEPTANCE_LATTICES], abs_a=0.5)
    row = _row_11c()
    assert not row.passed and row.value == 0.0 and row.detail == "|a| > 1 on no lattice"


def test_9g_fails_on_a_branched_klein_pair(monkeypatch):
    # (s1, c s1) shares every zero of s1: g = c has degree 0, not 8
    klein4 = moduli.CONSTRUCTIONS["klein4"]
    branched = dataclasses.replace(
        klein4, pair=lambda kb: (kb.s1, section_combination([0.6 - 0.8j], [kb.s1])))
    monkeypatch.setitem(moduli.CONSTRUCTIONS, "klein4", branched)
    (row,) = [r for r in acceptance.criterion_9_klein() if r.name.startswith("9g")]
    assert not row.passed and row.value == pytest.approx(8.0, abs=1e-6)
