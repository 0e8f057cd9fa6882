"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion check (run pytest with
-s to see them inline; they also land in captured output on failure).
"""

import inspect

import pytest

from spinorminimal import acceptance

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


def test_a_crashed_criterion_fails_and_names_the_exception_and_the_seed(monkeypatch):
    def criterion_0_crash(seed=0):
        raise ZeroDivisionError("complex division by zero")

    monkeypatch.setitem(acceptance.SUITES, "arf", [criterion_0_crash] + acceptance.SUITES["arf"])
    crashed, *rest = acceptance.run("arf", seed=7)
    assert (crashed.name, crashed.passed, crashed.value) == ("criterion_0_crash crashed", False,
                                                             float("inf"))
    assert crashed.detail == "ZeroDivisionError: complex division by zero (seed 7)"
    assert crashed.line().endswith("[ZeroDivisionError: complex division by zero (seed 7)]")
    # the criteria after it still run
    assert rest and all(r.passed for r in rest)
