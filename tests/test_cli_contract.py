"""The CLI's argument contract: each subcommand takes exactly the options it
reads, numbers are checked where they are parsed, and no input ends in a
traceback or a report that carries NaN."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spinorminimal
from spinorminimal.cli import build_parser, main
from spinorminimal.reportio import ReportValueError, jsonify
from spinorminimal.spinor import INF

OPTIONS = {
    "sphere4": "--tol --grid --eps --extent --mesh --out --json",
    "sphere6": "sigma --scan --seed --tol --grid --eps --extent --mesh --out --json",
    "rp2": "c --boundary-scan --out --json",
    "torus4": "omega1 omega3 --choice --grid --eps --mesh --out --json",
    "klein4": "--tol --grid --eps --mesh --out --json",
    "arf": "genus branch --out --json",
    "omega": "--domain --ends --omega1 --omega3 --r --tol --out --json",
    "mesh": "construction obj --grid --eps --extent --out --json",
    "verify": "suite --seed --out",
}

UNTWISTED = ["omega", "--domain", "untwisted", "--ends", "0.31+0.4j;0.9+0.77j;1.3+0.2j"]

# each exits 1 with one error line and writes nothing; "{d}" is the run's
# temporary directory, which also takes --out
PROBES = [
    [*UNTWISTED, "--r", "0"],
    [*UNTWISTED, "--r", "-1"],
    [*UNTWISTED, "--r", "4"],
    ["omega", "--domain", "sphere", "--ends", "0.5j;1;-1;inf", "--mesh", "{d}/x.obj"],
    ["mesh", "torus4", "{d}/a.obj", "--mesh", "{d}/b.obj", "--grid", "9"],
    ["arf", "1", "--mesh", "{d}/y.obj", "--grid", "7"],
    ["verify", "pfaffian", "--json", "--tol", "5"],
    ["rp2", "nan", "0", "0"],
    ["rp2", "1", "2"],
    ["sphere6", "1", "2"],
    ["torus4", "1", "nan+1j"],
    ["torus4", "1", "inf"],
    ["torus4", "1", "1j", "--choice", "1,1,2"],
    ["omega", "--domain", "sphere", "--ends", "nan;1;inf"],
    ["omega", "--domain", "sphere", "--ends", "1e400;1;inf"],
    ["sphere4", "--eps", "inf", "--mesh", "{d}/q.obj"],
    ["sphere4", "--extent", "nan", "--mesh", "{d}/q.obj"],
    ["sphere4", "--tol", "inf"],
    ["sphere6", "1e300", "0", "0"],
    ["torus4", "1e-200", "1e-200j"],
    ["torus4", "1e200", "1e200j"],
    ["torus4", "1", "30j"],
    ["rp2", "1e300", "1e300", "1e300"],
    ["rp2", "1e100", "1e100", "1"],
]


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _run(argv, d):
    """main on argv with "{d}" set to the directory d and --out d: the exit
    code, stderr and the files written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{d}", str(d)) for a in argv] + ["--out", str(d)])
    return code, err.getvalue(), sorted(p.name for p in Path(d).iterdir())


def _reject_nan(constant):
    if constant == "NaN":
        raise AssertionError("report carries NaN")
    return float(constant)


class TestOptionSets:
    def test_each_subcommand_takes_exactly_its_options(self):
        taken = {name: {a.option_strings[-1] if a.option_strings else a.dest
                        for a in p._actions} - {"--help"}
                 for name, p in _subparsers().items()}
        assert taken == {name: set(opts.split()) for name, opts in OPTIONS.items()}

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv", [PROBES[3], PROBES[4]], ids=["omega", "mesh"])
    def test_a_dropped_option_is_unrecognized(self, tmp_path, argv):
        code, err, files = _run(argv, tmp_path)
        assert code == 1 and "unrecognized arguments: --mesh" in err
        assert files == []


def _subprocess(argv, d):
    """The CLI on argv with --out d in a fresh interpreter, where numpy's
    RuntimeWarnings would print."""
    src = str(Path(spinorminimal.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "spinorminimal.cli", *argv, "--out", str(d)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["rp2", "1e300", "1e300", "1e300"],
                                  ["rp2", "1e100", "1e100", "1"],
                                  ["sphere6", "1e300", "0", "0"],
                                  ["omega", "--domain", "twisted", "--ends=0,0;inf"],
                                  ["torus4", "1", "13j"],
                                  ["torus4", "1", "30j"]],
                         ids=["rp2-overflow", "rp2-infinite-value", "sphere6-root-overflow",
                              "twisted-end-at-inf", "torus4-period-rounds-to-0",
                              "torus4-quadrature-diverges"])
def test_stderr_holds_only_the_error_line(tmp_path, argv):
    run = _subprocess(argv, tmp_path)
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: "), run.stderr


def test_a_lattice_at_the_torus4_limit_keeps_its_exit_code(tmp_path):
    # reduced Im(tau) = 7, the largest torus4 takes: the construction runs
    # and its branch condition fails the gate, as before the limit was stated
    run = _subprocess(["torus4", "1", "7j"], tmp_path)
    assert run.returncode == 2 and run.stderr == ""
    assert json.loads((tmp_path / "torus4.json").read_text())["residuals"]["period1"] < 1e-7


TWISTED_SMALL = ["omega", "--domain", "twisted", "--ends", "0;4e-4+3.3e-4j;1.1e-3+0.7e-3j"]


@pytest.mark.parametrize("argv, spelled", [
    (["sphere6", "-1.5e-1", "1", "0"], ["sphere6", " -1.5e-1", "1", "0"]),
    (["sphere6", "-0.5,1", "1", "0"], ["sphere6", " -0.5,1", "1", "0"]),
    ([*TWISTED_SMALL, "--omega1", "-1e-3", "--omega3", "1e-3j"],
     [*TWISTED_SMALL, "--omega1=-1e-3", "--omega3", "1e-3j"]),
], ids=["exponent", "comma", "option-value"])
def test_a_negative_number_is_a_value(tmp_path, argv, spelled):
    # the spelled form (a leading space, or --flag=value) parsed at every version
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    code, err, files = _run(argv, tmp_path / "a")
    assert (code, err) == (0, "") and files == _run(spelled, tmp_path / "b")[2]
    for name in files:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_a_negative_complex_half_period_gives_the_spelled_x_squares(tmp_path):
    runs = []
    for k, omega3 in enumerate(["-1+1j", " -1+1j"]):
        (tmp_path / str(k)).mkdir()
        run = _subprocess(["torus4", "1", omega3], tmp_path / str(k))
        report = json.loads((tmp_path / str(k) / "torus4.json").read_text())
        runs.append((run.returncode, run.stderr, report["x_squares"]))
    assert runs[0] == runs[1]


def test_a_nan_report_field_is_named():
    with pytest.raises(ReportValueError, match=r"^report field a\.1\.b is NaN$"):
        jsonify({"a": [1.0, {"b": complex(0.0, math.nan)}]})
    assert jsonify({"end": INF, "x": -math.inf}) == {"end": [math.inf, 0.0], "x": -math.inf}


def _mostly(valid, bad):
    """A value from valid three times in four, else from bad, so that most
    examples compute."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else bad)


BAD = st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-200", "1e400",
                       "x", "", "1+", "(1+2j", "1,,2", "nan+1j", "1e300j", "oo", "0", "-1",
                       "-1.5e-1", "-1e-3", "-1+1j", "-0.5,1"])
NUMBER = _mostly(st.floats(-3.0, 3.0).map(repr), BAD)
COMPLEX = _mostly(st.builds("{!r},{!r}".format, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                  NUMBER | st.builds("{},{}".format, NUMBER, NUMBER))
LATTICE = _mostly(
    st.sampled_from([("1", "1j"), ("1", "2j"), ("1", "0.5+0.1j"), ("1+0.4j", "1-0.4j"),
                     ("1.1-0.2j", "0.3+0.9j")])
    | st.tuples(st.just("1"), st.builds("{!r},{!r}".format, st.floats(-1.0, 1.0),
                                        st.floats(0.3, 2.0))),
    st.tuples(COMPLEX, COMPLEX))
TOL, EPS, EXTENT = (_mostly(st.floats(low, high).map(repr), BAD)
                    for low, high in ((1e-13, 1e-5), (1e-3, 0.2), (0.5, 3.0)))
GRID = st.sampled_from(["2", "9", "17", "33", "-1", "1", "3.5"])
MESH = st.sampled_from([[], ["--mesh", "{d}/m.obj"]])


def _options(**choices):
    """Any subset of the flags, each with a value from its strategy."""
    return st.tuples(*(st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
                       for flag, value in choices.items())) \
        .map(lambda parts: [a for part in parts for a in part])


def _values(value, n):
    """n values, or now and then a wrong number of them."""
    return _mostly(st.lists(value, min_size=n, max_size=n), st.lists(value, max_size=n + 1))


ARGV = st.one_of(
    st.builds(lambda c, scan: ["rp2", *c, *scan], _values(NUMBER, 3),
              st.sampled_from([[], [], ["--boundary-scan", "3"], ["--boundary-scan", "-1"]])),
    st.builds(lambda lattice, opts, mesh: ["torus4", *lattice, *opts, *mesh], LATTICE,
              _options(**{"--choice": st.sampled_from(["231", "123", "312", "1,1,2", "12"]),
                          "--grid": GRID, "--eps": EPS}), MESH),
    st.builds(lambda sigma, opts, mesh: ["sphere6", *sigma, *opts, *mesh],
              _values(COMPLEX, 3) | st.just(["0", "1.4907119849998598", "0"]),
              _options(**{"--scan": st.sampled_from(["0", "2", "-1"]),
                          "--seed": st.sampled_from(["0", "7", "-3"]),
                          "--grid": GRID, "--tol": TOL}), MESH),
    st.builds(lambda domain, ends, opts: ["omega", "--domain", domain, "--ends=" + ";".join(ends),
                                          *opts],
              st.sampled_from(["sphere", "twisted", "untwisted"]),
              st.lists(COMPLEX | st.sampled_from(["0", "inf"]), min_size=1, max_size=4),
              _options(**{"--r": st.sampled_from(["1", "2", "3", "0", "4", "x"]),
                          "--omega1": COMPLEX, "--omega3": COMPLEX, "--tol": TOL})),
    st.builds(lambda opts, mesh: ["sphere4", *opts, *mesh],
              _options(**{"--tol": TOL, "--eps": EPS, "--extent": EXTENT,
                          "--grid": GRID}), MESH),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=ARGV)
def test_no_input_ends_in_a_traceback_or_a_nan_report(argv):
    with tempfile.TemporaryDirectory() as d:
        code, err, files = _run(argv, d)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
        for name in files:
            if name.endswith(".json"):
                json.loads((Path(d) / name).read_text(), parse_constant=_reject_nan)
        if argv in PROBES:
            assert code == 1 and files == []


for _probe in PROBES:
    test_no_input_ends_in_a_traceback_or_a_nan_report = example(argv=_probe)(
        test_no_input_ends_in_a_traceback_or_a_nan_report)
