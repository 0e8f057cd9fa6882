"""reportio.overwrite, the one writer of every output file: export_obj,
export_csv and write_report write over an existing file's bytes in place,
cut a regular file at the end of the new bytes, and write any other
target, such as /dev/null or a pipe, as it is."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spinorminimal
from spinorminimal import reportio, surface
from spinorminimal.moduli import CONSTRUCTIONS
from spinorminimal.reportio import ReportValueError, write_report
from spinorminimal.surface import GridSpec, export_csv, export_obj

REPORT = {"construction": "sphere4", "rows": [{"x": 0.5, "k": 1}, {"x": 0.25, "k": 2}]}


@pytest.fixture(scope="module")
def meshes():
    entry = CONSTRUCTIONS["sphere4"]
    built = entry.build()
    return {n: entry.mesh(built, GridSpec(n, n)) for n in (9, 65)}


def _writers(meshes, n):
    """(name, writer(path)) for export_obj, export_csv and write_report, the
    report growing with n as the exports do."""
    report = dict(REPORT, rows=REPORT["rows"] * n)
    return [("obj", lambda p: export_obj(meshes[n], p)),
            ("csv", lambda p: export_csv(meshes[n], p)),
            ("json", lambda p: write_report(report, p))]


def _fresh(tmp_path, meshes, n):
    """Each writer's bytes, written to a path that did not exist."""
    return {name: write(tmp_path / f"fresh{n}.{name}").read_bytes()
            for name, write in _writers(meshes, n)}


def test_a_smaller_output_over_a_larger_file_is_exactly_its_bytes(tmp_path, meshes):
    want = _fresh(tmp_path, meshes, 9)
    for (name, small), (_, large) in zip(_writers(meshes, 9), _writers(meshes, 65)):
        path = large(tmp_path / f"out.{name}")
        inode, size = path.stat().st_ino, path.stat().st_size
        assert small(path) == path
        assert path.read_bytes() == want[name]
        assert size > len(want[name]) and path.stat().st_ino == inode


def test_a_symlink_is_written_through(tmp_path, meshes):
    want = _fresh(tmp_path, meshes, 9)
    for (name, small), (_, large) in zip(_writers(meshes, 9), _writers(meshes, 65)):
        target = large(tmp_path / f"target.{name}")
        link = tmp_path / f"link.{name}"
        link.symlink_to(target)
        small(link)
        assert link.is_symlink() and target.read_bytes() == want[name]


def test_null_and_pipe_targets(tmp_path, meshes):
    want = _fresh(tmp_path, meshes, 9)
    for name, write in _writers(meshes, 9):
        assert write(os.devnull) == Path(os.devnull)
        # a reader thread drains the pipe while the writer fills it
        r, w = os.pipe()
        chunks = []
        with os.fdopen(r, "rb") as rf:
            reader = threading.Thread(target=lambda: chunks.append(rf.read()))
            reader.start()
            try:
                write(f"/dev/fd/{w}")
            finally:
                os.close(w)
            reader.join(timeout=60)
        assert not reader.is_alive() and chunks == [want[name]], name


def test_mesh_to_stdout_through_a_pipe(tmp_path, meshes):
    # as `mesh sphere4 /dev/stdout | cat`: the OBJ, then the printed report
    want = export_obj(meshes[9], tmp_path / "m.obj").read_bytes()
    src = str(Path(spinorminimal.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "spinorminimal.cli", "mesh", "sphere4",
                          "/dev/stdout", "--grid", "9"],
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(want) and run.stdout.endswith(b"wrote /dev/stdout\n")


def test_a_failed_export_leaves_only_the_bytes_written(tmp_path, meshes, monkeypatch):
    # the second block (the first of the normals) raises: the file holds the
    # vertex lines and none of the old mesh's tail
    full = _fresh(tmp_path, meshes, 9)["obj"]
    path = export_obj(meshes[65], tmp_path / "m.obj")
    text = surface._float_text
    calls = []

    def failing(x, gap, **buffers):
        calls.append(x)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return text(x, gap, **buffers)
    monkeypatch.setattr(surface, "_float_text", failing)
    with pytest.raises(RuntimeError, match="second block"):
        export_obj(meshes[9], path)
    assert path.read_bytes() == full[:full.index(b"\nvn ") + 1]


def test_a_nan_report_leaves_the_old_report(tmp_path):
    path = write_report(REPORT, tmp_path / "r.json")
    old = path.read_bytes()
    with pytest.raises(ReportValueError):
        write_report({"x": math.nan, "rows": REPORT["rows"]}, path)
    assert path.read_bytes() == old


def test_no_output_open_truncates(tmp_path, meshes, count_calls):
    # each writer opens once, without O_TRUNC, over a file that exists
    for name, write in _writers(meshes, 9):
        write(tmp_path / f"out.{name}")
    calls = count_calls(reportio.os, "open")
    for name, write in _writers(meshes, 9):
        write(tmp_path / f"out.{name}")
    assert len(calls) == 3
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags, *_ in calls)
