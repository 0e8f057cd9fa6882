"""The scripts under scripts/ run end to end at small sizes."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_run_constructions(tmp_path, capsys):
    _main("run_constructions")(tmp_path)
    names = ("sphere4", "sphere6", "torus4", "klein4")
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == sorted(f"{n}.{ext}" for n in names for ext in ("json", "obj"))
    for n in names:
        assert json.loads((tmp_path / f"{n}.json").read_text())["schema"] == "spinor-minimal/1"
        assert (tmp_path / f"{n}.obj").read_text().startswith("v ")
    assert capsys.readouterr().out.endswith(f"all reports and meshes in {tmp_path}/\n")


def test_scan_rp2_boundary(capsys):
    _main("scan_rp2_boundary")(5)
    out = capsys.readouterr().out
    assert out.startswith("26 variety points on a 5x5 slice grid")
    assert "stabilizer = Z2xZ2" in out and "stabilizer = S3" in out


def test_torus3_scan(capsys):
    _main("torus3_scan")(2)
    out = capsys.readouterr().out
    assert out.count("2 admissible pairs") == 5
    assert out.endswith("hit: False\n")
