"""CLI: exit codes, report schema, determinism, OBJ output."""

import json

import numpy as np
import pytest

from spinorminimal import moduli, spinor
from spinorminimal.cli import main, parse_complex
from spinorminimal.moduli import CONSTRUCTIONS, rp2_boundary_point, rp2_on_variety, \
    rp2_symmetry_group, rp2_variety
from spinorminimal.spinor import INF, is_infinity
from spinorminimal.surface import gauss_degree

SPHERE6_ON_VARIETY = ["0", "1.4907119849998598", "0"]


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1+2j") == 1 + 2j
        assert parse_complex("1.5") == 1.5
        assert parse_complex("0.5,-0.25") == 0.5 - 0.25j
        assert is_infinity(parse_complex("inf"))


class TestRunConfig:
    def test_invalid_values_are_usage_errors(self):
        assert main(["sphere4", "--grid", "1"]) == 1
        assert main(["sphere4", "--eps", "0"]) == 1


class TestCommands:
    def test_sphere4_report(self, tmp_path, capsys):
        code = main(["sphere4", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "sphere4.json").read_text())
        assert report["schema"] == "spinor-minimal/1"
        assert report["residuals"]["pfaffian"] < 1e-10
        # complex values serialized as [re, im]
        assert isinstance(report["parameter"][0], list)

    def test_sphere4_mesh(self, tmp_path, capsys):
        obj = tmp_path / "s4.obj"
        code = main(["sphere4", "--mesh", str(obj), "--grid", "25",
                     "--out", str(tmp_path)])
        assert code == 0
        text = obj.read_text()
        assert text.startswith("v ")
        assert "f " in text

    def test_arf_table(self, capsys):
        assert main(["arf", "1"]) == 0
        out = capsys.readouterr().out
        assert "du" in out and "-1" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["counts"] == {"plus": 3, "minus": 1}

    def test_arf_branch_spec(self, capsys):
        assert main(["arf", "2", "0,1"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["arf_bruteforce"] == payload["arf_closed_form"]

    def test_negative_genus_is_a_usage_error(self, capsys):
        assert main(["arf", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "genus must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sigma", [("0.3", "1.1", "0.2"), ("0", "1.4907129849998598", "0")])
    def test_sphere6_mesh_off_variety_is_a_usage_error(self, tmp_path, capsys, sigma):
        obj = tmp_path / "s6.obj"
        assert main(["sphere6", *sigma, "--mesh", str(obj), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "pfaffian variety (value " in err
        assert "Traceback" not in err
        assert not obj.exists() and not (tmp_path / "sphere6.json").exists()

    def test_omega_command(self, tmp_path):
        code = main(["omega", "--domain", "sphere",
                     "--ends", "0.5+0.3j;-1.2;inf", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "omega.json").read_text())
        assert report["dim_F"] == 3
        assert report["dim_K"] == 1

    def test_omega_twisted(self, tmp_path):
        code = main(["omega", "--domain", "twisted", "--omega1", "1",
                     "--omega3", "1j", "--ends", "0;0.4+0.33j;1.1+0.7j",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "omega.json").read_text())
        assert report["h_dim"] == 1 and report["dim_K"] == 0

    def test_rp2_point(self, capsys):
        assert main(["rp2", "0", "0", "0"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["variety_value"] == -5.0

    def test_verify_suite_pass(self, capsys):
        assert main(["verify", "pfaffian"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_unknown_suite_usage_error(self, capsys):
        assert main(["verify", "not-a-suite"]) == 1

    def test_usage_error_exit_code(self):
        assert main(["not-a-command"]) == 1

    def test_torus4_on_thin_lattice(self, capsys):
        assert main(["torus4", "1", "0.5+0.05j", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"]["planar_ends"]

    def test_too_thin_lattice_is_a_usage_error(self, capsys):
        # a lattice past double precision ends in a one-line error, exit 1
        assert main(["torus4", "1", "0.5+0.002j"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too thin" in err and "Traceback" not in err

    def test_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["sphere6", "--scan", "4", "--seed", "11",
                         "--out", str(d)]) == 0
        assert (d1 / "sphere6-scan.json").read_bytes() == \
            (d2 / "sphere6-scan.json").read_bytes()

    def test_mesh_command(self, tmp_path, capsys):
        obj = tmp_path / "enneper.obj"
        assert main(["mesh", "enneper", str(obj), "--grid", "17"]) == 0
        lines = obj.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 17 * 17

    @pytest.mark.parametrize("argv", [
        ["sphere4", "--grid", "81", "--extent", "2.0"],
        ["sphere6", *SPHERE6_ON_VARIETY, "--grid", "81", "--extent", "2.5"],
        ["torus4", "1", "1j", "--grid", "65"],
        ["klein4", "--grid", "65"],
    ], ids=["sphere4", "sphere6", "torus4", "klein4"])
    def test_a_construction_writes_its_report_and_mesh(self, tmp_path, capsys, argv):
        # the four constructions at the grids the README runs them on
        name = argv[0]
        obj, report = tmp_path / f"{name}.obj", tmp_path / f"{name}.json"
        assert main([*argv, "--mesh", str(obj), "--out", str(tmp_path)]) == 0
        assert sorted(tmp_path.iterdir()) == [report, obj]
        assert json.loads(report.read_text())["schema"] == "spinor-minimal/1"
        assert obj.read_text().startswith("v ")
        assert capsys.readouterr().out == f"wrote {obj}\nwrote {report}\n"

    def test_rp2_boundary_scan_and_its_special_points(self, capsys):
        assert main(["rp2", "--boundary-scan", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 26
        for kind, label in (("Z2xZ2", "Z2xZ2"), ("D3", "S3")):
            assert main(["rp2", *map(repr, map(float, rp2_boundary_point(kind)))]) == 0
            assert json.loads(capsys.readouterr().out)["stabilizer"] == label


class TestMeshGate:
    @pytest.mark.parametrize("grid,code", [("33", 0), ("65", 0)])
    def test_sphere6_loop_closure_gate(self, tmp_path, capsys, grid, code):
        # at grid 33 the end clearance (0.036) is below the grid step
        # (0.125), and each of the four finite ends lies inside a cell with
        # four valid corners.  Edge quadrature failed next to the ends there;
        # the closed form does not (test_primitive checks its vertices), and
        # the cell mask drops those four cells, so no face spans an end
        # (test_surface checks the faces)
        obj = tmp_path / "s6.obj"
        assert main(["sphere6", *SPHERE6_ON_VARIETY, "--mesh", str(obj), "--grid", grid,
                     "--out", str(tmp_path)]) == code
        report = json.loads((tmp_path / "sphere6.json").read_text())
        mesh = report["mesh"]
        assert (mesh["loop_residual_max"] >= 1e-6 * mesh["mesh_scale"]) == (code == 2)
        assert obj.exists()

    @pytest.mark.parametrize("argv, point, grid, extent", [
        (["sphere4", "--mesh", "{obj}", "--grid", "64"], -1 - 1j, 64, 2.0),
        (["sphere4", "--mesh", "{obj}", "--grid", "66"], -1 - 1j, 66, 2.0),
        (["sphere4", "--mesh", "{obj}", "--grid", "67"], -1 - 1j, 67, 2.0),
        (["sphere4", "--mesh", "{obj}", "--extent", "3"], -1 - 1j, 65, 3.0),
        (["mesh", "enneper", "{obj}", "--grid", "34"], 0j, 34, 2.0),
    ], ids=["sphere4-grid64", "sphere4-grid66", "sphere4-grid67", "sphere4-extent3",
            "enneper-grid34"])
    def test_a_sphere_mesh_starts_at_the_nearest_grid_vertex(self, tmp_path, capsys, argv,
                                                             point, grid, extent):
        # the chart point of a sphere construction is a grid vertex only on
        # some grids; elsewhere its mesh starts at the vertex nearest it
        obj = tmp_path / "m.obj"
        assert main([a.replace("{obj}", str(obj)) for a in argv]
                    + ["--out", str(tmp_path)]) == 0
        report = json.loads(next(tmp_path.glob("*.json")).read_text())
        base = complex(*report.get("mesh", report)["basepoint"])
        xs = np.linspace(-extent, extent, grid)
        assert base.real in xs and base.imag in xs
        assert max(abs(base.real - point.real), abs(base.imag - point.imag)) \
            <= extent / (grid - 1)
        assert obj.exists()

    def test_outputs_identical_across_thread_counts(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for threads in ("1", "2"):
            d = tmp_path / threads
            d.mkdir()
            monkeypatch.chdir(d)
            monkeypatch.setenv("SPINOR_MINIMAL_THREADS", threads)
            assert main(["torus4", "1.1-0.2j", "0.3+0.9j", "--mesh", "t.obj", "--grid", "33",
                         "--out", "."]) == 0
            outputs.append(((d / "t.obj").read_bytes(), (d / "torus4.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_skew_torus4_mesh_passes(self, tmp_path, capsys):
        # the default end clearance (0.010) is below the grid step here
        obj = tmp_path / "t.obj"
        assert main(["torus4", "1", "0.5+0.1j", "--mesh", str(obj), "--out", str(tmp_path)]) == 0
        mesh = json.loads((tmp_path / "torus4.json").read_text())["mesh"]
        assert mesh["identity_residual_max"] < 1e-12 and mesh["end_residue_max"] < 1e-12

    def test_gate_fires_on_a_wrong_constant(self, tmp_path, monkeypatch, capsys):
        # a constant C_st off by 1e-4 of the double-pole coefficients leaves
        # every cell closed (the vertices still come from one function) but
        # breaks the identity the gate reads
        # (FormPrimitive.fixed, where the mesh's first block fixes it)
        from dataclasses import replace
        from spinorminimal.spinor import FormPrimitive
        exact = FormPrimitive.fixed

        def perturbed(self, fg, form):
            prim = exact(self, fg, form)
            return replace(prim, poly=prim.poly + 1e-4 * np.abs(prim.c).max())
        monkeypatch.setattr(FormPrimitive, "fixed", perturbed)
        assert main(["torus4", "1", "1j", "--mesh", str(tmp_path / "t.obj"), "--grid", "17",
                     "--out", str(tmp_path)]) == 2
        mesh = json.loads((tmp_path / "torus4.json").read_text())["mesh"]
        assert mesh["identity_residual_max"] > 1e-6
        assert mesh["loop_residual_max"] < 1e-12 * mesh["mesh_scale"]


TORUS4_CHOICES = ("123", "132", "213", "231", "312", "321")


@pytest.mark.parametrize("scale", [0.01, 100.0, 2.0**-40, 2.0**40])
def test_torus4_exit_code_does_not_depend_on_scale(tmp_path, capsys, scale):
    # the branch condition scales as scale^-2; the gate reads it relative
    # to its terms.  At 2^-40 the end checks' absolute floors once refused the
    # ends; the rank cut, the end checks and the x solve read the unit chart
    def exit_code(lam, choice):
        return main(["torus4", repr(lam), repr(lam * 1j), "--choice", choice,
                     "--out", str(tmp_path)])
    unit = [exit_code(1.0, choice) for choice in TORUS4_CHOICES]
    assert unit == [0, 2, 0, 0, 2, 0]
    assert [exit_code(scale, choice) for choice in TORUS4_CHOICES] == unit


@pytest.mark.parametrize("omega3", ["1j", "2j"])
def test_the_branch_gate_passes_exactly_where_the_gauss_degree_is_four(monkeypatch, tmp_path,
                                                                       capsys, omega3):
    # the printed branch condition is necessary for an immersion; the
    # Gauss-map degree g + n - 1 = 4 says that s1 and s2 share no zero
    built, construct = [], moduli.torus4_construct

    def recorded(ctx, choice):
        built.append(construct(ctx, choice))
        return built[-1]
    monkeypatch.setattr(moduli, "torus4_construct", recorded)
    codes = [main(["torus4", "1", omega3, "--choice", choice, "--out", str(tmp_path)])
             for choice in TORUS4_CHOICES]
    degrees = [gauss_degree(CONSTRUCTIONS["torus4"].weierstrass(t4)) for t4 in built]
    assert [abs(d - 4.0) <= 1e-6 for d in degrees] == [code == 0 for code in codes]
    if omega3 == "1j":
        # 132 and 312 have branch condition 4.4e-16: two branch points
        assert degrees[1] == pytest.approx(2.0, abs=1e-6)
        assert degrees[4] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("omega3", ["3.5j", "5j", "7j"])
def test_thin_square_tori_pass_the_branch_gate(monkeypatch, tmp_path, capsys, omega3):
    # |branch condition| falls about as exp(-pi Im tau) with the
    # e-differences; relative to its two terms it reads 0.99 or more, and the
    # Gauss-map degree g + n - 1 = 4 says that s1 and s2 share no zero
    built, construct = [], moduli.torus4_construct

    def recorded(ctx, choice):
        built.append(construct(ctx, choice))
        return built[-1]
    monkeypatch.setattr(moduli, "torus4_construct", recorded)
    assert main(["torus4", "1", omega3, "--out", str(tmp_path)]) == 0
    assert built[0].branch_relative > 0.99
    assert abs(gauss_degree(CONSTRUCTIONS["torus4"].weierstrass(built[0])) - 4.0) <= 1e-6


def test_an_unrepresentable_lattice_is_one_error_line_that_names_it(capsys):
    # |b1|^2 = 4e-600 underflows in the basis reduction
    assert main(["torus4", "1", "1e-300j"]) == 1
    assert capsys.readouterr().err == (
        "error: the lattice of half-periods (1+0j, 0+1e-300j) is too small, too large or too "
        "thin for double precision\n")


# five finite sphere ends, in thousandths, and infinity
SPHERE_ENDS = ((-1179, -1148), (669, -2294), (-143, -2256), (1101, 203), (1356, -504))


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e-5, 1e-7, 1e-9])
def test_sphere_dim_K_does_not_depend_on_scale(capsys, scale):
    # the rank cut and the K test read the unit chart: at 1e9 an absolute
    # floor once gave dim K 4 of 6, and at 1e-5 to 1e-9 the K test refused
    # the kernel
    ends = ";".join(repr(complex(x * scale / 1000, y * scale / 1000)) for x, y in SPHERE_ENDS)
    assert main(["omega", "--domain", "sphere", f"--ends={ends};inf"]) == 0
    assert json.loads(capsys.readouterr().out)["dim_K"] == 0


def _sphere6_sweep():
    """(offset, sigma): six seeded sigma1, each with sigma2 in {0.1, 1, 10,
    100} and the first root sigma3 of the pfaffian variety, then sigma2
    scaled by 1 + offset."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        s1 = complex(rng.standard_normal(), rng.standard_normal())
        for s2 in (0.1, 1.0, 10.0, 100.0):
            tau1 = s1 * s1 + 3.0 * s2
            s3 = complex(np.roots([tau1, s1, 3.0 * s2 * tau1 - 20.0])[0])
            for offset in (0.0, 1e-10, 1e-8, 1e-6, 1e-4):
                yield offset, (s1, s2 * (1.0 + offset), s3)


def _sphere6_report(sigma, capsys):
    code = main(["sphere6", *(repr(complex(s)) for s in sigma)])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


def test_sphere6_exits_0_on_and_off_the_variety(capsys):
    # the printed K basis alone decides membership: a sigma off the variety
    # gets a report without K and exit 0, whatever the scale of sigma2
    sweep = [(offset, *_sphere6_report(sigma, capsys)) for offset, sigma in _sphere6_sweep()]
    assert [code for _, code, _ in sweep] == [0] * 120
    assert all("K_residuals" in report for offset, _, report in sweep if offset == 0.0)
    for _, _, report in sweep:
        if "K_residuals" in report:
            assert max(report["K_residuals"].values()) <= 1e-8


@pytest.mark.parametrize("times", [0.5, 2.0])
def test_sphere6_gate_edge(capsys, times):
    # the printed basis's residuals grow linearly with sigma2's offset from
    # the variety: read the slope at 1e-10, then place the largest residual
    # at times the gate's 1e-8
    s2 = 2.0 * np.sqrt(5.0) / 3.0
    _, report = _sphere6_report((0.0, s2 * (1.0 + 1e-10), 0.0), capsys)
    slope = max(report["K_residuals"].values()) / 1e-10
    code, report = _sphere6_report((0.0, s2 * (1.0 + times * 1e-8 / slope), 0.0), capsys)
    assert code == 0
    assert ("K_residuals" in report) == (times < 1)


@pytest.mark.parametrize("argv", [
    ["0", "1.4907119849998598", "0"],
    ["0", "1.4907119849998598", "0", "--mesh", "{d}/s6.obj", "--grid", "17"],
    ["0.3", "1.1", "0.2"],
], ids=["on-the-variety", "mesh", "off-the-variety"])
def test_sphere6_builds_its_basis_and_omega_once(tmp_path, capsys, count_everywhere, argv):
    # the pfaffians, the gate and the mesh all read the one family's Omega
    bases = count_everywhere(spinor, "basis_F_sphere")
    omegas = count_everywhere(spinor, "omega_matrix")
    assert main(["sphere6", *(a.format(d=tmp_path) for a in argv), "--out", str(tmp_path)]) == 0
    assert (sum(map(len, bases)), sum(map(len, omegas))) == (1, 1)


@pytest.mark.parametrize("times", [0.5, 2.0])
def test_rp2_variety_edge(capsys, times):
    # (c1, 0, 0) has variety value 9 (c1^2 + 3) - 32: placed at times the
    # bound 1e-6 * 32, the stabilizer is reported, and computed, only short of it
    value = times * 1e-6 * 32.0
    c = (float(np.sqrt((32.0 + value) / 9.0 - 3.0)), 0.0, 0.0)
    assert rp2_variety(c) == pytest.approx(value, rel=1e-6)
    assert rp2_on_variety(c) == (times < 1)
    assert main(["rp2", *map(repr, c)]) == 0
    assert ("stabilizer" in json.loads(capsys.readouterr().out)) == (times < 1)
    if times < 1:
        assert rp2_symmetry_group(c) == "Z2xZ2"
    else:
        with pytest.raises(ValueError, match="off the admissibility variety"):
            rp2_symmetry_group(c)
