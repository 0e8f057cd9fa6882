#!/usr/bin/env python3
"""Run all four explicit constructions, write reports and meshes.

Usage: python scripts/run_constructions.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from spinorminimal.moduli import CONSTRUCTIONS
from spinorminimal.reportio import write_report
from spinorminimal.surface import GridSpec, export_obj


def _mesh(name, built, grid, out):
    mesh = CONSTRUCTIONS[name].mesh(built, grid)
    export_obj(mesh, out / f"{name}.obj")
    return mesh


def main(outdir="constructions"):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    fam = CONSTRUCTIONS["sphere4"].build()
    write_report(fam.report(), out / "sphere4.json")
    mesh = _mesh("sphere4", fam, GridSpec(nx=81, ny=81, extent=2.0), out)
    print(f"sphere4: pfaffian residual {fam.residuals['pfaffian']:.2e}, "
          f"mesh loops {mesh.metadata['loop_residual_max']:.2e}")

    sigma = (0.0, 2.0 * np.sqrt(5.0) / 3.0, 0.0)
    built6 = CONSTRUCTIONS["sphere6"].build(sigma)
    residuals = built6[2]
    write_report({"sigma": sigma, "residuals": residuals}, out / "sphere6.json")
    _mesh("sphere6", built6, GridSpec(nx=81, ny=81, extent=2.5), out)
    print(f"sphere6: K residuals {max(residuals.values()):.2e}")

    t4 = CONSTRUCTIONS["torus4"].build()
    write_report(t4.report(), out / "torus4.json")
    _mesh("torus4", t4, GridSpec(nx=65, ny=65), out)
    print(f"torus4: period residual {t4.residuals['period1']:.2e}, "
          f"branch condition |{abs(t4.branch_condition):.3f}|")

    kb = CONSTRUCTIONS["klein4"].build()
    write_report(kb.report(), out / "klein4.json")
    _mesh("klein4", kb, GridSpec(nx=65, ny=65), out)
    print(f"klein4: period residual {kb.residuals['period_equation']:.2e}, "
          f"gamma3 auto {kb.residuals['gamma3_auto']:.2e}")
    print(f"all reports and meshes in {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:])
