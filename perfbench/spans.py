"""Spans and counters around the public functions of each layer.

The wrappers live in the benchmark, not in the program.  A function is
bound in every module that imported it (`from .elliptic import wp`
binds `spinor.wp` and `moduli.wp` separately), so each wrapper replaces
the original in every `spinorminimal` namespace, and methods are
replaced on their class.  Spans record (name, start, end, parent,
operation id) in memory; self time is a span's duration minus its
children's.  Recording is on only while a traced operation runs.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import numpy as np

# metric group -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "numkit.contour_integral": [("numkit", "contour_integral")],
    "numkit.linalg": [("numkit", "pfaffian"), ("numkit", "skew_rank_kernel"),
                      ("numkit", "poly_roots")],
    "elliptic.build_context": [("elliptic", "build_context")],
    "elliptic.eval": [("elliptic", "wp"), ("elliptic", "wp_prime"),
                      ("elliptic", "wp_second"), ("elliptic", "zeta")],
    "elliptic.lattice_distance": [("elliptic", "EllipticContext.lattice_distance")],
    "spinor.basis": [("spinor", "basis_F_sphere"), ("spinor", "basis_F_torus_twisted"),
                     ("spinor", "basis_F_torus_untwisted"),
                     ("spinor", "basis_F_torus_untwisted_paired")],
    "spinor.omega": [("spinor", "omega_matrix"), ("spinor", "omega_pair"),
                     ("spinor", "extract_K")],
    "spinor.oracle": [("spinor", "omega_qres_oracle")],
    "moduli": [("moduli", name) for name in (
        "sphere4_solve", "sphere6_pfaffian", "sphere6_ends", "sphere6_numeric_pfaffian",
        "sphere6_K_basis", "rp2_variety", "rp2_symmetry_group", "torus4_construct",
        "klein4_construct", "square_context_e1_normalized", "klein_fourth_quadrant_root")],
    "surface.integrate_surface": [("surface", "integrate_surface")],
    "surface.gauss_map": [("surface", "gauss_map")],
    "surface.masks": [("surface", "WeierstrassData.end_distance"),
                      ("surface", "WeierstrassData.chart_singular_distance")],
    "surface.omega": [("surface", "WeierstrassData.omega")],
    "surface.export_obj": [("surface", "export_obj")],
    "cli": [("cli", "main")],
    "cli.report": [("reportio", "write_report")],
}

COUNTERS = ("numkit.contour_integral.calls", "numkit.contour_integral.points",
            "elliptic.build_context.calls", "elliptic.eval.calls", "elliptic.eval.points",
            "elliptic.lattice_distance.calls", "surface.gauss_map.calls",
            "surface.omega.points", "surface.vertices", "surface.export_obj.bytes",
            "cli.report.bytes")


class Tracer:
    """Installs the layer wrappers and keeps spans and counters."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []  # (name, start, end, parent index, op id, self seconds)
        self._stack = []  # [span index, child seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._installed = []

    # -- spans -----------------------------------------------------------
    def span(self, group, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([idx, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child = self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[idx] = (group, start, end, parent, self.op_id, end - start - child)

    def exclude(self, seconds):
        """Count time spent outside the program (reference samples) as a
        child of the innermost open span, so no layer's self time holds it."""
        if self._stack:
            self._stack[-1][1] += seconds

    def operation(self, op_id, fn):
        """Run one operation as a root span with layer spans recorded."""
        self.op_id, self.active = op_id, True
        try:
            return self.span("op", fn)
        finally:
            self.active = False

    # -- wrappers --------------------------------------------------------
    def _wrap(self, group, fn):
        counts, tracer = self.counts, self

        if group == "elliptic.eval":
            def before(args, kwargs):
                counts["elliptic.eval.calls"] += 1
                counts["elliptic.eval.points"] += int(np.size(args[1]))
        elif group == "numkit.contour_integral":
            def before(args, kwargs):
                counts["numkit.contour_integral.calls"] += 1
                f = args[0]

                def integrand(z):
                    counts["numkit.contour_integral.points"] += int(np.size(z))
                    return f(z)
                return (integrand,) + tuple(args[1:]), kwargs
        elif group == "elliptic.build_context":
            def before(args, kwargs):
                counts["elliptic.build_context.calls"] += 1
        elif group == "elliptic.lattice_distance":
            def before(args, kwargs):
                counts["elliptic.lattice_distance.calls"] += 1
        elif group == "surface.gauss_map":
            def before(args, kwargs):
                counts["surface.gauss_map.calls"] += 1
        elif group == "surface.omega":
            def before(args, kwargs):
                counts["surface.omega.points"] += int(np.size(args[1]))
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                changed = before(args, kwargs)
                if changed is not None:
                    args, kwargs = changed
            out = tracer.span(group, fn, *args, **kwargs)
            if group == "surface.integrate_surface":
                counts["surface.vertices"] += len(out.vertices)
            elif group in ("surface.export_obj", "cli.report"):
                counts[f"{group}.bytes"] += out.stat().st_size
            return out
        return wrapper

    def install(self):
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if name.startswith("spinorminimal.") and mod is not None}
        for group, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(group, original))
                    self._installed.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(group, original)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            self._installed.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------
    def snapshot(self):
        """(counter values, self seconds per group) so far."""
        self_s = {}
        for group, _, _, _, _, own in self.spans:
            self_s[group] = self_s.get(group, 0.0) + own
        return dict(self.counts), self_s

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,op,self_s\n")
            for group, start, end, parent, op, own in self.spans:
                fh.write(f"{group},{start:.9f},{end:.9f},{parent},{op},{own:.9f}\n")
        return path
