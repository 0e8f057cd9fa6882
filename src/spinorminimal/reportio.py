"""JSON report serialization: complex numbers as [re, im], arrays as lists.

Reports are diffable fixtures: keys are sorted, no timestamps, and the
same inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCHEMA = "spinor-minimal/1"

__all__ = ["jsonify", "report_text", "write_report", "ReportValueError", "SCHEMA"]


class ReportValueError(ValueError):
    """A report value JSON cannot carry: a NaN, in the field at `path`."""

    def __init__(self):
        super().__init__()
        self.path = []

    def __str__(self):
        return f"report field {'.'.join(self.path)} is NaN"


def jsonify(obj):
    """Recursively convert to JSON-ready values; complex -> [re, im].

    A NaN raises ReportValueError naming its field.  Infinities stay:
    [Infinity, 0.0] encodes the end at infinity.
    """
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x:
            raise ReportValueError()
        return x
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            try:
                out[str(k)] = jsonify(v)
            except ReportValueError as exc:
                exc.path.insert(0, str(k))
                raise
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, v in enumerate(obj):
            try:
                out.append(jsonify(v))
            except ReportValueError as exc:
                exc.path.insert(0, str(i))
                raise
        return out
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        if z != z:
            raise ReportValueError()
        re = math.inf if math.isinf(z.real) else z.real
        return [re, z.imag]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def report_text(payload: dict) -> str:
    """The schema-stamped, sorted-keys JSON text of a report."""
    body = {"schema": SCHEMA}
    body.update(jsonify(payload))
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def write_report(payload: dict, path) -> Path:
    """Write the report text of payload to path."""
    path = Path(path)
    text = report_text(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
