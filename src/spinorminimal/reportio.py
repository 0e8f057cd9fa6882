"""JSON report serialization: complex numbers as [re, im], arrays as lists.

Reports are diffable fixtures: no timestamps, and the same inputs produce
byte-identical files.  The text of a report is, byte for byte,

    json.dumps({"schema": SCHEMA, **jsonify(payload)}, sort_keys=True, indent=2) + "\n"

so keys are sorted, the indent is 2, strings and keys keep `json`'s
ensure_ascii escaping, and a float is written as float.__repr__ writes it.
Infinity stays: [Infinity, 0.0] encodes the end at infinity.  A NaN is
refused with a ReportValueError that names its field.

Lists of row dicts (a scan's points, a suite's results) reached through the
report's dicts are written from one `%` template built from the first row:
with an indent, `json` encodes in pure Python, which would be most of the
time of a report of thousands of rows.  A
list takes the template only if every row has the first row's keys and
each leaf has the first row's exact type there (float, int, bool, str or
None, or a flat list or tuple of these, of one length).  Any other list,
and everything else, goes through jsonify and json.dumps.
"""

from __future__ import annotations

import json
import math
import os
import stat
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path

import numpy as np

SCHEMA = "spinor-minimal/1"

__all__ = ["jsonify", "report_text", "write_report", "overwrite", "ReportValueError", "SCHEMA"]


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


# the leaves a template row may hold: values of these exact types, or flat
# lists or tuples of them
_SCALARS = (float, int, bool, str, type(None))
_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(obj, pad: str) -> str:
    """The json.dumps text of jsonify(obj), for a value whose lines sit at
    the indentation pad."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _is_rows(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) > 0 and isinstance(obj[0], dict)


def _holds_rows(obj) -> bool:
    return _is_rows(obj) or isinstance(obj, dict) and any(map(_holds_rows, obj.values()))


def _text(obj, pad: str) -> str:
    """The report text of obj at the indentation pad: a dict that holds row
    lists key by key, a row list by _rows_text, anything else by _dumps."""
    if _is_rows(obj):
        return _rows_text(obj, pad)
    if not (isinstance(obj, dict) and _holds_rows(obj)):
        return _dumps(obj, pad)
    items = {str(k): v for k, v in obj.items()}
    inner = pad + "  "
    return "{\n" + ",\n".join(f"{inner}{_quote(k)}: {_text(items[k], inner)}"
                               for k in sorted(items)) + "\n" + pad + "}"


def _finite(x: float):
    """x itself when finite, json's text for an infinity; a NaN raises."""
    if x != x:
        raise ReportValueError()
    return x if x - x == 0 else ("Infinity" if x > 0 else "-Infinity")


def _rows_text(rows, pad: str) -> str:
    """The text of a list of row dicts at the indentation pad: one template,
    built from the first row, filled from a flat tuple of every row's leaves
    when each row has the first row's keys and leaf types, else _dumps."""
    first = rows[0]
    shape = first.keys() if type(first) is dict else ()
    if not (shape and all(type(k) is str for k in shape) and set(map(type, rows)) == {dict}
            and all(map(shape.__eq__, map(dict.keys, rows)))):
        return _dumps(rows, pad)
    row_pad, key_pad = pad + "  ", pad + "    "
    columns, fields = [], []  # one column per %s of the template
    for k in sorted(shape):
        column = list(map(itemgetter(k), rows))
        kind = type(column[0])
        field = f"{key_pad}{_quote(k).replace('%', '%%')}: "
        if kind is list or kind is tuple:
            n = len(column[0])
            if set(map(type, column)) != {kind} or set(map(len, column)) != {n}:
                return _dumps(rows, pad)
            columns += zip(*column)
            field += ("[\n" + ",\n".join([key_pad + "  %s"] * n) + "\n" + key_pad + "]"
                      if n else "[]")
        else:
            columns.append(column)
            field += "%s"
        fields.append(field)
    for j, column in enumerate(columns):
        kind = type(column[0])
        if kind not in _SCALARS or set(map(type, column)) != {kind}:
            return _dumps(rows, pad)
        # %s writes a float as float.__repr__ and an int as int.__repr__,
        # which are json's texts; a sum that is not finite flags an infinity
        # or a NaN (or finite floats whose sum overflows)
        if kind is float:
            total = sum(column)
            if total - total != 0:
                columns[j] = list(map(_finite, column))
        elif kind is str:
            columns[j] = list(map(_quote, column))
        elif kind is not int:
            columns[j] = list(map(_LITERALS.__getitem__, column))
    template = row_pad + "{\n" + ",\n".join(fields) + "\n" + row_pad + "}"
    leaves = tuple(chain.from_iterable(zip(*columns)))
    return "[\n" + ",\n".join([template] * len(rows)) % leaves + "\n" + pad + "]"


def report_text(payload: dict) -> str:
    """The schema-stamped, sorted-keys JSON text of a report."""
    try:
        return _text({"schema": SCHEMA, **payload}, "") + "\n"
    except ReportValueError:
        # a NaN: jsonify names the first one in the payload's own order
        jsonify(payload)
        raise


def write_report(payload: dict, path) -> Path:
    """Write the report text of payload to path, over its old bytes (see
    overwrite).  The text is made first, so a NaN leaves path untouched."""
    return overwrite(path, (report_text(payload).encode("ascii"),))


def overwrite(path, chunks) -> Path:
    """Write the byte chunks to path, made with its directory if absent,
    over an existing file's bytes in place: a truncating open frees the old
    blocks, and a filesystem may then discard them and flush on close.
    A regular file is then cut at the end of the new bytes, also when an
    exception escapes from chunks, so no old tail stays; any other target
    (/dev/null, a pipe) is written as it is.  The file keeps its inode,
    mode and links, and a symlink is written through."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            if regular:
                fh.truncate()
    return path
