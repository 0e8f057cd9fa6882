"""JSON report serialization: complex numbers as [re, im], arrays as lists.

Reports are diffable fixtures: no timestamps, and the same inputs produce
byte-identical files.  The text of a report is, byte for byte,

    json.dumps({"schema": SCHEMA, **jsonify(payload)}, sort_keys=True, indent=2) + "\n"

so keys are sorted, the indent is 2, strings and keys keep `json`'s
ensure_ascii escaping, and a float is written as float.__repr__ writes it.
Infinity stays: [Infinity, 0.0] encodes the end at infinity.  A NaN is
refused with a ReportValueError that names its field.

A Table reached through the report's dicts, {name: column} with a float
array or a list of str per name (a scan's points), is written column by
column into one `%` template: with an indent, `json` encodes in pure
Python, which would be most of the time of a report of thousands of rows.
Within a column each distinct value is formatted once, and each row takes
its text from there.  Only a Table is templated: a list of row dicts (a
suite's results), a Table with any other column, and everything else go
through jsonify and json.dumps, which expands a Table to its row dicts.

A CheckResult is one verdict on a residual: a construction's checks() and
the acceptance gate's rows.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

SCHEMA = "spinor-minimal/1"

__all__ = ["Table", "jsonify", "report_text", "write_report", "overwrite", "ReportValueError",
           "SCHEMA", "CheckResult", "check"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}: {self.value:.3e} (tol {self.tol:.1e}){extra}"


def check(name, value, bound, detail="", invert=False) -> CheckResult:
    """The verdict value <= bound, or value > bound when invert; a NaN fails either."""
    value = float(value)
    ok = value > bound if invert else value <= bound
    op = ">" if invert else "<="
    return CheckResult(name=name, passed=ok, value=value, tol=bound,
                       detail=detail or f"require {op} tol")


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
    if isinstance(obj, Table):
        return jsonify(obj.rows())
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


class Table:
    """A list of row dicts held as its columns, {name: column}, the one
    value a report writes from a template: a column is a float array, one
    value per row (1-D) or a fixed-length list per row (2-D), or a list of
    str.  jsonify expands it to its rows, and a Table with another column
    is written through them."""

    def __init__(self, columns: dict):
        self.columns = dict(columns)
        if len(set(map(len, self.columns.values()))) > 1:
            raise ValueError("the columns of a table differ in length")

    def rows(self) -> list:
        values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
                  for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


def _dumps(obj, pad: str) -> str:
    """The json.dumps text of jsonify(obj), for a value whose lines sit at
    the indentation pad."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _holds_table(obj) -> bool:
    return isinstance(obj, Table) \
        or isinstance(obj, dict) and any(map(_holds_table, obj.values()))


def _text(obj, pad: str) -> str:
    """The report text of obj at the indentation pad: a dict that holds a
    Table key by key, a Table by _columns_text, anything else by _dumps."""
    if isinstance(obj, Table):
        return _columns_text(obj.columns, pad) or _dumps(obj, pad)
    if not (isinstance(obj, dict) and _holds_table(obj)):
        return _dumps(obj, pad)
    items = {str(k): v for k, v in obj.items()}
    inner = pad + "  "
    return "{\n" + ",\n".join(f"{inner}{_quote(k)}: {_text(items[k], inner)}"
                               for k in sorted(items)) + "\n" + pad + "}"


def _columns_text(columns: dict, pad: str):
    """The text at the indentation pad of the rows that columns hold, from
    one template, or None when a column does not fit it.  A column fits
    when it is a float array, 1-D or 2-D, or a list of str."""
    count = len(next(iter(columns.values()), ()))
    if not count or not all(type(k) is str for k in columns):
        return None
    row_pad, key_pad = pad + "  ", pad + "    "
    texts, fields = [], []  # one text column per %s of the template
    for k in sorted(columns):
        column = columns[k]
        field = f"{key_pad}{_quote(k).replace('%', '%%')}: "
        floats = isinstance(column, np.ndarray) and column.dtype.kind == "f"
        if floats and column.ndim == 2:
            texts += map(_float_texts, column.T)
            slots = ",\n".join([key_pad + "  %s"] * column.shape[1])
            fields.append(field + (f"[\n{slots}\n{key_pad}]" if slots else "[]"))
            continue
        if floats and column.ndim == 1:
            texts.append(_float_texts(column))
        elif isinstance(column, list) and all(type(v) is str for v in column):
            quoted = {v: _quote(v) for v in set(column)}
            texts.append(list(map(quoted.__getitem__, column)))
        else:
            return None
        fields.append(field + "%s")
    template = row_pad + "{\n" + ",\n".join(fields) + "\n" + row_pad + "}"
    leaves = tuple(chain.from_iterable(zip(*texts)))
    return "[\n" + ",\n".join([template] * count) % leaves + "\n" + pad + "]"


_INFINITIES = {"inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(x: np.ndarray) -> list:
    """float.__repr__ of each value of the 1-D float array x, Infinity and
    -Infinity for the infinities, each distinct value formatted once; a NaN
    raises.  The values are told apart by their bits, so -0.0 keeps its
    sign, which np.unique of the floats would fold into 0.0."""
    bits, inverse = np.unique(x.astype(float, copy=False).view(np.int64), return_inverse=True)
    values = bits.view(float)
    if np.isnan(values).any():
        raise ReportValueError()
    texts = [_INFINITIES.get(t, t) for t in map(repr, values.tolist())]
    return np.array(texts, dtype=object).take(inverse).tolist()


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
