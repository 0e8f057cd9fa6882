"""JSON report serialization: complex numbers as [re, im], arrays as lists.

Reports are diffable fixtures: no timestamps, and the same inputs produce
byte-identical files.  The text of a report is, byte for byte,

    json.dumps({"schema": SCHEMA, **jsonify(payload)}, sort_keys=True, indent=2) + "\n"

so keys are sorted, the indent is 2, strings and keys keep `json`'s
ensure_ascii escaping, and a float is written as float.__repr__ writes it.
Infinity stays: [Infinity, 0.0] encodes the end at infinity.  A NaN is
refused with a ReportValueError that names its field.

A table of rows reached through the report's dicts is written column by
column into one `%` template: with an indent, `json` encodes in pure
Python, which would be most of the time of a report of thousands of rows.
A table is a Table, {name: column} with a float array or a sequence of str
per name (a scan's points), or a list of row dicts (a suite's results),
which is split into its columns.  Within a column each distinct value is
formatted once, and each row takes its text from there.  A list of row
dicts takes the template only if every row has the first row's keys and
each leaf has the first row's exact type there (float, int, bool, str or
None, or a flat list or tuple of these, of one length).  Any other list,
and everything else, goes through jsonify and json.dumps, which expands a
Table to its row dicts.
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

__all__ = ["Table", "jsonify", "report_text", "write_report", "overwrite", "ReportValueError",
           "SCHEMA"]


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
    """A list of row dicts held as its columns, {name: column}: a column is
    a float array, one value per row (1-D) or a fixed-length list per row
    (2-D), or a sequence of str.  jsonify expands it to its rows."""

    def __init__(self, columns: dict):
        self.columns = dict(columns)
        if len(set(map(len, self.columns.values()))) > 1:
            raise ValueError("the columns of a table differ in length")

    def rows(self) -> list:
        values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
                  for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*values)]


# the leaves a template row may hold: values of these exact types, or flat
# lists or tuples of them
_SCALARS = (float, int, bool, str, type(None))
_LITERALS = {True: "true", False: "false", None: "null"}
_INFINITIES = {"inf": "Infinity", "-inf": "-Infinity"}


def _dumps(obj, pad: str) -> str:
    """The json.dumps text of jsonify(obj), for a value whose lines sit at
    the indentation pad."""
    return json.dumps(jsonify(obj), sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _is_rows(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) > 0 and isinstance(obj[0], dict)


def _holds_rows(obj) -> bool:
    return isinstance(obj, Table) or _is_rows(obj) \
        or isinstance(obj, dict) and any(map(_holds_rows, obj.values()))


def _text(obj, pad: str) -> str:
    """The report text of obj at the indentation pad: a dict that holds row
    lists key by key, a Table or a row list by _columns_text, anything else
    by _dumps."""
    if isinstance(obj, Table):
        return _columns_text(obj.columns, pad) or _dumps(obj, pad)
    if _is_rows(obj):
        return _rows_text(obj, pad)
    if not (isinstance(obj, dict) and _holds_rows(obj)):
        return _dumps(obj, pad)
    items = {str(k): v for k, v in obj.items()}
    inner = pad + "  "
    return "{\n" + ",\n".join(f"{inner}{_quote(k)}: {_text(items[k], inner)}"
                               for k in sorted(items)) + "\n" + pad + "}"


def _rows_text(rows, pad: str) -> str:
    """The text of a list of row dicts at the indentation pad: their columns
    by _columns_text when each row is a dict with the first row's keys,
    else _dumps."""
    first = rows[0]
    shape = first.keys() if type(first) is dict else ()
    if shape and set(map(type, rows)) == {dict} and all(map(shape.__eq__, map(dict.keys, rows))):
        text = _columns_text({k: list(map(itemgetter(k), rows)) for k in shape}, pad)
        if text is not None:
            return text
    return _dumps(rows, pad)


def _columns_text(columns: dict, pad: str):
    """The text at the indentation pad of the rows that columns hold, from
    one template, or None when a column does not fit it.  A column fits
    when it holds a leaf per row, each of one exact type (float, int,
    bool, str or None; a float array), or a list or tuple of such leaves
    per row, of one type and length (a 2-D array)."""
    count = len(next(iter(columns.values()), ()))
    if not count or not all(type(k) is str for k in columns):
        return None
    row_pad, key_pad = pad + "  ", pad + "    "
    texts, fields = [], []  # one text column per %s of the template
    for k in sorted(columns):
        column = columns[k]
        if isinstance(column, np.ndarray):
            parts = list(column.T) if column.ndim == 2 else None
        elif type(column[0]) in (list, tuple):
            kind, n = type(column[0]), len(column[0])
            if set(map(type, column)) != {kind} or set(map(len, column)) != {n}:
                return None
            parts = list(zip(*column))
        else:
            parts = None
        field = f"{key_pad}{_quote(k).replace('%', '%%')}: "
        if parts is None:
            texts.append(_leaf_texts(column))
            fields.append(field + "%s")
        else:
            texts += map(_leaf_texts, parts)
            fields.append(field + ("[\n" + ",\n".join([key_pad + "  %s"] * len(parts)) + "\n"
                                   + key_pad + "]" if parts else "[]"))
    if None in texts:
        return None
    template = row_pad + "{\n" + ",\n".join(fields) + "\n" + row_pad + "}"
    leaves = tuple(chain.from_iterable(zip(*texts)))
    return "[\n" + ",\n".join([template] * count) % leaves + "\n" + pad + "]"


def _leaf_texts(column):
    """json's text of each leaf of column, each distinct value formatted
    once, or None unless every leaf has the first one's type and that is a
    template leaf type, or column is a 1-D float array."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind == "f":
        return _float_texts(column)
    kind = type(column[0])
    if kind not in _SCALARS or set(map(type, column)) != {kind}:
        return None
    if kind is float:
        return _float_texts(np.array(column))
    text = _quote if kind is str else repr if kind is int else _LITERALS.__getitem__
    texts = {v: text(v) for v in set(column)}
    return list(map(texts.__getitem__, column))


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
