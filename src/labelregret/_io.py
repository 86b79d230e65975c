"""Artifact I/O: every table and JSON file the package writes or reads.

CSV text is built only by write_table and JSON is parsed only by read_json,
so the number format, the line layout and the error raised for a bad file
are decided here once.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import errors


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename; never leaves partial files."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to the same float64."""
    return repr(float(x))


def write_table(path, header, columns) -> None:
    """Write a headered CSV with one row per entry of the equal-length columns.

    Integer columns are written with str(int), every other column with
    format_float, so each float reads back bit for bit.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        fmt = str if values.dtype.kind in "iu" else format_float
        cells.append(list(map(fmt, values.tolist())))
    if len(header) != len(cells) or len({len(c) for c in cells}) > 1:
        raise ValueError("a table needs one header cell per column and equal-length columns")
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _plain(value):
    """json.dumps hook: numpy arrays become lists and numpy scalars Python numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dump_json(path, payload) -> None:
    """Deterministic JSON file: sorted keys, two-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=_plain) + "\n")


# A schema maps each key of a JSON object to the kind its value must have: a
# type or tuple of types, [kind] for an array of that kind, or a nested schema
# for a nested object. A key whose kind is a tuple holding NoneType may be absent.
NUMBER = (int, float)


def read_json(path, schema: dict | None = None) -> dict:
    """The JSON object in path, checked against schema when one is given.

    A file that is not valid JSON, does not hold an object, lacks a required
    key or has a value of the wrong kind raises errors.BadJsonFile naming the
    file and the key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise errors.BadJsonFile(path, None, f"is not valid JSON ({exc})") from None
    _check_kind(path, None, payload, schema or {})
    return payload


def _check_kind(path, key, value, kind) -> None:
    if isinstance(kind, (dict, list)):
        expected, types = ("an object", dict) if isinstance(kind, dict) else ("an array", list)
    else:
        types = kind if isinstance(kind, tuple) else (kind,)
        expected = " or ".join(t.__name__ for t in types)
    # bool is an int subclass, but true/false is never a number here
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise errors.BadJsonFile(path, key, f"must be {expected}, not {type(value).__name__}")
    if isinstance(kind, list):
        for i, item in enumerate(value):
            _check_kind(path, f"{key}[{i}]", item, kind[0])
    elif isinstance(kind, dict):
        for name, sub in kind.items():
            where = name if key is None else f"{key}.{name}"
            if name in value:
                _check_kind(path, where, value[name], sub)
            elif not (isinstance(sub, tuple) and type(None) in sub):
                raise errors.BadJsonFile(path, where, "is missing")
