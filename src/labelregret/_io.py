"""Artifact I/O: every table and JSON file the package writes or reads.

CSV text is built only by write_table, JSON text only by dump_json and JSON
is parsed only by read_json, so the number format, the line layout and the
error raised for a bad file are decided here once. dump_json writes the bytes
of json.dumps(payload, indent=2, sort_keys=True) through a small recursive
writer: with an indent, json.dumps runs its pure-Python encoder, one call per
value, while the writer formats a finite float64 vector in one join of float
reprs and hands json.dumps only what it does not handle itself.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from . import errors


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename; never leaves partial files.

    The file gets the mode that open(path, "w") gives a new file, 0o666 less
    the umask, as the temp file is created with it; tempfile.mkstemp would
    create it owner-only, and the rename keeps the temp file's mode.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
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

    Integer columns are written with str(int), every other column as
    format_float writes it, so each float reads back bit for bit.
    """
    cells = []
    for column in columns:
        values = np.asarray(column)
        if values.dtype.kind in "iu":
            cells.append(list(map(str, values.tolist())))
        else:  # format_float without a Python frame per cell
            cells.append(list(map(float.__repr__, values.astype(float, copy=False).tolist())))
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
    """Deterministic JSON file: sorted keys, two-space indent, trailing newline;
    the text of json.dumps(payload, indent=2, sort_keys=True, default=_plain)."""
    atomic_write_text(path, _render(payload, "") + "\n")


def _render(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True, default=_plain), written at
    an indentation of pad. Non-finite floats, objects with a key that is not a
    string, and types not handled here go to json.dumps itself; its only line
    breaks are those of its indent, so pad is added after each of them."""
    if isinstance(value, (np.ndarray, np.generic)):
        if value.ndim == 1 and value.dtype == np.float64 and np.isfinite(value).all():
            return _bracketed("[", map(float.__repr__, value.tolist()), "]", pad)
        value = value.tolist()
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return _bracketed("[", (_render(item, inner) for item in value), "]", pad)
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return _bracketed("{", (f"{encode_basestring_ascii(key)}: {_render(value[key], inner)}"
                                for key in sorted(value)), "}", pad)
    text = json.dumps(value, indent=2, sort_keys=True, default=_plain)
    return text.replace("\n", "\n" + pad)


def _bracketed(opening: str, items, closing: str, pad: str) -> str:
    """The rendered items, one per line at pad plus two spaces, between the
    brackets; the bare brackets when there are none."""
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    return f"{opening}\n{inner}{body}\n{pad}{closing}" if body else opening + closing


# A schema maps each key of a JSON object to the kind its value must have: a
# type or tuple of types, [kind] for an array of that kind, or a nested schema
# for a nested object. A key whose kind is a tuple holding NoneType may be absent;
# (nested schema, NoneType) is an optional nested object.
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
    if isinstance(kind, tuple) and isinstance(kind[0], dict):
        if value is None:
            return
        kind = kind[0]
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
