"""Artifact I/O: every table and JSON file the package writes or reads.

CSV text is built only by write_table, JSON text only by dump_json and JSON
is parsed only by read_json, so the number format, the line layout and the
error raised for a bad file are decided here once.

write_table formats a table of at least TABLE_KERNEL_CELLS float cells in
numpy (_table_text), to the bytes that float.__repr__ and str give each
cell. float.__repr__ writes the shortest decimal that reads back to the
double, the nearest one if several are that short. The kernel finds it by
exact decimal conversion in the way of Clinger ("How to read floating point
numbers accurately", PLDI 1990) and Steele & White ("How to print
floating-point numbers accurately", PLDI 1990), on x87's 80-bit long double
(_shortest):
- For 1e-10 <= |x| < 1e16, v = |x| * 10**k lies in [1e16, 1e17) for one k
  from 1 to 26. 10**k is exact in a long double, so the long-double product
  rounds v once, to a grid of spacing at most 2**-7 that holds every N + 1/2.
  So rint gives the nearest integer N to v unless the product is exactly
  N + 1/2, and the product less N has the sign of v - N unless it is 0.
- The n-digit candidate is N rounded to n digits; where N's dropped digits
  are exactly 5000..., the sign of v - N decides. At 15 digits or fewer
  such a tie cannot matter: both candidates are at least 50 units of v away,
  and half a unit in the last place of x is below 11.1.
- A candidate reads back to x when its long-double value c * 10**p, again
  one rounding, casts to x; the cast's second rounding is exact unless the
  long double is a midpoint between two doubles (low 11 bits 0x400).
- Where the rounding interval of x is symmetric, a candidate of n + 1
  digits is no farther from v than one of n digits, so reading back holds
  for every length from 17 down to the shortest. The lengths are tried from
  16 down, and the search stops at the first that fails.
- A cell is left to float.__repr__ when this does not hold or does not
  decide: zero, a non-finite value, a power of two (whose interval is not
  symmetric), |x| outside [1e-10, 1e16), a candidate on a double midpoint,
  an unresolved tie of 16 digits, and a 17-digit answer whose product is
  exactly N + 1/2.
Below TABLE_KERNEL_CELLS float cells a table is formatted cell by cell,
because the kernel's fixed cost of about 0.2 ms a column is then more than
float.__repr__'s 0.8-1 us a cell saves.
"""

from __future__ import annotations

import json
import os

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


# A table with at least this many float cells is formatted by _table_text:
# above the float-cell count at which the kernel breaks even with
# float.__repr__ on tables of one to three float columns.
TABLE_KERNEL_CELLS = 2048


def write_table(path, header, columns) -> None:
    """Write a headered CSV with one row per entry of the equal-length columns.

    Integer columns are written with str(int), every other column as
    format_float writes it, so each float reads back bit for bit. A table of
    at least TABLE_KERNEL_CELLS float cells, the rule reading that count
    alone, is formatted by the numpy kernel of the module docstring, to the
    same bytes; a smaller one, or any table where the long double is not
    x87's, cell by cell.
    """
    values = [np.asarray(column) for column in columns]
    if len(header) != len(values) or len({v.shape[0] for v in values}) > 1:
        raise ValueError("a table needs one header cell per column and equal-length columns")
    floats = [v.astype(float, copy=False) if v.dtype.kind not in "iu" else None for v in values]
    n_float = sum(f.size for f in floats if f is not None)
    if _X87_LONG_DOUBLE and n_float >= TABLE_KERNEL_CELLS:
        body = _table_text(values, floats)
    else:
        cells = [list(map(float.__repr__, f.tolist())) if f is not None
                 else list(map(str, v.tolist())) for v, f in zip(values, floats)]
        body = "".join(",".join(row) + "\n" for row in zip(*cells))
    atomic_write_text(path, ",".join(header) + "\n" + body)


# ---------------------------------------------------------------------------
# The table kernel

# The kernel reads the bits of x87's 80-bit long double: a 64-bit significand
# stored little-endian in the low 8 of 16 bytes.
_X87_LONG_DOUBLE = (np.finfo(np.longdouble).nmant == 63
                    and np.dtype(np.longdouble).itemsize == 16 and np.little_endian)


# 10**0 to 10**27 as long doubles, each exact: 10**27 = 2**27 * 5**27 and 5**27 < 2**64.
_TENS = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_U64_TENS = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# The kernel's range: |x| in [1e-10, 1e16), where 16 - floor(log10|x|) is 1 to 26.
_KERNEL_LOW, _KERNEL_HIGH = 1e-10, 1e16
_SIGNIFICAND = np.uint64((1 << 52) - 1)
# Each cell's text is gathered from a source row of 40 bytes by a template,
# a list of indices into it that depends on the cell's key. The row holds 24
# text bytes (20 ASCII digits, or float.__repr__'s text for a cell the kernel
# left to it) and then the 16 bytes of _CONSTANTS; _PAD picks a 0 byte, and
# 0 bytes are dropped from the table.
_CONSTANTS = np.frombuffer(b"\0-.e0123456789\0\0", np.uint32)
_PAD, _MINUS, _DOT, _E, _ZERO = range(24, 29)
_SOURCE = 40
# Four ASCII digits of 0 to 9999, as one little-endian uint32 each.
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()


def _sources(u) -> np.ndarray:
    """Source rows whose text is the uint64 values u as 20 ASCII digits."""
    words = np.zeros((u.size, _SOURCE // 4), np.uint32)
    for j in range(4, 0, -1):
        quotient = u // 10000
        words[:, j] = _QUADS[u - quotient * 10000]
        u = quotient
    words[:, 0] = _QUADS[u]
    words[:, 6:] = _CONSTANTS
    return words.view(np.uint8)


def _gather(source, keys, template) -> np.ndarray:
    """Each cell's text, padded with 0 bytes: template(keys[i]) of source[i]."""
    present = np.flatnonzero(np.bincount(keys)).tolist()
    rows = [template(key) for key in present]
    table = np.full((present[-1] + 1, max(map(len, rows))), _PAD, np.intp)
    for key, row in zip(present, rows):
        table[key, :len(row)] = row
    index = np.take(table, keys, axis=0)
    index += (np.arange(keys.size) * _SOURCE)[:, None]
    return source.ravel().take(index)


def _table_text(values, floats) -> str:
    """The body rows of write_table."""
    parts = []
    for v, f in zip(values, floats):
        parts.append(_int_cells(v) if f is None else _float_cells(f))
        parts.append(np.full((v.shape[0], 1), ord(","), np.uint8))
    parts[-1][:] = ord("\n")
    table = np.concatenate(parts, axis=1)
    return table[table != 0].tobytes().decode("ascii")


def _int_template(key):
    n, negative = key >> 1, key & 1
    return [_MINUS] * negative + list(range(20 - n, 20))


def _int_cells(v):
    """The text of an integer column, str(int) of each cell."""
    negative = v < 0
    magnitude = v.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    n = np.searchsorted(_U64_TENS[1:], magnitude, side="right") + 1
    return _gather(_sources(magnitude), n * 2 + negative, _int_template)


# Keys of float cells: a cell left to float.__repr__ has the length of its
# text, 1 to 24; a certified cell has _FLOAT_KEYS plus its sign, digit count
# and decimal point position (see _float_template).
_FLOAT_KEYS = 25
_POINT_LOW = -9  # the lowest decimal point position in the kernel's range


def _float_template(key):
    if key < _FLOAT_KEYS:
        return list(range(key))
    key -= _FLOAT_KEYS
    negative, key = key & 1, key >> 1
    n, point = key % 18, key // 18 + _POINT_LOW
    digits = list(range(3, 3 + n))  # a 17-digit value's digits sit at 3 to 19
    row = [_MINUS] * negative
    if point <= -4:
        exponent = [_ZERO + int(c) for c in f"{1 - point:02d}"]
        row += digits[:1] + ([_DOT] + digits[1:] if n > 1 else []) + [_E, _MINUS] + exponent
    elif point <= 0:
        row += [_ZERO, _DOT] + [_ZERO] * -point + digits
    elif point < n:
        row += digits[:point] + [_DOT] + digits[point:]
    else:
        row += digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    return row


def _float_cells(f):
    """The text of a float64 column, float.__repr__ of each cell."""
    cells, digits, n, point = _shortest(f)
    block = np.zeros(f.size, np.uint64)
    block[cells] = digits
    source = _sources(block)
    keys = np.empty(f.size, np.intp)
    keys[cells] = _FLOAT_KEYS + ((point - _POINT_LOW) * 18 + n) * 2 + (f[cells] < 0)
    rest = np.ones(f.size, bool)
    rest[cells] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        texts = [float.__repr__(x).encode() for x in f[rest].tolist()]
        keys[rest] = list(map(len, texts))
        text = np.frombuffer(b"".join(t.ljust(24, b"\0") for t in texts), np.uint8)
        source[rest, :24] = text.reshape(-1, 24)
    return _gather(source, keys, _float_template)


def _shortest(x):
    """float.__repr__'s digits for the float64 values x that the kernel can certify.

    Returns (cells, digits, n, point): the indices of those values in x, their
    shortest digit strings as 17-digit integers (the string's digits followed by
    zeros), the number of digits, and the decimal point's position (the value
    is 0.d1d2...dn times 10**point).
    """
    a = np.abs(x)
    cells = np.flatnonzero((a >= _KERNEL_LOW) & (a < _KERNEL_HIGH)
                           & (x.view(np.uint64) & _SIGNIFICAND != 0))
    a = a[cells]
    exp = np.floor(np.log10(a)).astype(np.intp)
    wide = a.astype(np.longdouble)
    scaled = wide * _TENS[16 - exp]
    rough = scaled.astype(float)
    off = np.flatnonzero((rough < 1e16) | (rough >= 1e17))  # log10 missed a power of ten
    if off.size:
        exp[off] -= rough[off] < 1e16
        exp[off] += rough[off] >= 1e17
        scaled[off] = wide[off] * _TENS[16 - exp[off]]
    nearest = np.rint(scaled)
    frac = (scaled - nearest).astype(float)
    seventeen = nearest.astype(np.uint64)
    ok = (seventeen >= _U64_TENS[16]) & (seventeen < _U64_TENS[17])
    digits = seventeen.copy()
    n = np.full(cells.size, 17)
    live = np.flatnonzero(ok)
    for m in range(1, 17):
        if live.size == 0:
            break
        head = seventeen[live]
        quotient = head // _U64_TENS[m]
        rest = head - quotient * _U64_TENS[m]
        half = 5 * _U64_TENS[m - 1]
        tie = rest == half
        up = (rest > half) | (tie & (frac[live] > 0))
        unsure = tie & (frac[live] == 0) if m == 1 else False
        short = quotient + up
        p = exp[live] - 16 + m
        value = short.astype(np.longdouble)
        if p.max() > 0:
            value *= _TENS[np.maximum(p, 0)]
        value /= _TENS[np.maximum(-p, 0)]
        midpoint = (value.view(np.uint64)[::2] & 0x7FF) == 0x400
        unsure |= midpoint
        ok[live[unsure]] = False
        fits = (value.astype(float) == a[live]) & ~unsure
        live = live[fits]
        digits[live] = short[fits] * _U64_TENS[m]
        n[live] = 17 - m
    ok &= (n < 17) | (np.abs(frac) != 0.5)
    carry = digits >= _U64_TENS[17]
    digits[carry] //= 10
    exp += carry
    keep = np.flatnonzero(ok)
    return cells[keep], digits[keep], n[keep], exp[keep] + 1


def _plain(value):
    """json.dumps hook: numpy arrays become lists and numpy scalars Python numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dump_json(path, payload) -> None:
    """Deterministic JSON file: sorted keys, two-space indent, trailing newline;
    json.dumps(payload, indent=2, sort_keys=True, default=_plain)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")


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
