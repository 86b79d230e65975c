"""Dataset ingestion, label drawing, and semi-synthetic datasets.

Labels live in {-1, +1} everywhere. CSV files may encode them as {0, 1}; the
loader maps 0 to -1. Semi-synthetic datasets pair real or generated features
with labels drawn from a known logistic ground truth, which is what makes the
true per-point resampling variance computable at all. semisynthetic_from_model
draws one from features and a model; harness.population_draw draws one from a
config, whose ground truth may be a fit to a CSV's labels.
"""

from __future__ import annotations

import csv
import io
import math
import re
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors, rng
from ._io import _X87_LONG_DOUBLE, NUMBER, dump_json, read_json, write_table
from .glm import LogisticModel, _freeze, _probabilities, predict_proba


def _default_names(d: int) -> tuple:
    return tuple(f"x{i}" for i in range(d))


@dataclass(frozen=True)
class Dataset:
    """An n-by-d feature matrix with one {-1,+1} label per row.

    The constructor copies the features and labels, checks the copies and
    freezes them read-only, so an instance can be shared freely and never
    changes after it is built.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self):
        X = _freeze(self, "features")
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise errors.EmptyDataset(
                f"features must be a non-empty 2-D matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature entries must be finite")
        y = _freeze(self, "labels", np.int64)
        if y.shape != (X.shape[0],):
            raise errors.DimensionMismatch(
                f"{X.shape[0]} rows but {y.size} labels")
        if not np.all(np.abs(y) == 1):
            raise errors.InvalidLabelValue(
                int(np.argmax(np.abs(y) != 1)), y[np.abs(y) != 1][0])
        names = tuple(self.feature_names) if self.feature_names else _default_names(X.shape[1])
        if len(names) != X.shape[1]:
            raise errors.DimensionMismatch(
                f"{X.shape[1]} feature columns but {len(names)} names")
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("feature names must be unique and non-empty")
        object.__setattr__(self, "feature_names", names)

    @property
    def n_points(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def with_labels(self, labels) -> "Dataset":
        """Same features and names, different labels."""
        return Dataset(self.features, labels, self.feature_names)


@dataclass(frozen=True)
class LabelDrawSeed:
    """Identifies one row of a master seed's label stream.

    (master_seed, stream_index, number of points, point index) fully
    determines each Bernoulli outcome, independent of evaluation order and of
    how many rows are drawn together. Stream 0 is the initial draw of a
    semi-synthetic dataset; resample k uses stream k.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        rng._check_seed(self.master_seed)
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be non-negative")


def draw_labels(probs, seed: LabelDrawSeed) -> np.ndarray:
    """Draw one {-1,+1} label per point, +1 with the given probability.

    The n labels at stream index k come from the row of n draws at index k of
    the master seed's label stream (rng.point_uniforms): point i is +1 when
    draw k*n + i falls below its probability, whatever else is drawn.
    """
    return _label_rows(_probabilities(probs), seed.master_seed, seed.stream_index, 1)[0]


def draw_label_rows(probs, master_seed: int, n_rows: int) -> np.ndarray:
    """n_rows x n matrix of {-1,+1} labels, one row per resample.

    The rows are those of stream indices 1 to n_rows, one Philox skip and one
    draw for all of them, so row k-1 is bit-identical to draw_labels(probs,
    LabelDrawSeed(master_seed, k)) and n_rows rows are the first rows of any
    longer batch. The probabilities are validated once for all rows. A
    negative n_rows raises ValueError.
    """
    return _label_rows(_probabilities(probs), master_seed, 1, n_rows)


def _label_rows(p: np.ndarray, master_seed: int, stream_index: int, n_rows: int) -> np.ndarray:
    """+1 where a label-stream uniform falls below p, else -1, as int64."""
    u = rng.point_uniforms(master_seed, rng.LABELS, stream_index, n_rows, p.size)
    labels = np.less(u, p, out=np.empty(u.shape, dtype=np.int64))  # 1 where u < p, else 0
    labels *= 2
    labels -= 1
    return labels


@dataclass(frozen=True)
class SemiSyntheticDataset:
    """Features plus labels drawn from a known logistic ground truth.

    Construction re-verifies that the stored labels regenerate exactly from
    the recorded seed and that true_probs match the ground-truth model.
    """

    base: Dataset
    true_probs: np.ndarray
    ground_truth: LogisticModel
    seed: LabelDrawSeed
    gt_ridge: Optional[float] = None  # ridge used when the ground truth was fit

    def __post_init__(self):
        p = _probabilities(_freeze(self, "true_probs"), self.base.n_points)
        model_probs = predict_proba(self.ground_truth, self.base.features)
        if np.max(np.abs(model_probs - p)) > 1e-12:
            raise ValueError("true_probs disagree with the ground-truth model")
        regenerated = draw_labels(p, self.seed)
        if not np.array_equal(regenerated, self.base.labels):
            raise ValueError("labels do not regenerate from the recorded seed")


def semisynthetic_from_model(features, ground_truth: LogisticModel,
                             seed: LabelDrawSeed, feature_names=None,
                             gt_ridge: Optional[float] = None) -> SemiSyntheticDataset:
    """Draw a semi-synthetic dataset from an explicit ground-truth model."""
    X = np.asarray(features, dtype=float)
    true_probs = predict_proba(ground_truth, X)
    labels = draw_labels(true_probs, seed)
    base = Dataset(X, labels, tuple(feature_names) if feature_names else ())
    return SemiSyntheticDataset(base, true_probs, ground_truth, seed, gt_ridge)


# ---------------------------------------------------------------------------
# built-in feature geometries


def two_cluster_population(n: int, *, p_high: float = 0.8):
    """Two point clusters at x2 = +1 and x2 = -1 with exact cluster probabilities.

    The ground truth is theta = (0, logit(p_high)), so every top-cluster point
    has true probability exactly p_high and every bottom-cluster point exactly
    1 - p_high. x1 spreads each cluster's points evenly over [-1, 1] to keep
    the feature matrix full rank. Returns (features, ground_truth).
    """
    if n < 4:
        raise ValueError("need at least 4 points (2 per cluster)")
    if not 0.5 < p_high < 1.0:
        raise ValueError("p_high must lie in (0.5, 1)")
    n_top = n // 2
    n_bot = n - n_top
    x1 = np.concatenate([np.linspace(-1.0, 1.0, n_top), np.linspace(-1.0, 1.0, n_bot)])
    x2 = np.concatenate([np.ones(n_top), -np.ones(n_bot)])
    features = np.column_stack([x1, x2])
    logit = math.log(p_high / (1.0 - p_high))
    return features, LogisticModel(np.array([0.0, logit]), includes_intercept=False)


def gaussian_features(n: int, d: int, master_seed: int) -> np.ndarray:
    """Standard-normal feature matrix, deterministic in the master seed."""
    return rng.substream(master_seed, rng.FEATURES, 0).standard_normal((n, d))


# ---------------------------------------------------------------------------
# CSV ingestion


# Line ends as a text file opened with newline="" splits at them.
_LINE_END = re.compile(rb"\r\n?|\n")
# numpy's float parser strips these ASCII separators around a number; float()
# rejects any cell that holds one.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The largest csv field size limit that a C long holds on every platform.
_NO_FIELD_LIMIT = 2**31 - 1
# The only bytes of a plain body's cells (see _plain_rows).
_PLAIN_CELL_BYTES = b"0123456789.eE+-"
# The biased x87 exponent of the smallest normal double, 2**-1022.
_MIN_NORMAL_EXPONENT = 16383 - 1022
# A plain body is parsed in pieces of whole lines, each the shortest run of
# at least this many bytes, which bounds the parse's temporaries.
_PIECE_BYTES = 1 << 18
# A body of at least this many bytes goes to _plain_rows, whose pieces are
# shared between the calling thread and one helper thread.
_SPLIT_BYTES = 1 << 20


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a headered CSV with one label column; all other columns numeric.

    Accepted input is UTF-8 text, one header record naming the columns, the
    label column exactly once (MissingLabelColumn otherwise), and then one
    record per line (ended by \\n, \\r\\n or a lone \\r), each with as
    many cells as the header. Blank lines are rejected. A cell may be
    double-quoted and padded with whitespace; it must hold a number that
    numpy's float parser reads, and every value must be finite. Label values
    must be -1, 0 or 1: 0 is mapped to -1, and -1 and +1 pass through.

    The data rows are parsed in one np.loadtxt call and checked as arrays.
    Only when that fails are the rows scanned once, with float() on each
    cell in row order, to raise the first error: NonNumericCell (row, column)
    for a short or long row, an unreadable or non-finite feature cell, and
    InvalidLabelValue (row) for a label outside {-1, 0, 1}.

    A cell that float() reads but numpy does not is rejected the same way
    (InvalidLabelValue in the label column): digit-group underscores such as
    1_0, non-ASCII digits, and a quoted cell holding a line break.

    A body of at least _SPLIT_BYTES (1 MiB) whose cells hold only digits,
    '.', 'e', 'E', '+' and '-', with every line ended by \\n, is parsed
    instead through np.longdouble, to the same doubles (_plain_rows): the
    calling thread and one helper thread each take the next 256 KiB piece of
    lines from a shared iterator until none is left, so the caller does not
    wait for a fixed half of the helper's. Each thread learns its piece's
    row count from the piece's byte check, so no pass counts the body's
    lines first, and parses the piece into a table of its own. Where that
    parse declines, for an unreadable cell, say, np.loadtxt parses the body,
    so every error is the one above; the check for ASCII separators runs
    only then, because the plain parse's byte check already rejects them.

    The rows, from the piece tables or np.loadtxt's table, are gathered into
    one feature matrix and one label vector, where finiteness and label
    values are checked; the Dataset constructor copies those once the tables
    are freed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = _text_lines(raw)
    reader = csv.reader(lines)
    header = next(_records(reader), None)
    if header is None:
        raise errors.EmptyDataset(f"{path} is empty")
    if label_column not in header:
        raise errors.MissingLabelColumn(
            f"column {label_column!r} not found in header {header}")
    copies = header.count(label_column)
    if copies > 1:  # a later copy would be read as a feature
        raise errors.MissingLabelColumn(
            f"column {label_column!r} appears {copies} times in header {header}")
    label_pos = header.index(label_column)
    feature_names = tuple(h for i, h in enumerate(header) if i != label_pos)
    if not feature_names:
        raise errors.EmptyDataset(f"{path} has no feature columns")
    start = _body_start(raw, reader.line_num)
    if start == len(raw):
        raise errors.EmptyDataset(f"{path} has a header but no data rows")
    try:
        features, labels = _parse_rows(raw, start, lines, len(header), label_pos)
    except ValueError:
        _raise_first_bad_cell(raw, header, label_pos)
        raise
    return Dataset(features, np.where(labels == 1.0, 1, -1), feature_names)


def _text_lines(raw: bytes):
    """raw decoded and split into lines as open(path, encoding="utf-8", newline="") does."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _body_start(raw: bytes, header_lines: int) -> int:
    """Byte offset just past the first header_lines lines of raw."""
    ends = [m.end() for _, m in zip(range(header_lines), _LINE_END.finditer(raw))]
    return ends[-1] if len(ends) == header_lines else len(raw)


def _parse_rows(raw: bytes, start: int, lines, n_columns: int, label_pos: int):
    """The data rows as (features, labels), a C-contiguous float matrix of
    every column but label_pos and a float vector of that one; ValueError
    unless every check passes.

    lines is positioned at the first data row, which starts at byte start.
    """
    if raw[start:start + 1] in (b"\r", b"\n"):  # loadtxt warns on a body of blank lines
        raise ValueError("blank first data line")
    tables = _plain_rows(raw, start, n_columns)
    if tables is None:  # a plain body holds no separator: its byte check rejects them
        if any(raw.find(sep, start) >= 0 for sep in _SEPARATORS):
            raise ValueError("ASCII separator character in the data rows")
        table = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2, comments=None,
                           quotechar='"')
        n_lines = raw.count(b"\n", start) + (not raw.endswith((b"\n", b"\r")))
        if raw.find(b"\r", start) >= 0:
            n_lines += raw.count(b"\r", start) - raw.count(b"\r\n", start)
        # loadtxt skips blank lines and joins quoted line breaks, so either
        # leaves fewer rows than lines
        if table.shape != (n_lines, n_columns):
            raise ValueError("blank line, quoted line break or wrong row length")
        tables = [table]
    features, labels = _split_label(tables, label_pos)
    if not np.isfinite(features).all():
        raise ValueError("non-finite feature")
    if not ((labels == 0.0) | (np.abs(labels) == 1.0)).all():  # rejects nan and inf too
        raise ValueError("label outside {-1, 0, 1}")
    return features, labels


def _split_label(tables: list, label_pos: int):
    """The rows of tables, in order, as a C-contiguous matrix of every
    column but label_pos and a vector of that one."""
    n_rows = sum(len(table) for table in tables)
    features = np.empty((n_rows, tables[0].shape[1] - 1))
    labels = np.empty(n_rows)
    end = 0
    for table in tables:
        row, end = end, end + len(table)
        features[row:end, :label_pos] = table[:, :label_pos]
        features[row:end, label_pos:] = table[:, label_pos + 1:]
        labels[row:end] = table[:, label_pos]
    return features, labels


def _plain_rows(raw: bytes, start: int, n_columns: int) -> Optional[list]:
    """The body from byte start as one table of n_columns doubles a line
    for each piece, in order, or None for a body shorter than _SPLIT_BYTES
    or one that the parse declines.

    This thread and one helper thread take the body's pieces from one shared
    iterator, each the next piece when it has parsed its last, so neither
    waits for the other at the end; numpy releases the GIL while it parses.
    A piece's row count is the number of lines that its byte check finds,
    so the body's lines are not counted beforehand. A ValueError in either
    thread declines; any other exception is raised here, once the helper
    has ended.
    """
    if not _X87_LONG_DOUBLE or len(raw) - start < _SPLIT_BYTES:
        return None
    bounds = [start]
    while bounds[-1] < len(raw):
        bounds.append(raw.find(b"\n", bounds[-1] + _PIECE_BYTES - 1) + 1 or len(raw))
    tables = [None] * (len(bounds) - 1)
    # An iterator over a list of tuples hands each piece to exactly one
    # thread: its next() runs in C under the GIL and allocates nothing. This
    # thread takes the first piece before the helper starts, so that with
    # two pieces or more each thread parses at least one.
    pieces = iter(list(zip(range(len(tables)), bounds, bounds[1:])))
    first = [next(pieces)]
    failures = []
    helper = threading.Thread(target=_parse_pieces,
                              args=(raw, pieces, n_columns, tables, failures))
    try:
        helper.start()
    except RuntimeError:  # no thread can be started: this one parses every piece
        helper = None
    _parse_pieces(raw, first, n_columns, tables, failures)
    _parse_pieces(raw, pieces, n_columns, tables, failures)
    if helper is not None:
        helper.join()
    for exc in failures:
        if not isinstance(exc, ValueError):
            raise exc
    return None if failures else tables


def _parse_pieces(raw: bytes, pieces, n_columns: int, tables: list, failures: list) -> None:
    """For each (index, start, end) piece of raw, taken from pieces one at a
    time, so that two threads can share one iterator, _parse_piece into a
    new table of n_columns doubles a line, put at tables[index]; ValueError for
    a piece that is not plain, that is, whose bytes other than
    _PLAIN_CELL_BYTES are not the commas and \\n of whole lines. The first
    exception, in this thread or the other, ends the loop; this thread's
    goes to failures, not to threading.excepthook."""
    try:
        line = b"," * (n_columns - 1) + b"\n"
        for index, start, end in pieces:
            if failures:  # the other thread has failed
                return
            piece = raw[start:end]
            rest = piece.translate(None, _PLAIN_CELL_BYTES)
            n_rows = len(rest) // n_columns
            if rest != line * n_rows:
                raise ValueError("not a plain piece")
            table = np.empty((n_rows, n_columns))
            _parse_piece(piece, table)
            tables[index] = table
    except BaseException as exc:
        failures.append(exc)


def _parse_piece(piece: bytes, out: np.ndarray) -> None:
    """Fill out, one row per line, with the cells of piece, plain lines,
    each the double that float() reads; ValueError if a cell is unreadable.

    strtold rounds a cell to the nearest 64-bit significand, and the cast
    rounds that to 53 bits. Every midpoint between two doubles, and the
    overflow threshold above the largest, has a 64-bit significand, and
    rounding is monotone, so the cast gives the double that float() gives
    unless strtold landed on a midpoint (low 11 bits 0x400) or below the
    normal doubles, where a double has fewer bits. Those cells are read
    again with float(), each from its own line.
    """
    values = np.fromstring(piece.replace(b"\n", b","), dtype=np.longdouble, sep=",")
    cells = out.reshape(-1)
    if values.size != cells.size:  # older numpy stops at an unreadable cell, with a warning
        raise ValueError("cell count")
    with np.errstate(over="ignore"):  # a cell beyond the doubles casts to inf, as float() reads it
        cells[...] = values
    words = values.view(np.uint64).reshape(-1, 2)  # significand, then sign and exponent
    significand, exponent = words[:, 0], words[:, 1] & 0x7FFF
    again = ((significand & 0x7FF) == 0x400) | ((exponent < _MIN_NORMAL_EXPONENT)
                                                & (significand != 0))
    if again.any():
        ends = np.flatnonzero(np.frombuffer(piece, np.uint8) == ord("\n")).tolist()
        for k in np.flatnonzero(again).tolist():
            row, column = divmod(k, out.shape[1])
            line = piece[ends[row - 1] + 1 if row else 0:ends[row]]
            cells[k] = float(line.split(b",")[column])


def _raise_first_bad_cell(raw: bytes, header, label_pos: int) -> None:
    """Raise the error of the first data row, in file order, that fails a check.

    Row lengths and float() decide the error and its row and column, so a
    file rejected for them fails here exactly as it always has. Only when
    none fails is the first cell raised that float() reads but np.loadtxt
    does not; returns only if there is none either. The csv module's field
    size limit is lifted for this scan, because np.loadtxt reads a cell of
    any length, so a long valid cell must not hide a later bad one.
    """
    limit = csv.field_size_limit(_NO_FIELD_LIMIT)
    try:
        _scan_rows(raw, header, label_pos)
    finally:
        csv.field_size_limit(limit)


def _scan_rows(raw: bytes, header, label_pos: int) -> None:
    """The rejection scan of _raise_first_bad_cell, under its field size limit."""
    reader = csv.reader(_text_lines(raw))
    next(reader)
    order = [*(i for i in range(len(header)) if i != label_pos), label_pos]
    unparsed = None  # first cell that float() reads but np.loadtxt does not
    for r, row in enumerate(_records(reader)):
        if len(row) != len(header):
            missing = header[min(len(row), len(header) - 1)]
            raise errors.NonNumericCell(r, missing, "<wrong row length>")
        for i in order:
            cell = row[i]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if i == label_pos and value not in (-1.0, 0.0, 1.0):
                raise errors.InvalidLabelValue(r, cell)
            if i != label_pos and not math.isfinite(value):
                raise errors.NonNumericCell(r, header[i], cell)
            core = cell.strip()
            if unparsed is None and ("_" in core or not core.isascii()
                                     or "\r" in cell or "\n" in cell):
                unparsed = (r, i, cell)
    if unparsed is not None:
        r, i, cell = unparsed
        if i == label_pos:
            raise errors.InvalidLabelValue(r, cell)
        raise errors.NonNumericCell(r, header[i], cell)


def _records(reader):
    """The rows of a csv.reader; a row it cannot read raises UnreadableCsvRecord."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise errors.UnreadableCsvRecord(reader.line_num, exc) from None


def standardize_features(data: Dataset, transform=None):
    """Zero-mean unit-variance columns; returns (dataset, transform record).

    With transform, a record this function returned for other data, that
    record's mean and std are applied instead of the data's own.
    """
    if transform is not None:
        mean, std = transform["mean"], transform["std"]
    else:
        mean = data.features.mean(axis=0)
        std = data.features.std(axis=0)
    if np.any(std == 0):
        col = data.feature_names[int(np.argmax(std == 0))]
        raise ValueError(f"column {col!r} is constant and cannot be standardized")
    transformed = (data.features - mean) / std
    record = {"mean": mean, "std": std}
    return Dataset(transformed, data.labels, data.feature_names), record


# ---------------------------------------------------------------------------
# semi-synthetic serialization: CSV of rows plus a JSON sidecar


def save_semisynthetic(ss: SemiSyntheticDataset, csv_path, json_path) -> None:
    """Write ss as a CSV of its feature columns, "label" and "true_prob", and a
    JSON sidecar; FeatureNameMismatch, before any file is written, if a feature
    has the name of a column that the CSV adds, which no reader could read."""
    names = ss.base.feature_names
    if {"label", "true_prob"} & set(names):
        raise errors.FeatureNameMismatch(f"feature names {list(names)} must not include "
                                         f"'label' or 'true_prob'")
    write_table(csv_path, [*names, "label", "true_prob"],
                [*ss.base.features.T, ss.base.labels, ss.true_probs])
    sidecar = {
        "theta": ss.ground_truth.theta,
        "includes_intercept": bool(ss.ground_truth.includes_intercept),
        "feature_names": list(names),
        "seed": {"master_seed": int(ss.seed.master_seed),
                 "stream_index": int(ss.seed.stream_index)},
        "ridge": None if ss.gt_ridge is None else float(ss.gt_ridge),
        "label_column": "label",
    }
    dump_json(json_path, sidecar)


_SIDECAR_SCHEMA = {
    "feature_names": [str],
    "theta": [NUMBER],
    "includes_intercept": bool,
    "seed": {"master_seed": int, "stream_index": int},
    "ridge": (*NUMBER, type(None)),
    "label_column": (str, type(None)),
}


def load_semisynthetic(csv_path, json_path) -> SemiSyntheticDataset:
    """Read back a saved semi-synthetic dataset, re-verifying its invariants."""
    sidecar = read_json(json_path, _SIDECAR_SCHEMA)
    names = tuple(sidecar["feature_names"])
    model = LogisticModel(sidecar["theta"], sidecar["includes_intercept"])
    seed = LabelDrawSeed(sidecar["seed"]["master_seed"], sidecar["seed"]["stream_index"])
    label_column = sidecar.get("label_column")
    table = load_csv(csv_path, "label" if label_column is None else label_column)
    expected = (*names, "true_prob")
    if table.feature_names != expected:
        raise errors.MissingLabelColumn(
            f"columns {list(table.feature_names)} do not match sidecar columns "
            f"{list(expected)}")
    base = Dataset(table.features[:, :-1], table.labels, names)
    ridge = sidecar.get("ridge")
    return SemiSyntheticDataset(base, table.features[:, -1], model, seed,
                                None if ridge is None else float(ridge))
