"""Dataset ingestion, label drawing, and semi-synthetic data generation.

Labels live in {-1, +1} everywhere. CSV files may encode them as {0, 1}; the
loader maps 0 to -1. Semi-synthetic datasets pair real or generated features
with labels drawn from a known logistic ground truth, which is what makes the
true per-point resampling variance computable at all.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors, rng
from ._io import NUMBER, dump_json, read_json, write_table
from .glm import FitOptions, LogisticModel, fit_logistic, predict_proba


def _default_names(d: int) -> tuple:
    return tuple(f"x{i}" for i in range(d))


@dataclass(frozen=True)
class Dataset:
    """An n-by-d feature matrix with one {-1,+1} label per row.

    Arrays are copied on construction and frozen read-only, so an instance
    can be shared freely and never changes after it is built.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise errors.EmptyDataset(
                f"features must be a non-empty 2-D matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature entries must be finite")
        y = np.array(self.labels, dtype=np.int64)
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
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
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
    """Identifies one label-drawing substream.

    (master_seed, stream_index, point index) fully determines each Bernoulli
    outcome, independent of evaluation order and of how many streams are drawn
    together. Stream 0 is the initial draw of a semi-synthetic dataset;
    resample k uses stream k.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        rng._check_seed(self.master_seed)
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be non-negative")


def draw_labels(probs, seed: LabelDrawSeed, point_indices=None) -> np.ndarray:
    """Draw one {-1,+1} label per point, +1 with the given probability.

    The outcome for point i depends only on (seed, i), so evaluating a
    permuted or partial set of points reproduces exactly the labels those
    points get in a full draw.
    """
    p = _checked_probs(probs)
    if point_indices is None:
        idx = np.arange(p.size, dtype=np.int64)
    else:
        idx = np.asarray(point_indices, dtype=np.int64)
        if idx.shape != p.shape:
            raise errors.LengthMismatch("point_indices must match probs in length")
    u = rng.point_uniforms(seed.master_seed, rng.LABELS, seed.stream_index, idx)
    return np.where(u < p, 1, -1).astype(np.int64)


def draw_label_rows(probs, master_seed: int, n_rows: int) -> np.ndarray:
    """n_rows x n matrix of {-1,+1} labels, one row per resample.

    Row k-1 is bit-identical to draw_labels(probs, LabelDrawSeed(master_seed,
    k)); the probabilities are validated once for all rows. A negative n_rows
    raises ValueError.
    """
    if n_rows < 0:
        raise ValueError(f"row count must be non-negative, got {n_rows}")
    p = _checked_probs(probs)
    u = rng.stream_prefixes(master_seed, rng.LABELS, range(1, n_rows + 1), p.size)
    labels = np.less(u, p, out=np.empty(u.shape, dtype=np.int64))  # 1 where u < p, else 0
    labels *= 2
    labels -= 1
    return labels


def _checked_probs(probs) -> np.ndarray:
    """probs as a 1-D float array, or ProbOutOfRange naming the first bad entry."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise errors.LengthMismatch("probs must be 1-D")
    ok = (p >= 0.0) & (p <= 1.0)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise errors.ProbOutOfRange(bad, float(p[bad]))
    return p


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
        p = np.array(self.true_probs, dtype=float)
        if p.shape != (self.base.n_points,):
            raise errors.DimensionMismatch("true_probs length must match the dataset")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("true_probs must lie in [0, 1]")
        model_probs = predict_proba(self.ground_truth, self.base.features)
        if np.max(np.abs(model_probs - p)) > 1e-12:
            raise ValueError("true_probs disagree with the ground-truth model")
        regenerated = draw_labels(p, self.seed)
        if not np.array_equal(regenerated, self.base.labels):
            raise ValueError("labels do not regenerate from the recorded seed")
        p.setflags(write=False)
        object.__setattr__(self, "true_probs", p)


def semisynthetic_from_model(features, ground_truth: LogisticModel,
                             seed: LabelDrawSeed, feature_names=None,
                             gt_ridge: Optional[float] = None) -> SemiSyntheticDataset:
    """Draw a semi-synthetic dataset from an explicit ground-truth model."""
    X = np.asarray(features, dtype=float)
    true_probs = predict_proba(ground_truth, X)
    labels = draw_labels(true_probs, seed)
    base = Dataset(X, labels, tuple(feature_names) if feature_names else ())
    return SemiSyntheticDataset(base, true_probs, ground_truth, seed, gt_ridge)


def make_semisynthetic(features, raw_labels, ridge: float = 1.0,
                       seed: LabelDrawSeed = LabelDrawSeed(0), *,
                       include_intercept: bool = False,
                       feature_names=None) -> SemiSyntheticDataset:
    """Fit a ridge logistic ground truth on the raw labels, then redraw labels.

    The ridge keeps the fitted ground truth finite on separable inputs and is
    recorded in the result; ridge 0 on separable data raises FitDiverged, and
    FitOptions rejects a negative or non-finite ridge.
    """
    raw = Dataset(features, raw_labels, tuple(feature_names) if feature_names else ())
    opts = FitOptions(ridge=ridge, include_intercept=include_intercept)
    ground_truth = fit_logistic(raw, opts)
    return semisynthetic_from_model(raw.features, ground_truth, seed,
                                    feature_names=raw.feature_names, gt_ridge=ridge)


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


def two_cluster_semisynthetic(n: int, seed: LabelDrawSeed, *,
                              p_high: float = 0.8) -> SemiSyntheticDataset:
    """Labels drawn for the two-cluster population; see two_cluster_population."""
    features, ground_truth = two_cluster_population(n, p_high=p_high)
    return semisynthetic_from_model(features, ground_truth, seed)


def gaussian_features(n: int, d: int, master_seed: int) -> np.ndarray:
    """Standard-normal feature matrix, deterministic in the master seed."""
    return rng.substream(master_seed, rng.FEATURES, 0).standard_normal((n, d))


def gaussian_semisynthetic(n: int, d: int, theta, master_seed: int, *,
                           stream_index: int = 0) -> SemiSyntheticDataset:
    """Standard-normal features with labels drawn from the supplied parameters."""
    features = gaussian_features(n, d, master_seed)
    ground_truth = LogisticModel(np.asarray(theta, dtype=float), includes_intercept=False)
    return semisynthetic_from_model(features, ground_truth,
                                    LabelDrawSeed(master_seed, stream_index))


# ---------------------------------------------------------------------------
# CSV ingestion


# Line ends as a text file opened with newline="" splits at them.
_LINE_END = re.compile(rb"\r\n?|\n")
# numpy's float parser strips these ASCII separators around a number; float()
# rejects any cell that holds one.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The largest csv field size limit that a C long holds on every platform.
_NO_FIELD_LIMIT = 2**31 - 1
# _parse_rows counts a body's line ends in slices of this many bytes, faster
# than bytes.count and with a comparison temporary too small to raise the
# peak memory of a large file's load.
_COUNT_SLICE = 1 << 16
# A body of at least this many bytes is parsed in two processes where it can
# be. On a shared 2-vCPU x86-64 machine a fork and its reaping took 2.5-4 ms
# in a 40 MiB process, and the parse of a 1 MiB body about 28 ms.
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

    A body of at least _SPLIT_BYTES (1 MiB) with no double quote is parsed in
    two halves at once when the process can fork, may run on two or more
    CPUs and has one thread: a forked child parses the rows from the last
    \\n before the body's middle and sends them back down a pipe. The
    split is skipped when the child's first line would be blank. If either
    half fails, the body is parsed again in one process, so the result and
    every error are those of the one-process parse. The child always ends
    through os._exit and is always reaped, and killed first when the parent
    fails or is interrupted.
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
        table = _parse_rows(raw, start, lines, len(header), label_pos)
    except ValueError:
        _raise_first_bad_cell(raw, header, label_pos)
        raise
    labels = np.where(table[:, label_pos] == 1.0, 1, -1)
    return Dataset(np.delete(table, label_pos, axis=1), labels, feature_names)


def _text_lines(raw: bytes):
    """raw decoded and split into lines as open(path, encoding="utf-8", newline="") does."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _body_start(raw: bytes, header_lines: int) -> int:
    """Byte offset just past the first header_lines lines of raw."""
    ends = [m.end() for _, m in zip(range(header_lines), _LINE_END.finditer(raw))]
    return ends[-1] if len(ends) == header_lines else len(raw)


def _parse_rows(raw: bytes, start: int, lines, n_columns: int, label_pos: int) -> np.ndarray:
    """The data rows as one float array; ValueError unless every check passes.

    lines is positioned at the first data row, which starts at byte start.
    """
    if raw[start:start + 1] in (b"\r", b"\n"):  # loadtxt warns on a body of blank lines
        raise ValueError("blank first data line")
    if any(raw.find(sep, start) >= 0 for sep in _SEPARATORS):
        raise ValueError("ASCII separator character in the data rows")
    mid = _split_point(raw, start)
    table = None if mid is None else _parse_halves(raw, start, mid)
    if table is None:
        table = _loadtxt(lines)
    body = np.frombuffer(raw, np.uint8, offset=start)
    n_lines = (sum(np.count_nonzero(body[i:i + _COUNT_SLICE] == 10)
                   for i in range(0, body.size, _COUNT_SLICE))
               + (not raw.endswith((b"\n", b"\r"))))
    if raw.find(b"\r", start) >= 0:
        n_lines += raw.count(b"\r", start) - raw.count(b"\r\n", start)
    # loadtxt skips blank lines and joins quoted line breaks, so either
    # leaves fewer rows than lines
    if table.shape != (n_lines, n_columns):
        raise ValueError("blank line, quoted line break or wrong row length")
    if not np.isfinite(table).all():
        raise ValueError("non-finite value")
    labels = table[:, label_pos]
    if not ((labels == 0.0) | (np.abs(labels) == 1.0)).all():
        raise ValueError("label outside {-1, 0, 1}")
    return table


def _loadtxt(lines) -> np.ndarray:
    """The rows of lines, a text stream of data rows, as one float array."""
    return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2, comments=None,
                      quotechar='"')


def _split_point(raw: bytes, start: int) -> Optional[int]:
    """Offset of the line where a child starts parsing the body, or None to
    parse it in one process (see load_csv)."""
    if (len(raw) - start < _SPLIT_BYTES or not hasattr(os, "fork")
            or _usable_cpus() < 2 or threading.active_count() != 1
            or raw.find(b'"', start) >= 0):
        return None
    # a \n is never part of a multi-byte UTF-8 character, nor a quoted cell here
    mid = raw.rfind(b"\n", start, (start + len(raw)) // 2) + 1
    if not start < mid < len(raw) or raw[mid:mid + 1] in (b"\r", b"\n"):
        return None  # no line end before the middle, or a blank first line
    return mid


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_halves(raw: bytes, start: int, mid: int) -> Optional[np.ndarray]:
    """_loadtxt of the body, with the rows from byte mid on parsed by a forked
    child; None if the fork or either half fails.

    The child sends its table's shape and float64 bytes down a pipe, and they
    are read straight into the joined table.
    """
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while native threads (a BLAS pool)
            # run; the child takes no lock that they could hold
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            _send_rows(raw[mid:], write_end)
            code = 0
        finally:
            os._exit(code)  # no stdio flush, no atexit hooks
    os.close(write_end)
    table = None
    try:
        with open(read_end, "rb", buffering=0) as pipe:
            table = _join_rows(_loadtxt(_text_lines(raw[start:mid])), pipe)
    except ValueError:  # UnicodeDecodeError included
        pass
    finally:
        if table is None:  # the child may still be parsing or writing
            os.kill(pid, signal.SIGKILL)
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # SIGCHLD is ignored, so the child was reaped at exit
            status = 0
    return table if status == 0 else None


def _send_rows(body: bytes, write_end: int) -> None:
    """In the child: parse body and write its shape and float64 bytes."""
    table = _loadtxt(_text_lines(body))
    with open(write_end, "wb") as out:
        out.write(np.array(table.shape, dtype=np.int64))
        out.write(table)


def _join_rows(head: np.ndarray, pipe) -> Optional[np.ndarray]:
    """head with the child's rows below it, read from pipe; None if the child
    sent another column count or fewer bytes than its rows need."""
    shape = np.zeros(2, dtype=np.int64)
    if not _read_into(pipe, shape) or shape[1] != head.shape[1]:
        return None
    table = np.empty((head.shape[0] + int(shape[0]), head.shape[1]))
    table[:head.shape[0]] = head
    return table if _read_into(pipe, table[head.shape[0]:]) else None


def _read_into(pipe, array: np.ndarray) -> bool:
    """Fill the contiguous array from pipe; False at an early end of file."""
    view = memoryview(array).cast("B")
    while view:
        n = pipe.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


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
    names = ss.base.feature_names
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
    model = LogisticModel(np.asarray(sidecar["theta"], dtype=float),
                          sidecar["includes_intercept"])
    seed = LabelDrawSeed(sidecar["seed"]["master_seed"], sidecar["seed"]["stream_index"])
    table = load_csv(csv_path, sidecar.get("label_column", "label"))
    expected = (*names, "true_prob")
    if table.feature_names != expected:
        raise errors.MissingLabelColumn(
            f"columns {list(table.feature_names)} do not match sidecar columns "
            f"{list(expected)}")
    base = Dataset(table.features[:, :-1], table.labels, names)
    ridge = sidecar.get("ridge")
    return SemiSyntheticDataset(base, table.features[:, -1], model, seed,
                                None if ridge is None else float(ridge))
