"""Dataset ingestion, label drawing, and semi-synthetic data generation.

Labels live in {-1, +1} everywhere. CSV files may encode them as {0, 1}; the
loader maps 0 to -1. Semi-synthetic datasets pair real or generated features
with labels drawn from a known logistic ground truth, which is what makes the
true per-point resampling variance computable at all.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import errors, rng
from ._io import atomic_write_text, dump_json, format_float
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
    k)); the probabilities are validated once for all rows.
    """
    p = _checked_probs(probs)
    u = rng.stream_prefixes(master_seed, rng.LABELS, range(1, n_rows + 1), p.size)
    return np.where(u < p, 1, -1).astype(np.int64, copy=False)


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
    recorded in the result; ridge 0 on separable data raises FitDiverged.
    """
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    raw = Dataset(features, raw_labels, tuple(feature_names) if feature_names else ())
    opts = FitOptions(ridge=ridge, include_intercept=include_intercept)
    ground_truth = fit_logistic(raw, opts)
    return semisynthetic_from_model(raw.features, ground_truth, seed,
                                    feature_names=raw.feature_names, gt_ridge=ridge)


# ---------------------------------------------------------------------------
# built-in feature geometries


def two_cluster_population(n: int, *, p_high: float = 0.8, spread: float = 1.0):
    """Two point clusters at x2 = +1 and x2 = -1 with exact cluster probabilities.

    The ground truth is theta = (0, logit(p_high)), so every top-cluster point
    has true probability exactly p_high and every bottom-cluster point exactly
    1 - p_high. x1 spreads the points out to keep the feature matrix full
    rank. Returns (features, ground_truth).
    """
    if n < 4:
        raise ValueError("need at least 4 points (2 per cluster)")
    if not 0.5 < p_high < 1.0:
        raise ValueError("p_high must lie in (0.5, 1)")
    n_top = n // 2
    n_bot = n - n_top
    x1 = np.concatenate([np.linspace(-spread, spread, n_top),
                         np.linspace(-spread, spread, n_bot)])
    x2 = np.concatenate([np.ones(n_top), -np.ones(n_bot)])
    features = np.column_stack([x1, x2])
    logit = math.log(p_high / (1.0 - p_high))
    return features, LogisticModel(np.array([0.0, logit]), includes_intercept=False)


def two_cluster_semisynthetic(n: int, seed: LabelDrawSeed, *, p_high: float = 0.8,
                              spread: float = 1.0) -> SemiSyntheticDataset:
    """Labels drawn for the two-cluster population; see two_cluster_population."""
    features, ground_truth = two_cluster_population(n, p_high=p_high, spread=spread)
    return semisynthetic_from_model(features, ground_truth, seed)


def gaussian_features(n: int, d: int, master_seed: int) -> np.ndarray:
    """Standard-normal feature matrix, deterministic in the master seed."""
    return rng.substream(master_seed, rng.FEATURES, 0).standard_normal((n, d))


def annulus_features(n: int, d: int, master_seed: int, *, r_min: float = 0.5,
                     r_max: float = 2.0) -> np.ndarray:
    """Features on an annulus: compact support bounded away from the origin."""
    if not 0 < r_min <= r_max:
        raise ValueError("need 0 < r_min <= r_max")
    gen = rng.substream(master_seed, rng.FEATURES, 0)
    directions = gen.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = gen.uniform(r_min, r_max, size=n)
    return directions * radii[:, None]


def gaussian_semisynthetic(n: int, d: int, theta, master_seed: int, *,
                           stream_index: int = 0) -> SemiSyntheticDataset:
    """Standard-normal features with labels drawn from the supplied parameters."""
    features = gaussian_features(n, d, master_seed)
    ground_truth = LogisticModel(np.asarray(theta, dtype=float), includes_intercept=False)
    return semisynthetic_from_model(features, ground_truth,
                                    LabelDrawSeed(master_seed, stream_index))


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a headered CSV with one label column; all other columns numeric.

    Label values {0, 1} are mapped to {-1, +1} (0 becomes -1); {-1, +1} pass
    through unchanged.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise errors.EmptyDataset(f"{path} is empty") from None
        if label_column not in header:
            raise errors.MissingLabelColumn(
                f"column {label_column!r} not found in header {header}")
        label_pos = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_pos)
        if not feature_names:
            raise errors.EmptyDataset(f"{path} has no feature columns")

        rows, labels = [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                missing = header[min(len(row), len(header) - 1)]
                raise errors.NonNumericCell(r, missing, "<wrong row length>")
            values = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise errors.NonNumericCell(r, header[i], cell) from None
                if not math.isfinite(v):
                    raise errors.NonNumericCell(r, header[i], cell)
                values.append(v)
            try:
                raw_label = float(row[label_pos])
            except ValueError:
                raise errors.InvalidLabelValue(r, row[label_pos]) from None
            if raw_label not in (-1.0, 0.0, 1.0):
                raise errors.InvalidLabelValue(r, row[label_pos])
            labels.append(1 if raw_label == 1.0 else -1)
            rows.append(values)

    if not rows:
        raise errors.EmptyDataset(f"{path} has a header but no data rows")
    return Dataset(np.asarray(rows, dtype=float), np.asarray(labels), feature_names)


def write_csv(data: Dataset, path, label_column: str = "label") -> None:
    """Write a Dataset so load_csv reads back an identical object."""
    if label_column in data.feature_names:
        raise ValueError(f"label column {label_column!r} collides with a feature name")
    lines = [",".join([*data.feature_names, label_column])]
    for i in range(data.n_points):
        cells = [format_float(v) for v in data.features[i]]
        cells.append(str(int(data.labels[i])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def standardize_features(data: Dataset):
    """Zero-mean unit-variance columns; returns (dataset, transform record)."""
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    if np.any(std == 0):
        col = data.feature_names[int(np.argmax(std == 0))]
        raise ValueError(f"column {col!r} is constant and cannot be standardized")
    transformed = (data.features - mean) / std
    record = {"mean": [float(v) for v in mean], "std": [float(v) for v in std]}
    return Dataset(transformed, data.labels, data.feature_names), record


# ---------------------------------------------------------------------------
# semi-synthetic serialization: CSV of rows plus a JSON sidecar


def save_semisynthetic(ss: SemiSyntheticDataset, csv_path, json_path, *,
                       label_column: str = "label") -> None:
    names = ss.base.feature_names
    lines = [",".join([*names, label_column, "true_prob"])]
    for i in range(ss.base.n_points):
        cells = [format_float(v) for v in ss.base.features[i]]
        cells.append(str(int(ss.base.labels[i])))
        cells.append(format_float(ss.true_probs[i]))
        lines.append(",".join(cells))
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    sidecar = {
        "theta": [float(v) for v in ss.ground_truth.theta],
        "includes_intercept": bool(ss.ground_truth.includes_intercept),
        "feature_names": list(names),
        "seed": {"master_seed": int(ss.seed.master_seed),
                 "stream_index": int(ss.seed.stream_index)},
        "ridge": None if ss.gt_ridge is None else float(ss.gt_ridge),
        "label_column": label_column,
    }
    dump_json(json_path, sidecar)


def load_semisynthetic(csv_path, json_path) -> SemiSyntheticDataset:
    """Read back a saved semi-synthetic dataset, re-verifying its invariants."""
    with open(json_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    try:
        names = list(sidecar["feature_names"])
        model = LogisticModel(np.asarray(sidecar["theta"], dtype=float),
                              bool(sidecar["includes_intercept"]))
        seed = LabelDrawSeed(int(sidecar["seed"]["master_seed"]),
                             int(sidecar["seed"]["stream_index"]))
    except KeyError as exc:
        raise errors.MissingSidecarKey(json_path, exc.args[0]) from None
    label_column = sidecar.get("label_column", "label")

    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = [*names, label_column, "true_prob"]
        if header != expected:
            raise errors.MissingLabelColumn(
                f"header {header} does not match sidecar columns {expected}")
        rows, labels, probs = [], [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                missing = header[min(len(row), len(header) - 1)]
                raise errors.NonNumericCell(r, missing, "<wrong row length>")
            rows.append([float(c) for c in row[:len(names)]])
            labels.append(int(row[len(names)]))
            probs.append(float(row[len(names) + 1]))

    if not rows:
        raise errors.EmptyDataset(f"{csv_path} has no data rows")
    base = Dataset(np.asarray(rows, dtype=float), np.asarray(labels), tuple(names))
    ridge = sidecar.get("ridge")
    return SemiSyntheticDataset(base, np.asarray(probs, dtype=float), model, seed,
                                None if ridge is None else float(ridge))
