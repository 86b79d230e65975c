"""Resampling estimators of per-point prediction variance ("regret").

The central procedure: fit a base model, redraw every label from its
predicted (or true) probability, refit, and record how much each point's
predicted probability moves across refits. The exhaustive enumerator computes
the same expectation exactly by weighting all 2**n label assignments and is
the test oracle for the Monte Carlo path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors, rng
from ._io import dump_json, write_table
from .dataset import Dataset, SemiSyntheticDataset, _checked_probs, draw_label_rows
# The ladder is defined with the trainers; it stays importable from here.
from .glm import FALLBACK_RIDGES, TrainerHandle, fit_with_fallback

ENUMERATION_LIMIT = 22
# Assignments refit together by one fit_many call during enumeration.
ENUMERATION_BLOCK = 4096
SKIP_WEIGHT = 1e-15
SKIP_MASS = 1e-12


@dataclass(frozen=True)
class RegretReport:
    """Per-point statistics over refits.

    regret[i] is the variance of point i's predicted probability across
    resampled refits: the K-1 denominator for the sampling estimators, the
    exact population variance for enumeration. samples (K x n) is retained
    only on request.
    """

    regret: np.ndarray
    mean_pred: np.ndarray
    base_pred: np.ndarray
    n_resamples: int
    estimator: str
    seed: Optional[int]
    trainer_name: str
    n_fallback_refits: int = 0
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.estimator not in {"monte_carlo", "true_resample", "bootstrap", "enumeration"}:
            raise ValueError(f"unknown estimator tag {self.estimator!r}")
        if self.n_resamples < 2:
            raise errors.TooFewResamples("variance needs at least 2 resamples")
        regret = np.array(self.regret, dtype=float)
        mean_pred = np.array(self.mean_pred, dtype=float)
        base_pred = np.array(self.base_pred, dtype=float)
        if not (regret.shape == mean_pred.shape == base_pred.shape):
            raise errors.LengthMismatch("report arrays must share one length")
        for name, arr in (("regret", regret), ("mean_pred", mean_pred), ("base_pred", base_pred)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} values must be finite")
        # A [0,1]-valued variable has population variance at most 1/4; the
        # unbiased K-1 estimator can exceed that by the factor K/(K-1).
        cap = 0.25 if self.estimator == "enumeration" else 0.25 * self.n_resamples / (self.n_resamples - 1)
        if np.min(regret) < 0 or np.max(regret) > cap + 1e-9:
            raise ValueError(f"regret values must lie in [0, {cap:.6g}]")
        if np.min(mean_pred) < -1e-12 or np.max(mean_pred) > 1 + 1e-12:
            raise ValueError("mean predictions must lie in [0, 1]")
        for name, arr in (("regret", regret), ("mean_pred", mean_pred), ("base_pred", base_pred)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.samples is not None:
            samples = np.array(self.samples, dtype=float)
            samples.setflags(write=False)
            object.__setattr__(self, "samples", samples)

    @property
    def n_points(self) -> int:
        return self.regret.size


@dataclass(frozen=True)
class DeviationReport:
    """Absolute (e) and squared (s = e**2) per-point prediction differences."""

    e: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        e = np.array(self.e, dtype=float)
        s = np.array(self.s, dtype=float)
        if e.shape != s.shape:
            raise errors.LengthMismatch("e and s must share one length")
        e.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "s", s)


def point_deviations(preds_a, preds_b) -> DeviationReport:
    """Per-point absolute and squared differences between two prediction vectors."""
    a = np.asarray(preds_a, dtype=float)
    b = np.asarray(preds_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise errors.LengthMismatch(
            f"prediction vectors must be 1-D and equally long, got {a.shape} and {b.shape}")
    for name, arr in (("preds_a", a), ("preds_b", b)):
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise ValueError(f"{name} must lie in [0, 1]")
    e = np.abs(a - b)
    return DeviationReport(e, e ** 2)


# ---------------------------------------------------------------------------
# refitting machinery


def _initial_fit(trainer: TrainerHandle, data: Dataset):
    try:
        return trainer.warm_fit(data, None)
    except errors.LabelRegretError as exc:
        raise errors.InitialFitFailed(f"initial fit failed: {exc}") from exc


def _prediction_samples(train: Dataset, resample_probs, eval_features,
                        trainer: TrainerHandle, K: int, master_seed: int,
                        warm_state):
    """K x m matrix of predictions at eval_features across label resamples,
    plus the number of refits that needed the ridge fallback.

    Resample k draws its labels from stream k of the master seed and every
    refit starts from warm_state, so row k-1 is the same refit whatever K is.
    """
    labels = draw_label_rows(resample_probs, master_seed, K)
    return trainer.fit_many(train, labels, eval_features, warm_state)


def _sampling_report(samples: np.ndarray, base_pred: np.ndarray, estimator: str,
                     seed: int, trainer_name: str, n_fallbacks: int,
                     keep_samples: bool) -> RegretReport:
    regret = np.maximum(samples.var(axis=0, ddof=1), 0.0)
    return RegretReport(
        regret=regret,
        mean_pred=samples.mean(axis=0),
        base_pred=base_pred,
        n_resamples=samples.shape[0],
        estimator=estimator,
        seed=int(seed),
        trainer_name=trainer_name,
        n_fallback_refits=int(n_fallbacks),
        samples=samples if keep_samples else None,
    )


# ---------------------------------------------------------------------------
# estimators


def estimate_regret(data: Dataset, trainer: TrainerHandle, K: int, seed: int, *,
                    keep_samples: bool = False) -> RegretReport:
    """Monte Carlo regret: resample labels from the base model's own predictions.

    Fits the base model, then for k = 1..K redraws every label from the base
    predicted probabilities (stream k), refits, and records the predictions at
    the original points. regret[i] is the K-1 sample variance of those values.
    """
    if K < 2:
        raise errors.TooFewResamples(f"K must be at least 2, got {K}")
    predictor, warm_state = _initial_fit(trainer, data)
    base_pred = np.asarray(predictor(data.features), dtype=float)
    samples, n_fallbacks = _prediction_samples(
        data, base_pred, data.features, trainer, K, seed, warm_state)
    return _sampling_report(samples, base_pred, "monte_carlo", seed,
                            trainer.name, n_fallbacks, keep_samples)


def true_regret(ss: SemiSyntheticDataset, trainer: TrainerHandle, K: int, seed: int, *,
                keep_samples: bool = False) -> RegretReport:
    """Regret under the ground truth: labels resampled from the true probabilities."""
    if K < 2:
        raise errors.TooFewResamples(f"K must be at least 2, got {K}")
    predictor, warm_state = _initial_fit(trainer, ss.base)
    base_pred = np.asarray(predictor(ss.base.features), dtype=float)
    samples, n_fallbacks = _prediction_samples(
        ss.base, ss.true_probs, ss.base.features, trainer, K, seed, warm_state)
    return _sampling_report(samples, base_pred, "true_resample", seed,
                            trainer.name, n_fallbacks, keep_samples)


def bootstrap_regret(data: Dataset, trainer: TrainerHandle, K: int, seed: int, *,
                     keep_samples: bool = False) -> RegretReport:
    """Row-resampling baseline: refit on K bootstrap replicates of the rows.

    Unlike the label-resampling estimators this keeps every observed label
    attached to its point; it never flips a label, only reweights rows.
    """
    if K < 2:
        raise errors.TooFewResamples(f"K must be at least 2, got {K}")
    predictor, warm_state = _initial_fit(trainer, data)
    base_pred = np.asarray(predictor(data.features), dtype=float)
    n = data.n_points
    samples = np.empty((K, n))
    n_fallbacks = 0
    for k in range(1, K + 1):
        rows = rng.substream(seed, rng.BOOTSTRAP_ROWS, k).integers(0, n, size=n)
        replicate = Dataset(data.features[rows], data.labels[rows], data.feature_names)
        pred, _, used_fallback = fit_with_fallback(trainer, replicate, warm_state)
        samples[k - 1] = pred(data.features)
        n_fallbacks += used_fallback
    return _sampling_report(samples, base_pred, "bootstrap", seed,
                            trainer.name, n_fallbacks, keep_samples)


def exact_regret_enumeration(features, probs, trainer: TrainerHandle, *,
                             feature_names=None) -> RegretReport:
    """Exact regret by weighting refits over all 2**n label assignments.

    Assignment weights are the product of per-point Bernoulli probabilities;
    regret[i] is the exact population variance sum(w p~**2) - (sum(w p~))**2.
    Assignments are refit in blocks of ENUMERATION_BLOCK through one
    trainer.fit_many call each, every refit starting from theta = 0 (the
    trainer's cold start). Assignments of weight below
    1e-15 are skipped only when their total mass is below 1e-12.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise errors.DimensionMismatch("features must be 2-D")
    n = X.shape[0]
    if n > ENUMERATION_LIMIT:
        raise errors.TooLarge(
            f"enumeration over {n} points needs 2**{n} refits; limit is {ENUMERATION_LIMIT}")
    p = np.asarray(probs, dtype=float)
    if p.shape != (n,):
        raise errors.LengthMismatch(f"{n} points but {p.size} probabilities")
    p = _checked_probs(p)

    # weights indexed by assignment bitmask; bit i set means label[i] = +1
    weights = np.ones(1)
    for pi in p:
        weights = np.concatenate([weights * (1.0 - pi), weights * pi])
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise ArithmeticError(f"assignment weights sum to {total!r}, expected 1")
    tiny = weights < SKIP_WEIGHT
    skip = tiny if weights[tiny].sum() < SKIP_MASS else np.zeros_like(tiny)

    names = tuple(feature_names) if feature_names else ()
    template = Dataset(X, -np.ones(n, dtype=np.int64), names)
    m1 = np.zeros(n)
    m2 = np.zeros(n)
    n_fallbacks = 0
    kept = np.flatnonzero(~skip)
    bits = np.arange(n)
    for start in range(0, kept.size, ENUMERATION_BLOCK):
        codes = kept[start:start + ENUMERATION_BLOCK]
        labels = np.where((codes[:, None] >> bits) & 1, 1, -1)
        values, block_fallbacks = trainer.fit_many(template, labels, X, None)
        n_fallbacks += block_fallbacks
        w = weights[codes]
        m1 += w @ values
        m2 += w @ values ** 2
    regret = np.maximum(m2 - m1 ** 2, 0.0)
    return RegretReport(
        regret=regret,
        mean_pred=np.clip(m1, 0.0, 1.0),
        base_pred=p,
        n_resamples=2 ** n,
        estimator="enumeration",
        seed=None,
        trainer_name=trainer.name,
        n_fallback_refits=int(n_fallbacks),
    )


def variance_standard_error(samples: np.ndarray) -> np.ndarray:
    """Standard error of the K-1 sample variance, per column of a K x n matrix.

    Uses the fourth-central-moment formula
    Var(s^2) = (m4 - (K-3)/(K-1) m2^2) / K with plug-in sample moments.
    """
    samples = np.asarray(samples, dtype=float)
    K = samples.shape[0]
    if K < 4:
        raise errors.TooFewResamples("need at least 4 samples to estimate Var(s^2)")
    centered = samples - samples.mean(axis=0)
    m2 = (centered ** 2).mean(axis=0)
    m4 = (centered ** 4).mean(axis=0)
    var_s2 = (m4 - (K - 3) / (K - 1) * m2 ** 2) / K
    return np.sqrt(np.maximum(var_s2, 0.0))


# ---------------------------------------------------------------------------
# serialization


def regret_report_table(report: RegretReport):
    """(header, columns) of the per-point regret table, for _io.write_table."""
    return (["point_index", "base_pred", "mean_pred", "regret"],
            [np.arange(report.n_points), report.base_pred, report.mean_pred,
             report.regret])


def regret_report_metadata(report: RegretReport) -> dict:
    return {
        "estimator": report.estimator,
        "n_resamples": int(report.n_resamples),
        "seed": None if report.seed is None else int(report.seed),
        "trainer": report.trainer_name,
        "n_fallback_refits": int(report.n_fallback_refits),
    }


def save_regret_report(report: RegretReport, csv_path, json_path) -> None:
    write_table(csv_path, *regret_report_table(report))
    dump_json(json_path, regret_report_metadata(report))
