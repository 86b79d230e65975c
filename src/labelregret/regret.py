"""Resampling estimators of per-point prediction variance ("regret").

The central procedure: fit a base model, redraw every label from its
predicted (or true) probability, refit, and record how much each point's
predicted probability moves across refits. The exhaustive enumerator computes
the same expectation exactly by weighting all 2**n label assignments and is
the test oracle for the Monte Carlo path. It walks the 2**(n-1) pairs of
complementary assignments {y, -y}; a trainer that mirrors label flips refits
only one member of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .dataset import Dataset, SemiSyntheticDataset, _checked_probs, draw_label_rows
# The mc_separable benchmark oracle imports FALLBACK_RIDGES from this module.
from .glm import FALLBACK_RIDGES, TrainerHandle, _freeze

ENUMERATION_LIMIT = 22
# Pair members (one assignment of each complementary pair) refit together by
# one fit_many call during enumeration.
ENUMERATION_BLOCK = 4096
SKIP_WEIGHT = 1e-15
SKIP_MASS = 1e-12


@dataclass(frozen=True)
class RegretReport:
    """Per-point statistics over refits.

    regret[i] is the variance of point i's predicted probability across
    resampled refits: the K-1 denominator for the sampling estimators, the
    exact population variance for enumeration. samples (K x n) is retained
    only on request. The report holds read-only copies of the arrays it is
    given; an estimator hands over its own samples instead (see
    _sampling_report).
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
        if self.estimator not in {"monte_carlo", "true_resample", "enumeration"}:
            raise ValueError(f"unknown estimator tag {self.estimator!r}")
        if self.n_resamples < 2:
            raise errors.TooFewResamples("variance needs at least 2 resamples")
        regret = _freeze(self, "regret")
        mean_pred = _freeze(self, "mean_pred")
        base_pred = _freeze(self, "base_pred")
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
        if self.samples is not None:
            _freeze(self, "samples")

    @property
    def n_points(self) -> int:
        return self.regret.size


# ---------------------------------------------------------------------------
# refitting machinery


def _initial_fit(trainer: TrainerHandle, data: Dataset, fitted=None):
    """The trainer's fit on data: the base predictor and every refit's start.
    fitted, when given, is that fit made earlier, as an entry of
    LogisticTrainer.fit_each: the predictor, or the error that the fit raised."""
    try:
        if fitted is None:
            return trainer.fit(data)
        if isinstance(fitted, errors.LabelRegretError):
            raise fitted
        return fitted
    except errors.LabelRegretError as exc:
        raise errors.InitialFitFailed(f"initial fit failed: {exc}") from exc


def _prediction_samples(train: Dataset, resample_probs, eval_features,
                        trainer: TrainerHandle, K: int, master_seed: int, start):
    """K x m matrix of predictions at eval_features across label resamples,
    plus the number of refits that needed the ridge fallback.

    Resample k draws its n labels from the row at stream index k of the
    master seed's label stream, its draws k*n to k*n + n - 1; the K rows are
    one skip and one draw (draw_label_rows). Every refit starts from the
    predictor start, so row k-1 is the same refit whatever K is. A
    LogisticTrainer refits each distinct label row once and counts a fallback
    once per resample that drew it.
    """
    labels = draw_label_rows(resample_probs, master_seed, K)
    return trainer.fit_many(train, labels, eval_features, start)


def _sampling_report(samples: np.ndarray, base_pred: np.ndarray, estimator: str,
                     seed: int, trainer_name: str, n_fallbacks: int,
                     keep_samples: bool) -> RegretReport:
    """The report of K x m samples. Kept samples, an array that no caller
    holds, become the report's own, read-only and not copied."""
    report = RegretReport(
        regret=samples.var(axis=0, ddof=1),
        mean_pred=samples.mean(axis=0),
        base_pred=base_pred,
        n_resamples=samples.shape[0],
        estimator=estimator,
        seed=int(seed),
        trainer_name=trainer_name,
        n_fallback_refits=int(n_fallbacks),
    )
    if keep_samples:
        samples.setflags(write=False)
        object.__setattr__(report, "samples", samples)
    return report


# ---------------------------------------------------------------------------
# estimators


def estimate_regret(data: Dataset, trainer: TrainerHandle, K: int, seed: int, *,
                    keep_samples: bool = False, base=None) -> RegretReport:
    """Monte Carlo regret: resample labels from the base model's own predictions.

    Fits the base model, then for k = 1..K redraws every label from the base
    predicted probabilities (stream k), refits, and records the predictions at
    the original points. regret[i] is the K-1 sample variance of those values.
    base, when given, is the trainer's fit on data that the caller already
    made (see _initial_fit), and it is used instead of fitting again.
    """
    if K < 2:
        raise errors.TooFewResamples(f"K must be at least 2, got {K}")
    predictor = _initial_fit(trainer, data) if base is None else base
    base_pred = np.asarray(predictor(data.features), dtype=float)
    samples, n_fallbacks = _prediction_samples(
        data, base_pred, data.features, trainer, K, seed, predictor)
    return _sampling_report(samples, base_pred, "monte_carlo", seed,
                            trainer.name, n_fallbacks, keep_samples)


def true_regret(ss: SemiSyntheticDataset, trainer: TrainerHandle, K: int, seed: int, *,
                keep_samples: bool = False, base=None) -> RegretReport:
    """Regret under the ground truth: labels resampled from the true probabilities.

    Fits the base model on the observed labels, then for k = 1..K redraws
    every label from the true probabilities (stream k) and refits from the
    base model. base, when given, is the trainer's fit on ss.base that the
    caller already made (see _initial_fit), and it is used instead of fitting
    again.
    """
    if K < 2:
        raise errors.TooFewResamples(f"K must be at least 2, got {K}")
    predictor = _initial_fit(trainer, ss.base) if base is None else base
    base_pred = np.asarray(predictor(ss.base.features), dtype=float)
    samples, n_fallbacks = _prediction_samples(
        ss.base, ss.true_probs, ss.base.features, trainer, K, seed, predictor)
    return _sampling_report(samples, base_pred, "true_resample", seed,
                            trainer.name, n_fallbacks, keep_samples)


def exact_regret_enumeration(features, probs, trainer: TrainerHandle) -> RegretReport:
    """Exact regret by weighting refits over all 2**n label assignments.

    Assignment weights are the product of per-point Bernoulli probabilities;
    regret[i] is the exact population variance sum(w p~**2) - (sum(w p~))**2.
    The assignments come in complementary pairs {y, -y}, and the enumeration
    walks the member of each pair whose last point is labelled -1, in blocks
    of ENUMERATION_BLOCK members through one trainer.fit_many call each, every
    refit starting from theta = 0 (the trainer's cold start). When the
    trainer mirrors label flips, the partner's predictions are 1 minus the
    member's; otherwise the partners are refit too. A pair is skipped only
    when both of its assignments weigh below 1e-15 and all such assignments
    together weigh below 1e-12. n_resamples and n_fallback_refits count
    both members of every pair.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise errors.DimensionMismatch("features must be 2-D")
    n = X.shape[0]
    if n > ENUMERATION_LIMIT:
        raise errors.TooLarge(
            f"enumeration over {n} points needs 2**{n} assignments in 2**{n - 1} "
            f"complementary pairs; limit is {ENUMERATION_LIMIT}")
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
    # Member c (bit n-1 clear) and its partner 2**n - 1 - c, the bits flipped.
    half = weights.size // 2
    flipped_weights = weights[::-1][:half]
    kept = np.flatnonzero(~(skip[:half] & skip[::-1][:half]))

    template = Dataset(X, -np.ones(n, dtype=np.int64))
    m1 = np.zeros(n)
    m2 = np.zeros(n)
    n_fallbacks = 0
    bits = np.arange(n)
    for start in range(0, kept.size, ENUMERATION_BLOCK):
        codes = kept[start:start + ENUMERATION_BLOCK]
        labels = np.where((codes[:, None] >> bits) & 1, 1, -1)
        values, block_fallbacks = trainer.fit_many(template, labels, X, None)
        if trainer.mirrors_label_flips:
            flipped, flipped_fallbacks = 1.0 - values, block_fallbacks
        else:
            flipped, flipped_fallbacks = trainer.fit_many(template, -labels, X, None)
        n_fallbacks += block_fallbacks + flipped_fallbacks
        w, w_flipped = weights[codes], flipped_weights[codes]
        m1 += w @ values + w_flipped @ flipped
        m2 += w @ values ** 2 + w_flipped @ flipped ** 2
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
