"""Experiment harnesses: selective prediction, active learning, trial sweeps.

All error measurement is the mean Bernoulli KL divergence from the true
probabilities to the model's predictions, which is only computable on
semi-synthetic data; every harness therefore consumes a SemiSyntheticDataset.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from . import errors, rng
from ._io import dump_json, format_float, write_table
from .config import ExperimentConfig
from .dataset import (Dataset, LabelDrawSeed, SemiSyntheticDataset,
                      gaussian_features, load_csv, semisynthetic_from_model,
                      two_cluster_population)
from .glm import (FitOptions, LogisticTrainer, TrainerHandle, bernoulli_kl,
                  fit_logistic, fit_with_fallback, LogisticModel, mean_kl,
                  predict_proba)
from .regret import _initial_fit, _prediction_samples, estimate_regret, true_regret
from .theory import q_values

RANKINGS = ("true_regret", "estimated_regret", "oracle_error")
STRATEGIES = ("true_regret", "estimated_regret", "uniform")
EXPERIMENTS = ("theory_vs_actual", "selective", "active")
DEFAULT_GRID_POINTS = 21


# ---------------------------------------------------------------------------
# selective prediction


@dataclass(frozen=True)
class SelectiveCurve:
    """Coverage / error trade-off as the score cutoff varies."""

    cutoffs: np.ndarray
    coverages: np.ndarray
    mean_kls: np.ndarray
    n_kept: np.ndarray
    ranking: str

    def __post_init__(self):
        for name in ("cutoffs", "coverages", "mean_kls"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        kept = np.array(self.n_kept, dtype=np.int64)
        kept.setflags(write=False)
        object.__setattr__(self, "n_kept", kept)
        if np.any(np.diff(self.coverages) < 0):
            raise ValueError("coverage must be non-decreasing in the cutoff")
        if self.coverages.size and self.coverages[-1] != 1.0:
            raise ValueError("the final cutoff must keep every point")


def selective_prediction_curve(ss: SemiSyntheticDataset, model: LogisticModel,
                               ranking_scores, grid=None, *,
                               ranking: str = "estimated_regret",
                               dedupe: bool = True) -> SelectiveCurve:
    """Error versus coverage when predictions with score above a cutoff abstain.

    For each cutoff c the points with score <= c are kept and the mean KL to
    the true probabilities is computed over them. Cutoffs keeping no point are
    dropped (an all-empty grid is an error); the grid must reach max(score) so
    the last entry always covers the whole dataset. The default grid is the 21
    evenly spaced quantiles of the scores. With ranking="oracle_error" pass
    the per-point KL itself as the score; that curve is the best achievable.
    """
    if ranking not in RANKINGS:
        raise ValueError(f"ranking must be one of {RANKINGS}")
    scores = np.asarray(ranking_scores, dtype=float)
    n = ss.base.n_points
    if scores.shape != (n,):
        raise errors.LengthMismatch(f"{n} points but {scores.size} scores")
    if not np.all(np.isfinite(scores)):
        raise ValueError("ranking scores must be finite")
    if grid is None:
        grid = np.quantile(scores, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
    cutoffs = np.sort(np.asarray(grid, dtype=float))
    if cutoffs.size < 2:
        raise ValueError("the cutoff grid must contain at least 2 values")
    if cutoffs[-1] < scores.max():
        raise ValueError("the cutoff grid must include a value >= max(score)")

    pred = predict_proba(model, ss.base.features)
    kl = bernoulli_kl(ss.true_probs, pred)

    rows = []
    for c in cutoffs:
        keep = scores <= c
        kept = int(keep.sum())
        if kept == 0:
            continue
        rows.append((float(c), kept / n, float(kl[keep].mean()), kept))
    if not rows:
        raise errors.EmptyKeptSet("every cutoff lies below the smallest score")
    if dedupe:
        deduped = []
        for row in rows:
            if deduped and deduped[-1][3] == row[3]:
                deduped[-1] = row  # same kept set: keep the larger cutoff
            else:
                deduped.append(row)
        rows = deduped
    cut, cov, kls, kept = zip(*rows)
    return SelectiveCurve(np.array(cut), np.array(cov), np.array(kls),
                          np.array(kept), ranking)


def oracle_error_scores(ss: SemiSyntheticDataset, model: LogisticModel) -> np.ndarray:
    """Per-point KL of the model's predictions; the score the oracle curve ranks by."""
    return bernoulli_kl(ss.true_probs, predict_proba(model, ss.base.features))


# ---------------------------------------------------------------------------
# active learning


@dataclass(frozen=True)
class ActiveLearningTrace:
    """Mean KL over the whole population after each acquisition batch."""

    n_labeled: np.ndarray
    mean_kl: np.ndarray
    strategy: str
    seed: int

    def __post_init__(self):
        n_labeled = np.array(self.n_labeled, dtype=np.int64)
        kl = np.array(self.mean_kl, dtype=float)
        if n_labeled.shape != kl.shape:
            raise errors.LengthMismatch("trace arrays must share one length")
        if np.any(np.diff(n_labeled) <= 0):
            raise ValueError("n_labeled must be strictly increasing")
        n_labeled.setflags(write=False)
        kl.setflags(write=False)
        object.__setattr__(self, "n_labeled", n_labeled)
        object.__setattr__(self, "mean_kl", kl)


def _pool_scores(ss: SemiSyntheticDataset, labeled: np.ndarray, pool: np.ndarray,
                 predictor, warm_state, trainer: TrainerHandle, K: int,
                 strategy: str, seed: int, step: int) -> np.ndarray:
    """Acquisition scores for the pool points under one strategy."""
    if strategy == "uniform":
        return rng.substream(seed, rng.UNIFORM_ACQUISITION, step).random(pool.size)
    features = ss.base.features
    labeled_data = Dataset(features[labeled], ss.base.labels[labeled],
                           ss.base.feature_names)
    if strategy == "estimated_regret":
        resample_probs = np.asarray(predictor(features[labeled]), dtype=float)
    else:  # true_regret
        resample_probs = ss.true_probs[labeled]
    step_seed = rng.derive_master(seed, rng.ACQUISITION_SCORE, step)
    samples, _ = _prediction_samples(labeled_data, resample_probs, features[pool],
                                     trainer, K, step_seed, warm_state)
    return samples.var(axis=0, ddof=1)


def active_learning_run(ss: SemiSyntheticDataset, trainer: TrainerHandle, K: int,
                        seed: int, *, strategy: str,
                        initial_fraction: float = 0.5, batch: int = 1,
                        n_batches: Optional[int] = None) -> ActiveLearningTrace:
    """Grow the labeled set batch by batch, guided by per-point scores.

    Starts from a seeded split at initial_fraction. Each step refits on the
    labeled points, scores the pool (resampling variance under the chosen
    strategy, or uniform random), moves the top-batch pool points into the
    labeled set (score ties break toward the lower point index), and records
    the mean KL of the current model over all points. n_batches=None keeps
    acquiring until the pool is empty.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if not 0.0 < initial_fraction < 1.0:
        raise ValueError("initial_fraction must lie in (0, 1)")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    n = ss.base.n_points
    n_init = int(round(initial_fraction * n))
    n_init = max(1, min(n - 1, n_init))
    permutation = rng.substream(seed, rng.POOL_SPLIT, 0).permutation(n)
    labeled = np.sort(permutation[:n_init])
    pool = np.sort(permutation[n_init:])
    if pool.size == 0:
        raise errors.EmptyPool("no unlabeled points remain after the initial split")

    features = ss.base.features

    def fit_labeled(current, warm):
        data = Dataset(features[current], ss.base.labels[current], ss.base.feature_names)
        return fit_with_fallback(trainer, data, warm)

    predictor, warm_state = _initial_fit(
        trainer, Dataset(features[labeled], ss.base.labels[labeled],
                         ss.base.feature_names))

    trace_n = [int(labeled.size)]
    trace_kl = [mean_kl(ss.true_probs, predictor(features))]

    step = 0
    while pool.size and (n_batches is None or step < n_batches):
        scores = _pool_scores(ss, labeled, pool, predictor, warm_state, trainer,
                              K, strategy, seed, step)
        take = min(batch, pool.size)
        # descending score, ties toward the smaller point index
        order = np.lexsort((pool, -scores))
        chosen = pool[order[:take]]
        labeled = np.sort(np.concatenate([labeled, chosen]))
        pool = np.setdiff1d(pool, chosen, assume_unique=True)
        predictor, warm_state, _ = fit_labeled(labeled, warm_state)
        trace_n.append(int(labeled.size))
        trace_kl.append(mean_kl(ss.true_probs, predictor(features)))
        step += 1

    return ActiveLearningTrace(np.array(trace_n), np.array(trace_kl), strategy, int(seed))


# ---------------------------------------------------------------------------
# multi-trial orchestration


@dataclass(frozen=True)
class TrialSummary:
    """Across-trial quartile summary of one tracked quantity per position."""

    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    min: np.ndarray
    max: np.ndarray
    n_trials: int

    def __post_init__(self):
        arrays = {}
        for name in ("median", "q25", "q75", "min", "max"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        if not (np.all(arrays["min"] <= arrays["q25"])
                and np.all(arrays["q25"] <= arrays["median"])
                and np.all(arrays["median"] <= arrays["q75"])
                and np.all(arrays["q75"] <= arrays["max"])):
            raise ValueError("quartile summary is not ordered")


def summarize_trials(per_trial: np.ndarray) -> TrialSummary:
    """Quartiles and range across the trial axis (rows) of a trials x positions array."""
    per_trial = np.atleast_2d(np.asarray(per_trial, dtype=float))
    qs = np.percentile(per_trial, [0, 25, 50, 75, 100], axis=0)
    return TrialSummary(median=qs[2], q25=qs[1], q75=qs[3], min=qs[0], max=qs[4],
                        n_trials=per_trial.shape[0])


@dataclass(frozen=True)
class TrialsResult:
    """Raw per-trial series plus their across-trial summaries."""

    experiment: str
    positions: np.ndarray
    series: Dict[str, np.ndarray]          # name -> (n_trials, n_positions)
    summaries: Dict[str, TrialSummary]
    extras: Dict[str, np.ndarray]          # trial-independent vectors
    config: ExperimentConfig


def base_population(config: ExperimentConfig):
    """Fixed features and ground-truth model shared by all trials.

    Returns (features, ground_truth, ground_truth_ridge_or_None).
    """
    if config.dataset == "two_cluster":
        features, model = two_cluster_population(config.n_points, p_high=config.p_high)
        return features, model, None
    if config.dataset == "gaussian":
        theta = config.true_theta
        if theta is None:
            theta = [0.6 if i % 2 == 0 else -0.6 for i in range(config.n_features)]
        features = gaussian_features(config.n_points, config.n_features,
                                     config.master_seed)
        model = LogisticModel(np.asarray(theta, dtype=float), includes_intercept=False)
        return features, model, None
    # csv: ground truth is a ridge fit on the raw labels
    data = load_csv(config.data_path, config.label_column)
    opts = FitOptions(ridge=config.ground_truth_ridge,
                      include_intercept=config.ground_truth_intercept)
    model = fit_logistic(data, opts)
    return data.features, model, config.ground_truth_ridge


def _trial_dataset(features, ground_truth, gt_ridge, config, stream_index):
    return semisynthetic_from_model(features, ground_truth,
                                    LabelDrawSeed(config.master_seed, stream_index),
                                    gt_ridge=gt_ridge)


def _reference_true_regret(features, ground_truth, gt_ridge, config,
                           trainer) -> np.ndarray:
    """One true-regret vector shared by all trials (it has no trial dependence)."""
    ref_master = rng.derive_master(config.master_seed, rng.REFERENCE, 0)
    ss = semisynthetic_from_model(features, ground_truth, LabelDrawSeed(ref_master, 0),
                                  gt_ridge=gt_ridge)
    report = true_regret(ss, trainer, config.k_resamples,
                         rng.derive_master(ref_master, rng.TRIAL, 0))
    return report.regret


def run_trials(config: ExperimentConfig, experiment: str) -> TrialsResult:
    """Repeat an experiment across label redraws and aggregate per position.

    Trial t regenerates the semi-synthetic labels with stream index t while
    the features and ground truth stay fixed, so trials differ only in which
    labels were originally observed. Everything derives from the master seed;
    permuting trial execution order cannot change any per-trial artifact.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}")
    config.validate()
    if (experiment == "selective" and config.cutoff_grid is not None
            and len(config.cutoff_grid) != DEFAULT_GRID_POINTS):
        raise ValueError(f"trials aggregate selective curves over {DEFAULT_GRID_POINTS} "
                         f"cutoffs; the cutoff_grid has {len(config.cutoff_grid)}")
    features, ground_truth, gt_ridge = base_population(config)
    trainer = LogisticTrainer(config.fit_options())
    n = features.shape[0]

    series: Dict[str, list] = {}
    extras: Dict[str, np.ndarray] = {}

    if experiment == "theory_vs_actual":
        positions = np.arange(n, dtype=float)
        extras["true_regret"] = _reference_true_regret(
            features, ground_truth, gt_ridge, config, trainer)
        series = {"estimated_regret": [], "q": []}
        for t in range(config.n_trials):
            ss = _trial_dataset(features, ground_truth, gt_ridge, config, t)
            trial_seed = rng.derive_master(config.master_seed, rng.TRIAL, t)
            report = estimate_regret(ss.base, trainer, config.k_resamples,
                                     trial_seed)
            model = fit_logistic(ss.base, config.fit_options())
            series["estimated_regret"].append(report.regret)
            series["q"].append(q_values(model, features))

    elif experiment == "selective":
        positions = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
        extras["true_regret"] = _reference_true_regret(
            features, ground_truth, gt_ridge, config, trainer)
        series = {"estimated_kl": [], "true_kl": [], "oracle_kl": [],
                  "estimated_coverage": []}
        for t in range(config.n_trials):
            ss = _trial_dataset(features, ground_truth, gt_ridge, config, t)
            trial_seed = rng.derive_master(config.master_seed, rng.TRIAL, t)
            model = fit_logistic(ss.base, config.fit_options())
            report = estimate_regret(ss.base, trainer, config.k_resamples,
                                     trial_seed)
            grid = config.cutoff_grid
            curves = {
                "estimated_kl": selective_prediction_curve(
                    ss, model, report.regret, grid, ranking="estimated_regret",
                    dedupe=False),
                "true_kl": selective_prediction_curve(
                    ss, model, extras["true_regret"], grid, ranking="true_regret",
                    dedupe=False),
                "oracle_kl": selective_prediction_curve(
                    ss, model, oracle_error_scores(ss, model), grid,
                    ranking="oracle_error", dedupe=False),
            }
            for name, curve in curves.items():
                if curve.mean_kls.size != positions.size:
                    raise ValueError("custom cutoff grids must keep every cutoff "
                                     "non-empty for cross-trial aggregation")
                series[name].append(curve.mean_kls)
            series["estimated_coverage"].append(curves["estimated_kl"].coverages)

    else:  # active
        first_trace = None
        series = {strategy: [] for strategy in STRATEGIES}
        for t in range(config.n_trials):
            ss = _trial_dataset(features, ground_truth, gt_ridge, config, t)
            trial_seed = rng.derive_master(config.master_seed, rng.TRIAL, t)
            for strategy in STRATEGIES:
                trace = active_learning_run(
                    ss, trainer, config.k_resamples, trial_seed,
                    strategy=strategy, initial_fraction=config.initial_fraction,
                    batch=config.batch_size, n_batches=config.n_batches)
                series[strategy].append(trace.mean_kl)
                if first_trace is None:
                    first_trace = trace
        positions = first_trace.n_labeled.astype(float)
        extras["n_labeled"] = first_trace.n_labeled.astype(float)

    series_arrays = {name: np.vstack(rows) for name, rows in series.items()}
    summaries = {name: summarize_trials(mat) for name, mat in series_arrays.items()}
    return TrialsResult(experiment=experiment, positions=positions,
                        series=series_arrays, summaries=summaries,
                        extras=extras, config=config)


# ---------------------------------------------------------------------------
# serialization


def save_trials_result(result: TrialsResult, out_dir) -> None:
    """One CSV per series (rows = trials) plus a JSON of summaries."""
    header = ["trial", *map(format_float, result.positions)]
    for name, matrix in result.series.items():
        write_table(os.path.join(out_dir, f"trials_{name}.csv"), header,
                    [np.arange(matrix.shape[0]), *matrix.T])
    payload = {
        "experiment": result.experiment,
        "positions": result.positions,
        "extras": result.extras,
        "summaries": {name: asdict(s) for name, s in result.summaries.items()},
        "config": result.config.to_dict(),
    }
    dump_json(os.path.join(out_dir, "summary.json"), payload)
