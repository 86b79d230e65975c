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
from .glm import (FitOptions, LogisticTrainer, TrainerHandle, _freeze, bernoulli_kl,
                  fit_logistic, LogisticModel, mean_kl, predict_proba)
from .regret import _initial_fit, _prediction_samples, estimate_regret, true_regret
from .theory import q_values

RANKINGS = ("true_regret", "estimated_regret", "oracle_error")
STRATEGIES = ("estimated_regret", "true_regret", "uniform")
EXPERIMENTS = ("theory_vs_actual", "selective", "active")
DEFAULT_GRID_POINTS = 21
# Ranking scores are compared after rounding to multiples of TIE_TOLERANCE
# times the largest |score|. Scores that are equal in exact arithmetic (the
# two-cluster population is symmetric) then tie exactly instead of being
# ordered by last-bit rounding noise.
TIE_TOLERANCE = 1e-9


def _tie_rounded(values, scores) -> np.ndarray:
    """values rounded to multiples of TIE_TOLERANCE * max|scores|."""
    values = np.asarray(values, dtype=float)
    unit = TIE_TOLERANCE * float(np.max(np.abs(scores)))
    return values if unit == 0.0 else np.rint(values / unit) * unit


# ---------------------------------------------------------------------------
# selective prediction


@dataclass(frozen=True)
class SelectiveCurve:
    """Coverage / error trade-off as the score cutoff varies."""

    cutoffs: np.ndarray
    coverages: np.ndarray
    mean_kls: np.ndarray
    n_kept: np.ndarray

    def __post_init__(self):
        arrays = [_freeze(self, name) for name in ("cutoffs", "coverages", "mean_kls")]
        arrays.append(_freeze(self, "n_kept", np.int64))
        if len({arr.shape for arr in arrays}) > 1:
            raise errors.LengthMismatch("curve arrays must share one length")
        if np.any(np.diff(self.coverages) < 0):
            raise ValueError("coverage must be non-decreasing in the cutoff")
        if self.coverages.size and self.coverages[-1] != 1.0:
            raise ValueError("the final cutoff must keep every point")


def selective_prediction_curve(ss: SemiSyntheticDataset, model: LogisticModel,
                               ranking_scores, grid=None, *,
                               dedupe: bool = True) -> SelectiveCurve:
    """Error versus coverage when predictions with score above a cutoff abstain.

    For each cutoff c the points with score <= c are kept and the mean KL to
    the true probabilities is computed over them. Scores and cutoffs are
    compared after rounding both to multiples of TIE_TOLERANCE (1e-9) times
    max|score|, so scores within that tolerance are kept or dropped together.
    Cutoffs keeping no point are dropped; the grid must hold no NaN and reach
    max(score), so that the last entry always covers the whole dataset. The
    default grid is the 21 evenly spaced quantiles of the rounded scores.
    Ranking by the per-point KL itself (oracle_error_scores) gives the best
    achievable curve.
    """
    scores = np.asarray(ranking_scores, dtype=float)
    n = ss.base.n_points
    if scores.shape != (n,):
        raise errors.LengthMismatch(f"{n} points but {scores.size} scores")
    if not np.all(np.isfinite(scores)):
        raise ValueError("ranking scores must be finite")
    key = _tie_rounded(scores, scores)
    if grid is None:
        grid = np.quantile(key, np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS))
    cutoffs = np.sort(np.asarray(grid, dtype=float))
    if cutoffs.size < 2:
        raise ValueError("the cutoff grid must contain at least 2 values")
    if np.isnan(cutoffs).any():
        raise ValueError("the cutoff grid must not contain NaN")
    cutoff_keys = _tie_rounded(cutoffs, scores)
    if cutoff_keys[-1] < key.max():
        raise ValueError("the cutoff grid must include a value >= max(score)")

    kl = oracle_error_scores(ss, model)

    rows = []
    for c, c_key in zip(cutoffs, cutoff_keys):
        keep = key <= c_key
        kept = int(keep.sum())
        if kept == 0:
            continue
        if dedupe and rows and rows[-1][3] == kept:
            rows.pop()  # same kept set: keep the larger cutoff
        rows.append((float(c), kept / n, float(kl[keep].mean()), kept))
    cut, cov, kls, kept = zip(*rows)
    return SelectiveCurve(np.array(cut), np.array(cov), np.array(kls),
                          np.array(kept))


def oracle_error_scores(ss: SemiSyntheticDataset, model: LogisticModel) -> np.ndarray:
    """Per-point KL of the model's predictions; the score the oracle curve ranks by."""
    return bernoulli_kl(ss.true_probs, predict_proba(model, ss.base.features))


def selective_curves(ss: SemiSyntheticDataset, model: LogisticModel, estimated, true,
                     grid=None, *, dedupe: bool = True) -> Dict[str, SelectiveCurve]:
    """One selective_prediction_curve per name in RANKINGS: ranked by the
    estimated regret, the true regret and the oracle per-point KL."""
    scores = {"true_regret": true, "estimated_regret": estimated,
              "oracle_error": oracle_error_scores(ss, model)}
    return {name: selective_prediction_curve(ss, model, scores[name], grid, dedupe=dedupe)
            for name in RANKINGS}


def selective_run(ss: SemiSyntheticDataset,
                  config: ExperimentConfig) -> Dict[str, SelectiveCurve]:
    """The single-shot selective experiment on ss: the base fit's curves for
    the regret estimated at the master seed and the true regret at the
    REFERENCE stream of the master seed."""
    trainer = LogisticTrainer(config.fit_options())
    model = _initial_fit(trainer, ss.base)
    estimated = estimate_regret(ss.base, trainer, config.k_resamples, config.master_seed,
                                base=model)
    true = true_regret(ss, trainer, config.k_resamples,
                       rng.derive_master(config.master_seed, rng.REFERENCE, 0), base=model)
    return selective_curves(ss, model, estimated.regret, true.regret, config.cutoff_grid)


# ---------------------------------------------------------------------------
# active learning


@dataclass(frozen=True)
class ActiveLearningTrace:
    """Mean KL over the whole population after each acquisition batch."""

    n_labeled: np.ndarray
    mean_kl: np.ndarray

    def __post_init__(self):
        n_labeled = _freeze(self, "n_labeled", np.int64)
        kl = _freeze(self, "mean_kl")
        if n_labeled.shape != kl.shape:
            raise errors.LengthMismatch("trace arrays must share one length")
        if np.any(np.diff(n_labeled) <= 0):
            raise ValueError("n_labeled must be strictly increasing")


def _pool_scores(ss: SemiSyntheticDataset, labeled: np.ndarray, pool: np.ndarray,
                 predictor, trainer: TrainerHandle, K: int,
                 strategy: str, seed: int, step: int) -> np.ndarray:
    """Acquisition scores for the pool points under one strategy; the
    resampled refits start from predictor, the current fit."""
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
                                     trainer, K, step_seed, predictor)
    return samples.var(axis=0, ddof=1)


def active_learning_run(ss: SemiSyntheticDataset, trainer: TrainerHandle, K: int,
                        seed: int, *, strategy: str,
                        initial_fraction: float = 0.5, batch: int = 1,
                        n_batches: Optional[int] = None) -> ActiveLearningTrace:
    """Grow the labeled set batch by batch, guided by per-point scores.

    Starts from a seeded split at initial_fraction. Each step refits on the
    labeled points, scores the pool (resampling variance under the chosen
    strategy, or uniform random), moves the top-batch pool points into the
    labeled set, and records the mean KL of the current model over all points.
    Scores are ranked after rounding to multiples of TIE_TOLERANCE (1e-9)
    times their largest magnitude, and ties break toward the lower point
    index. n_batches=None keeps acquiring until the pool is empty.
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

    def labeled_data():
        return Dataset(features[labeled], ss.base.labels[labeled], ss.base.feature_names)

    predictor = _initial_fit(trainer, labeled_data())

    trace_n = [int(labeled.size)]
    trace_kl = [mean_kl(ss.true_probs, predictor(features))]

    step = 0
    while pool.size and (n_batches is None or step < n_batches):
        scores = _pool_scores(ss, labeled, pool, predictor, trainer,
                              K, strategy, seed, step)
        take = min(batch, pool.size)
        # descending rounded score, ties toward the smaller point index
        order = np.lexsort((pool, -_tie_rounded(scores, scores)))
        chosen = pool[order[:take]]
        labeled = np.sort(np.concatenate([labeled, chosen]))
        pool = np.setdiff1d(pool, chosen, assume_unique=True)
        # No ridge fallback here: the labeled set only grows from one that
        # fitted cleanly, and a superset of non-separable, full-rank rows is
        # neither separable nor rank deficient. The exception is a clean fit
        # under quasi-complete separation, which the engine accepts as
        # converged; its warm refits can raise NoConvergence (ROADMAP 3a).
        predictor = trainer.fit(labeled_data(), predictor)
        trace_n.append(int(labeled.size))
        trace_kl.append(mean_kl(ss.true_probs, predictor(features)))
        step += 1

    return ActiveLearningTrace(np.array(trace_n), np.array(trace_kl))


def active_runs(ss: SemiSyntheticDataset, trainer: TrainerHandle,
                config: ExperimentConfig, seed: int) -> Dict[str, ActiveLearningTrace]:
    """One active_learning_run per strategy, in STRATEGIES order, with the
    config's resample count and acquisition schedule."""
    return {strategy: active_learning_run(
                ss, trainer, config.k_resamples, seed, strategy=strategy,
                initial_fraction=config.initial_fraction, batch=config.batch_size,
                n_batches=config.n_batches)
            for strategy in STRATEGIES}


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
        arrays = {name: _freeze(self, name) for name in ("median", "q25", "q75", "min", "max")}
        if len({arr.shape for arr in arrays.values()}) > 1:
            raise errors.LengthMismatch("summary arrays must share one length")
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
    """Raw per-trial series plus their across-trial summaries. Every series
    is an n_trials x n_positions matrix, all of one shape, and every summary
    has one entry per position, or LengthMismatch; the extras have no length
    rule, as a selective run's true_regret has one entry per point."""

    experiment: str
    positions: np.ndarray
    series: Dict[str, np.ndarray]          # name -> (n_trials, n_positions)
    summaries: Dict[str, TrialSummary]
    extras: Dict[str, np.ndarray]          # trial-independent vectors
    config: ExperimentConfig

    def __post_init__(self):
        positions, series, _ = (_freeze(self, name) for name in ("positions", "series", "extras"))
        shapes = {m.shape for m in series.values()}
        columns = {s[1:] for s in shapes} | {s.median.shape for s in self.summaries.values()}
        if positions.ndim != 1 or len(shapes) > 1 or columns - {positions.shape}:
            raise errors.LengthMismatch(f"{positions.size} positions need series of one shape "
                                        "with one column each and summaries with one entry each")


def base_population(config: ExperimentConfig):
    """(features, ground_truth, ground_truth_ridge_or_None, feature_names) of
    the config's population, shared by all trials. A CSV's ground truth is a
    ridge fit to its labels, and its names are the header's; the built-in
    populations have no ridge and the names (), the default names x0, x1, ...
    """
    if config.dataset == "two_cluster":
        features, model = two_cluster_population(config.n_points, p_high=config.p_high)
        return features, model, None, ()
    if config.dataset == "gaussian":
        # drawn first: numpy rejects an impossible shape before allocating anything
        features = gaussian_features(config.n_points, config.n_features,
                                     config.master_seed)
        theta = config.true_theta
        if theta is None:
            theta = np.where(np.arange(config.n_features) % 2 == 0, 0.6, -0.6)
        model = LogisticModel(np.asarray(theta, dtype=float), includes_intercept=False)
        return features, model, None, ()
    data = load_csv(config.data_path, config.label_column)
    opts = FitOptions(ridge=config.ground_truth_ridge,
                      include_intercept=config.ground_truth_intercept)
    model = fit_logistic(data, opts)
    return data.features, model, config.ground_truth_ridge, data.feature_names


def population_draw(config: ExperimentConfig, stream_index: int,
                    population=None) -> SemiSyntheticDataset:
    """Labels drawn from stream stream_index of the master seed over the
    population, which is base_population(config) when not given: the data of
    trials, of semisynth, and of selective and active without --semisynth."""
    features, ground_truth, gt_ridge, names = (base_population(config) if population is None
                                               else population)
    return semisynthetic_from_model(features, ground_truth,
                                    LabelDrawSeed(config.master_seed, stream_index),
                                    names, gt_ridge)


def _trial_series(experiment, ss, trainer, config, trial_seed, reference, fitted):
    """(positions, series by name) of one trial of the experiment; fitted is
    the trial's entry of run_trials' fit_each call (None for active)."""
    if experiment == "active":
        traces = active_runs(ss, trainer, config, trial_seed)
        return (traces["uniform"].n_labeled.astype(float),
                {name: trace.mean_kl for name, trace in traces.items()})
    model = _initial_fit(trainer, ss.base, fitted)
    estimated = estimate_regret(ss.base, trainer, config.k_resamples, trial_seed,
                                base=model).regret
    if experiment == "theory_vs_actual":
        return (np.arange(ss.base.n_points, dtype=float),
                {"estimated_regret": estimated, "q": q_values(model, ss.base.features)})
    curves = selective_curves(ss, model, estimated, reference, config.cutoff_grid,
                              dedupe=False)
    if any(curve.mean_kls.size != DEFAULT_GRID_POINTS for curve in curves.values()):
        raise ValueError("custom cutoff grids must keep every cutoff "
                         "non-empty for cross-trial aggregation")
    series = {f"{name.split('_')[0]}_kl": curve.mean_kls for name, curve in curves.items()}
    series["estimated_coverage"] = curves["estimated_regret"].coverages
    return np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS), series


def run_trials(config: ExperimentConfig, experiment: str) -> TrialsResult:
    """Repeat an experiment across label redraws and aggregate per position.

    Trial t regenerates the semi-synthetic labels with stream index t, the
    row of n draws at t of the master seed's label stream, while the features
    and ground truth stay fixed, so trials differ only in which labels were
    originally observed. Everything derives from the master seed;
    permuting trial execution order cannot change any per-trial artifact.

    theory_vs_actual and selective share one true regret, that of the
    REFERENCE draw of the master seed. Its base model and every trial's are
    cold fits on the population's features, so they are made together by one
    trainer.fit_each call, each equal to its own fit. A draw whose entry is
    None is fitted alone when its turn comes, the reference first, and a fit
    that fails there raises InitialFitFailed (see _initial_fit).
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}")
    config.validate()
    if (experiment == "selective" and config.cutoff_grid is not None
            and len(config.cutoff_grid) != DEFAULT_GRID_POINTS):
        raise ValueError(f"trials aggregate selective curves over {DEFAULT_GRID_POINTS} "
                         f"cutoffs; the cutoff_grid has {len(config.cutoff_grid)}")
    population = base_population(config)
    trainer = LogisticTrainer(config.fit_options())
    draws = [population_draw(config, t, population) for t in range(config.n_trials)]
    reference, fits = None, [None] * config.n_trials
    if experiment != "active":
        ref_master = rng.derive_master(config.master_seed, rng.REFERENCE, 0)
        ref = population_draw(config.replace(master_seed=ref_master), 0, population)
        ref_fit, *fits = trainer.fit_each(
            ref.base, np.stack([ss.base.labels for ss in (ref, *draws)]))
        reference = true_regret(ref, trainer, config.k_resamples,
                                rng.derive_master(ref_master, rng.TRIAL, 0),
                                base=_initial_fit(trainer, ref.base, ref_fit)).regret
    trials = []
    for t, (ss, fitted) in enumerate(zip(draws, fits)):
        trial_seed = rng.derive_master(config.master_seed, rng.TRIAL, t)
        trials.append(_trial_series(experiment, ss, trainer, config, trial_seed, reference,
                                    fitted))

    positions = trials[0][0]
    extras = {"n_labeled": positions} if reference is None else {"true_regret": reference}
    series_arrays = {name: np.vstack([series[name] for _, series in trials])
                     for name in trials[0][1]}
    summaries = {name: summarize_trials(mat) for name, mat in series_arrays.items()}
    return TrialsResult(experiment=experiment, positions=positions,
                        series=series_arrays, summaries=summaries,
                        extras=extras, config=config)


# ---------------------------------------------------------------------------
# serialization


def save_trials_result(result: TrialsResult, out_dir) -> list:
    """One CSV per series (rows = trials) plus a JSON of summaries; returns
    the paths written."""
    header = ["trial", *map(format_float, result.positions)]
    paths = []
    for name, matrix in result.series.items():
        paths.append(os.path.join(out_dir, f"trials_{name}.csv"))
        write_table(paths[-1], header, [np.arange(matrix.shape[0]), *matrix.T])
    payload = {
        "experiment": result.experiment,
        "positions": result.positions,
        "extras": result.extras,
        "summaries": {name: asdict(s) for name, s in result.summaries.items()},
        "config": result.config.to_dict(),
    }
    paths.append(os.path.join(out_dir, "summary.json"))
    dump_json(paths[-1], payload)
    return paths
