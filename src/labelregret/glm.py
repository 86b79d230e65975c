"""Logistic regression by Newton's method, plus the evaluation metrics.

The optimizer minimizes the sum-form loss sum_i log(1 + exp(-y_i x_i'theta))
(optionally plus ridge/2 * ||theta||^2) with full Newton steps, a Cholesky
solve, and step halving. fit_logistic_batch runs the same iteration for many
label vectors on one feature matrix at once. Labels are in {-1, +1} throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import linalg
from scipy.special import rel_entr
from scipy.stats import rankdata

from . import errors
from ._io import NUMBER, read_json

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

# Probabilities are clipped to [PROB_CLIP, 1 - PROB_CLIP] inside log_loss and
# the KL metrics so separable refits cannot produce infinities.
PROB_CLIP = 1e-12
# Unregularized fits whose parameter norm passes this are declared separable.
DIVERGENCE_GUARD = 1e6
MAX_HALVINGS = 30
# fit_logistic_batch advances at most this many label entries (rows times
# points) at once, which bounds its working arrays whatever the row count.
BATCH_ENTRIES = 1 << 14
# Ridge escalation ladder applied when an unregularized refit hits a
# separable resample. Counts of such refits are reported, never hidden.
FALLBACK_RIDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

Predictor = Callable[[np.ndarray], np.ndarray]


def sigmoid(z):
    """Stable logistic function 1 / (1 + exp(-z)).

    exp is only ever evaluated at non-positive arguments, so there is no
    overflow anywhere in the float range. NaN input propagates to NaN.
    """
    z = np.asarray(z, dtype=float)
    out = _logistic(z, np.exp(-np.abs(z)))
    if out.ndim == 0:
        return float(out)
    return out


def _logistic(z, e):
    """sigmoid(z) given e = exp(-|z|)."""
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class LogisticModel:
    """Parameter vector of a logistic model.

    If includes_intercept is true, the last entry of theta multiplies an
    implicit constant-1 feature appended after the data columns.
    """

    theta: np.ndarray
    includes_intercept: bool = False

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size == 0:
            raise errors.DimensionMismatch("theta must be a non-empty 1-D vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("model parameters must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def n_features(self) -> int:
        """Number of data columns the model expects (intercept excluded)."""
        return self.theta.size - (1 if self.includes_intercept else 0)


@dataclass(frozen=True)
class FitOptions:
    ridge: float = 0.0
    max_iters: int = 100
    grad_tol: float = 1e-8
    include_intercept: bool = True

    def __post_init__(self):
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


def design_matrix(features, include_intercept: bool) -> np.ndarray:
    """Feature matrix with the constant-1 column appended when requested."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise errors.DimensionMismatch(f"features must be 2-D, got shape {X.shape}")
    if include_intercept:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    return X


def penalized_loss(theta, X, y, ridge: float) -> float:
    """Sum-form logistic loss plus ridge/2 * ||theta||^2, evaluated stably."""
    theta = np.asarray(theta, dtype=float)
    z = X @ theta
    return float(np.logaddexp(0.0, -y * z).sum() + 0.5 * ridge * theta @ theta)


def loss_gradient(theta, X, y, ridge: float) -> np.ndarray:
    p = sigmoid(X @ np.asarray(theta, dtype=float))
    y01 = (np.asarray(y, dtype=float) + 1.0) / 2.0
    return X.T @ (p - y01) + ridge * np.asarray(theta, dtype=float)


def loss_hessian(theta, X, ridge: float) -> np.ndarray:
    p = sigmoid(X @ np.asarray(theta, dtype=float))
    w = p * (1.0 - p)
    H = X.T @ (X * w[:, None])
    if ridge:
        H = H + ridge * np.eye(X.shape[1])
    return H


def fit_logistic(data: "Dataset", opts: FitOptions = FitOptions(), *,
                 theta0=None, return_trace: bool = False):
    """Fit a logistic model by Newton iteration with step halving.

    Stops once the infinity norm of the penalized gradient is at or below
    opts.grad_tol. With ridge 0 the features must be full rank and the data
    must not be linearly separable, otherwise no finite unique optimum exists;
    rank deficiency raises SingularHessian and separability raises
    FitDiverged. When return_trace is true the per-iteration penalized loss
    values are returned alongside the model (the sequence never increases).
    """
    X = design_matrix(data.features, opts.include_intercept)
    y = np.asarray(data.labels, dtype=float)
    n, d = X.shape
    if opts.ridge == 0.0 and np.linalg.matrix_rank(X) < d:
        raise errors.SingularHessian(
            f"feature matrix has rank below {d} and no ridge is applied")

    if theta0 is None:
        theta = np.zeros(d)
    else:
        theta = np.array(theta0, dtype=float)
        if theta.shape != (d,):
            raise errors.DimensionMismatch(
                f"warm start has shape {theta.shape}, expected ({d},)")

    loss = penalized_loss(theta, X, y, opts.ridge)
    trace = [loss]
    converged = False
    for _ in range(opts.max_iters):
        if opts.ridge == 0.0 and np.linalg.norm(theta) > DIVERGENCE_GUARD:
            raise errors.FitDiverged(
                f"parameter norm exceeded {DIVERGENCE_GUARD:g}; data looks separable")
        grad = loss_gradient(theta, X, y, opts.ridge)
        if np.max(np.abs(grad)) <= opts.grad_tol:
            converged = True
            break
        H = loss_hessian(theta, X, opts.ridge)
        try:
            factor = linalg.cho_factor(H, check_finite=False)
        except np.linalg.LinAlgError:
            # Rank was verified above, so a non-PD Hessian means the Newton
            # weights collapsed on the way to an infinite optimum.
            raise errors.FitDiverged("Newton system collapsed; data looks separable")
        step = linalg.cho_solve(factor, -grad, check_finite=False)
        # grad' H^-1 grad / 2 is the decrease the full step achieves up to
        # higher-order terms. Once it sinks below the float resolution of the
        # loss value, a loss-based line search only sees rounding noise; take
        # the pure Newton step there (quadratic-convergence phase, true loss
        # drops by under one ulp) and keep the bookkeeping monotone.
        predicted = -0.5 * float(grad @ step)
        floor = 16.0 * np.finfo(float).eps * max(1.0, abs(loss))
        if predicted <= floor:
            theta = theta + step
            loss = min(penalized_loss(theta, X, y, opts.ridge), loss)
            trace.append(loss)
            continue
        scale = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + scale * step
            if np.all(candidate == theta):
                break  # halved below float resolution: no progress this way
            candidate_loss = penalized_loss(candidate, X, y, opts.ridge)
            if candidate_loss <= loss:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break  # observable decrease expected but not found: stop and re-check
        theta, loss = candidate, candidate_loss
        trace.append(loss)

    if not converged:
        grad = loss_gradient(theta, X, y, opts.ridge)
        if np.max(np.abs(grad)) > opts.grad_tol:
            raise errors.NoConvergence(
                f"gradient norm {np.max(np.abs(grad)):.3e} above tolerance "
                f"{opts.grad_tol:g} after {opts.max_iters} iterations")

    if opts.ridge == 0.0:
        # The gradient can sink below any tolerance by sheer underflow when
        # the data is separable; a fitted direction that classifies every
        # training point strictly correctly proves there is no finite optimum.
        margins = y * (X @ theta)
        if np.any(theta) and np.min(margins) > 0:
            raise errors.FitDiverged(
                "fitted direction separates the training data; no finite optimum")

    model = LogisticModel(theta, opts.include_intercept)
    if return_trace:
        return model, trace
    return model


def fit_logistic_batch(X, label_rows, opts: FitOptions = FitOptions(), *, theta0=None):
    """Fit one logistic model per row of label_rows, all sharing the design X.

    X is the n x d design matrix (intercept column already appended, see
    design_matrix) and label_rows a K x n matrix of {-1,+1} labels. Every row
    runs the Newton iteration of fit_logistic from theta0 (zeros when None),
    with all rows still iterating advanced together: each iteration is one
    sigmoid over the K x n margins, one K x d gradient, one product to K d x d
    Hessians and one batched solve, and the step halving and the stopping
    rules act per row. Every check of fit_logistic is kept per row.

    Returns (thetas, separable): the K x d fitted parameters and a boolean
    K-vector, True exactly where fit_logistic would raise FitDiverged or
    SingularHessian on that row; those rows of thetas are NaN. Raises
    NoConvergence when any other row ends above opts.grad_tol.
    """
    X = np.asarray(X, dtype=float)
    label_rows = np.asarray(label_rows)
    n, d = X.shape
    if label_rows.ndim != 2 or label_rows.shape[1] != n:
        raise errors.DimensionMismatch(
            f"label rows have shape {label_rows.shape}, expected (K, {n})")
    K = label_rows.shape[0]
    start = np.zeros(d)
    if theta0 is not None:
        start = np.asarray(theta0, dtype=float)
        if start.shape != (d,):
            raise errors.DimensionMismatch(
                f"warm start has shape {start.shape}, expected ({d},)")
    thetas = np.full((K, d), np.nan)
    separable = np.ones(K, dtype=bool)
    if opts.ridge == 0.0 and np.linalg.matrix_rank(X) < d:
        return thetas, separable
    # Row i of XX is the flattened outer product x_i x_i', so W @ XX stacks
    # the Hessians X' diag(w_k) X of all rows without a K x n x d temporary.
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, d * d)
    block = max(1, BATCH_ENTRIES // n)
    for first in range(0, K, block):
        rows = slice(first, first + block)
        thetas[rows], separable[rows] = _newton_rows(X, XX, label_rows[rows], opts, start)
    return thetas, separable


def _newton_rows(X, XX, label_rows, opts: FitOptions, theta0):
    """fit_logistic_batch on one block of label rows, after the rank check."""
    n, d = X.shape
    Y = np.asarray(label_rows, dtype=float)
    K = Y.shape[0]
    ridge = opts.ridge
    thetas = np.tile(theta0, (K, 1))
    separable = np.zeros(K, dtype=bool)
    Y01 = Y > 0.0
    ridge_eye = ridge * np.eye(d)

    def evaluate(T, rows):
        """Margins, exp(-|margin|) and penalized losses at the parameter rows T.

        The loss terms equal np.logaddexp(0, -y z) of penalized_loss; the
        exponentials are kept for the sigmoid at the same point.
        """
        Z = T @ X.T
        E = np.exp(-np.abs(Z))
        terms = np.log1p(E) + np.maximum(-Y[rows] * Z, 0.0)
        return Z, E, terms.sum(axis=1) + 0.5 * ridge * (T * T).sum(axis=1)

    def gradients(rows):
        """Probabilities and penalized gradients at the current rows' thetas."""
        P = _logistic(Z[rows], E[rows])
        return P, (P - Y01[rows]) @ X + ridge * thetas[rows]

    def accept(rows, T, evaluated):
        """Move rows to T; the recorded loss never increases (see fit_logistic)."""
        thetas[rows] = T
        Z[rows], E[rows], new_loss = evaluated
        loss[rows] = np.minimum(new_loss, loss[rows])

    Z, E, loss = evaluate(thetas, slice(None))  # cached at each row's current theta
    active = np.arange(K)     # rows still iterating
    stopped = []              # rows that left the loop without meeting grad_tol
    for _ in range(opts.max_iters):
        if ridge == 0.0:
            diverged = np.linalg.norm(thetas[active], axis=1) > DIVERGENCE_GUARD
            separable[active[diverged]] = True
            active = active[~diverged]
        P, grad = gradients(active)
        going = np.max(np.abs(grad), axis=1) > opts.grad_tol
        active, P, grad = active[going], P[going], grad[going]
        if active.size == 0:
            break
        H = ((P * (1.0 - P)) @ XX).reshape(-1, d, d) + ridge_eye
        # Rank was verified above, so a non-PD Hessian means the Newton
        # weights collapsed on the way to an infinite optimum.
        factorizable = _cholesky_succeeds(H)
        separable[active[~factorizable]] = True
        active, grad, H = active[factorizable], grad[factorizable], H[factorizable]
        T = thetas[active]
        step = np.linalg.solve(H, -grad[:, :, None])[:, :, 0]
        predicted = -0.5 * np.einsum("kd,kd->k", grad, step)
        floor = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(loss[active]))
        # As in fit_logistic: below the float resolution of the loss, take the
        # pure Newton step and keep the recorded loss monotone.
        pure = predicted <= floor
        rows, candidate = active[pure], T[pure] + step[pure]
        accept(rows, candidate, evaluate(candidate, rows))
        # Step halving for the other rows, each with its own scale.
        search = np.flatnonzero(~pure)
        scale = np.ones(search.size)
        accepted = pure.copy()
        for _ in range(MAX_HALVINGS + 1):
            candidate = T[search] + scale[:, None] * step[search]
            moved = np.any(candidate != T[search], axis=1)  # else halved below float resolution
            search, scale, candidate = search[moved], scale[moved], candidate[moved]
            if search.size == 0:
                break
            rows = active[search]
            cZ, cE, candidate_loss = evaluate(candidate, rows)
            better = candidate_loss <= loss[rows]
            accept(rows[better], candidate[better],
                   (cZ[better], cE[better], candidate_loss[better]))
            accepted[search[better]] = True
            search, scale = search[~better], 0.5 * scale[~better]
        # observable decrease expected but not found: stop and re-check
        stopped.append(active[~accepted])
        active = active[accepted]
    stopped.append(active)  # out of iterations

    recheck = np.concatenate(stopped)
    if recheck.size:
        worst = np.max(np.abs(gradients(recheck)[1]))
        if worst > opts.grad_tol:
            raise errors.NoConvergence(
                f"gradient norm {worst:.3e} above tolerance {opts.grad_tol:g} "
                f"after {opts.max_iters} iterations")

    if ridge == 0.0:
        # As in fit_logistic: a fitted direction that classifies every
        # training point strictly correctly proves there is no finite optimum.
        separable |= np.any(thetas != 0.0, axis=1) & (np.min(Y * Z, axis=1) > 0)
    thetas[separable] = np.nan
    return thetas, separable


def _cholesky_succeeds(H) -> np.ndarray:
    """For each matrix of the stack H, whether its Cholesky factorization exists."""
    try:
        np.linalg.cholesky(H)
        return np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.ones(len(H), dtype=bool)
        for k, h in enumerate(H):
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                ok[k] = False
        return ok


def predict_proba(model: LogisticModel, x):
    """Predicted probability of the +1 label, for one point or a matrix of rows."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = design_matrix(np.atleast_2d(x), model.includes_intercept)
    if X.shape[1] != model.theta.size:
        raise errors.DimensionMismatch(
            f"model has {model.theta.size} parameters but points have "
            f"{X.shape[1]} columns (intercept included)")
    p = sigmoid(X @ model.theta)
    if single:
        return float(p[0])
    return p


# ---------------------------------------------------------------------------
# metrics


def _as_prob_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise errors.LengthMismatch(f"{name} must be 1-D")
    if arr.size and (np.min(arr) < 0 or np.max(arr) > 1 or not np.all(np.isfinite(arr))):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def log_loss(probs, labels) -> float:
    """Mean negative log probability of the observed labels (labels in {-1,+1})."""
    p = _as_prob_array(probs, "probs")
    y = np.asarray(labels)
    if y.shape != p.shape:
        raise errors.LengthMismatch(
            f"probs has length {p.size} but labels has length {y.size}")
    p = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    observed = np.where(y == 1, p, 1.0 - p)
    return float(-np.log(observed).mean())


def auc(probs, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) statistic.

    Equals P(score+ > score-) + 0.5 P(tie) over positive/negative pairs.
    """
    scores = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    if y.shape != scores.shape:
        raise errors.LengthMismatch(
            f"probs has length {scores.size} but labels has length {y.size}")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise errors.SingleClass("need at least one positive and one negative label")
    ranks = rankdata(scores, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def bernoulli_kl(true_probs, pred_probs) -> np.ndarray:
    """Per-point KL divergence from true to predicted Bernoulli distributions."""
    p = _as_prob_array(true_probs, "true_probs")
    q = _as_prob_array(pred_probs, "pred_probs")
    if p.shape != q.shape:
        raise errors.LengthMismatch(
            f"true_probs has length {p.size} but pred_probs has length {q.size}")
    q = np.clip(q, PROB_CLIP, 1.0 - PROB_CLIP)
    return rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q)


def mean_kl(true_probs, pred_probs) -> float:
    """Mean over points of the per-point Bernoulli KL divergence."""
    return float(bernoulli_kl(true_probs, pred_probs).mean())


# ---------------------------------------------------------------------------
# trainers


class TrainerHandle:
    """A deterministic training procedure usable by the resampling estimators.

    fit maps a Dataset to a predictor (feature matrix -> probabilities).
    Subclasses may additionally support warm starts, which the estimators use
    to start each refit from the base optimum, and ridge-escalation refits for
    resamples that turn out separable. fit_many is the estimators' entry
    point for many refits on one feature matrix; subclasses may override it
    with a batched implementation that gives the same results, as
    LogisticTrainer does: its separable rows go down the ladder one rung per
    batch instead of one row at a time.
    """

    name = "trainer"

    def fit(self, data: "Dataset") -> Predictor:
        raise NotImplementedError

    def warm_fit(self, data: "Dataset", state):
        """Fit reusing an opaque warm-start state; returns (predictor, state)."""
        return self.fit(data), state

    def fit_with_extra_ridge(self, data: "Dataset", extra_ridge: float) -> Predictor:
        raise errors.RefitFallbackExhausted(
            f"trainer {self.name!r} has no ridge fallback")

    def fit_many(self, data: "Dataset", label_rows, eval_features, warm_state):
        """Refit on data's features once per row of label_rows.

        Every refit starts from warm_state and falls back to the ridge ladder
        when its resample is separable (see fit_with_fallback). Returns the
        K x m predictions at eval_features and the number of refits that
        needed the ladder.
        """
        samples = np.empty((len(label_rows), np.asarray(eval_features).shape[0]))
        n_fallbacks = 0
        for k, labels in enumerate(label_rows):
            predictor, _, used_fallback = fit_with_fallback(
                self, data.with_labels(labels), warm_state)
            samples[k] = predictor(eval_features)
            n_fallbacks += used_fallback
        return samples, n_fallbacks


class LogisticTrainer(TrainerHandle):
    """Logistic regression trainer around fit_logistic."""

    def __init__(self, opts: FitOptions = FitOptions()):
        self.opts = opts
        self.name = f"logistic(ridge={opts.ridge:g})"

    def _predictor(self, model: LogisticModel) -> Predictor:
        return lambda X: predict_proba(model, X)

    def fit(self, data: "Dataset") -> Predictor:
        return self._predictor(fit_logistic(data, self.opts))

    def warm_fit(self, data: "Dataset", state):
        model = fit_logistic(data, self.opts, theta0=state)
        return self._predictor(model), np.array(model.theta)

    def fit_with_extra_ridge(self, data: "Dataset", extra_ridge: float) -> Predictor:
        opts = replace(self.opts, ridge=self.opts.ridge + extra_ridge)
        return self._predictor(fit_logistic(data, opts))

    def fit_many(self, data: "Dataset", label_rows, eval_features, warm_state):
        """All refits in one fit_logistic_batch call, then one call per ladder rung.

        The rows the first call marks separable go down FALLBACK_RIDGES
        together: each rung refits the rows still pending from a cold start,
        as fit_with_extra_ridge does, and passes on only those still separable.
        """
        include = self.opts.include_intercept
        X = design_matrix(data.features, include)
        label_rows = np.asarray(label_rows)
        thetas, separable = fit_logistic_batch(X, label_rows, self.opts, theta0=warm_state)
        pending = np.flatnonzero(separable)
        n_fallbacks = pending.size
        for extra in FALLBACK_RIDGES:
            if pending.size == 0:
                break
            opts = replace(self.opts, ridge=self.opts.ridge + extra)
            thetas[pending], separable = fit_logistic_batch(X, label_rows[pending], opts)
            pending = pending[separable]
        if pending.size:
            raise _ladder_exhausted()
        samples = sigmoid(thetas @ design_matrix(eval_features, include).T)
        return samples, n_fallbacks


class EchoTrainer(TrainerHandle):
    """Predicts the observed training label as a probability.

    The induced resampling variance is exactly p(1-p) per point, which makes
    this a closed-form oracle for the estimators. It can only predict at its
    own training points.
    """

    name = "echo"

    def fit(self, data: "Dataset") -> Predictor:
        labels01 = (np.asarray(data.labels, dtype=float) + 1.0) / 2.0
        train_features = data.features

        def predict(X):
            X = np.asarray(X, dtype=float)
            if X.shape != train_features.shape or not np.array_equal(X, train_features):
                raise errors.DimensionMismatch(
                    "echo trainer can only predict at its training points")
            return labels01.copy()

        return predict


class ConstantTrainer(TrainerHandle):
    """Ignores the labels and predicts a fixed probability everywhere."""

    def __init__(self, value: float = 0.5):
        if not 0.0 <= value <= 1.0:
            raise ValueError("constant prediction must lie in [0, 1]")
        self.value = float(value)
        self.name = f"constant({value:g})"

    def fit(self, data: "Dataset") -> Predictor:
        value = self.value
        return lambda X: np.full(np.atleast_2d(np.asarray(X)).shape[0], value)


def fit_with_fallback(trainer: TrainerHandle, data: "Dataset", warm_state):
    """Fit, escalating through FALLBACK_RIDGES when a resample is separable.

    Returns (predictor, new_warm_state, fallback_used). The warm state only
    advances on a clean fit.
    """
    try:
        predictor, new_state = trainer.warm_fit(data, warm_state)
        return predictor, new_state, False
    except (errors.FitDiverged, errors.SingularHessian):
        pass
    return fit_on_ridge_ladder(trainer, data), warm_state, True


def fit_on_ridge_ladder(trainer: TrainerHandle, data: "Dataset") -> Predictor:
    """Predictor of the first FALLBACK_RIDGES rung at which the data can be fit."""
    for extra in FALLBACK_RIDGES:
        try:
            return trainer.fit_with_extra_ridge(data, extra)
        except (errors.FitDiverged, errors.SingularHessian):
            continue
    raise _ladder_exhausted()


def _ladder_exhausted() -> errors.RefitFallbackExhausted:
    """The error for a resample that no FALLBACK_RIDGES rung could fit."""
    top = f"up to {FALLBACK_RIDGES[-1]:g}" if FALLBACK_RIDGES else "(the ladder is empty)"
    return errors.RefitFallbackExhausted(
        f"resample could not be fit even with extra ridge {top}")


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: LogisticModel, feature_names) -> dict:
    """The model as the JSON object that load_model reads back."""
    names = list(feature_names)
    if len(names) != model.n_features:
        raise errors.DimensionMismatch(
            f"model expects {model.n_features} features, got {len(names)} names")
    return {
        "theta": model.theta,
        "includes_intercept": bool(model.includes_intercept),
        "feature_names": names,
    }


_MODEL_SCHEMA = {"theta": [NUMBER], "includes_intercept": bool, "feature_names": [str]}


def load_model(path):
    """Read a model JSON file; returns (model, feature_names)."""
    payload = read_json(path, _MODEL_SCHEMA)
    model = LogisticModel(np.asarray(payload["theta"], dtype=float),
                          payload["includes_intercept"])
    return model, payload["feature_names"]
