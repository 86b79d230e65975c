"""Closed-form per-point variance for logistic regression.

For a fitted logistic model with predictions p_i, the quantity

    q_i = p_i^2 (1 - p_i)^2 x_i' H^{-1} x_i,   H = sum_j p_j (1 - p_j) x_j x_j'

approximates the resampling variance of point i's prediction. The epsilon
statistic bounds the relative error of that approximation; it certifies the
approximation only when epsilon < 1, which requires enormous sample sizes at
the default constant, but its scaling in n is informative long before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import errors
from .glm import LogisticModel, _freeze, design_matrix, sigmoid

DEFAULT_CONSTANT = 800.0


def compute_hessian(model: LogisticModel, features) -> np.ndarray:
    """Hessian of the (unpenalized) sum-form logistic loss at the model parameters.

    When the model has an intercept the constant-1 column participates as an
    ordinary feature, so the matrix is (d+1) x (d+1).
    """
    X, p = _design_and_probs(model, features)
    return _hessian(X, p)


def q_values(model: LogisticModel, features) -> np.ndarray:
    """Closed-form variance q_i per point, via one inverse of the d x d matrix H."""
    X, p = _design_and_probs(model, features)
    return _q_from(X, p, _hessian(X, p))


def epsilon_bound(model: LogisticModel, features,
                  constant: float = DEFAULT_CONSTANT):
    """Relative-error statistic for the closed-form variance.

    epsilon = constant * d * X_max * (log(n X_max / X_min) + X_max ||theta||_2)
              / sqrt(lambda_min)

    with X_max / X_min the extreme point norms and lambda_min the smallest
    eigenvalue of H. Returns (epsilon, bound_applies) where bound_applies is
    true iff epsilon < 1 and n >= 2. The default constant 800 is loose by
    construction; it is a parameter so tighter empirical values can be tried.
    """
    X, p = _design_and_probs(model, features)
    bound = _bound_fields(model, X, _hessian(X, p), constant)
    return bound["epsilon"], bound["bound_applies"]


def _design_and_probs(model: LogisticModel, features):
    """The design matrix of features and the model's probabilities at its rows."""
    X = design_matrix(features, model.includes_intercept)
    if X.shape[1] != model.theta.size:
        raise errors.DimensionMismatch(
            f"model has {model.theta.size} parameters but points have {X.shape[1]} columns")
    return X, sigmoid(X @ model.theta)


def _hessian(X, p) -> np.ndarray:
    """X' diag(p (1 - p)) X, symmetrized."""
    w = p * (1.0 - p)
    H = X.T @ (w[:, None] * X)
    return (H + H.T) / 2.0


def _q_from(X, p, H) -> np.ndarray:
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise errors.SingularHessian(
            "loss Hessian is not positive definite; features are rank deficient") from None
    # x_i' H^{-1} x_i; inverting the d x d H is cheaper than solving for the n columns of X'
    quad = np.einsum("ij,ij->i", X @ np.linalg.inv(H), X)
    return np.maximum((p * (1.0 - p)) ** 2 * quad, 0.0)


def _bound_fields(model: LogisticModel, X, H, constant: float) -> dict:
    """Every TheoryReport field but q: the spectrum of H, the point norms and epsilon."""
    if not 0 < constant < math.inf:
        raise ValueError(f"constant must be finite and positive, got {constant!r}")
    n, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise errors.ZeroNormPoint(int(np.argmax(norms == 0.0)))
    x_max = float(norms.max())
    x_min = float(norms.min())
    eigenvalues = np.linalg.eigvalsh(H)
    lam_min = float(eigenvalues[0])
    if lam_min <= 0:
        raise errors.SingularHessian("smallest Hessian eigenvalue is not positive")
    theta_norm = float(np.linalg.norm(model.theta))
    epsilon = constant * d * x_max * (math.log(n * x_max / x_min) + x_max * theta_norm) \
        / math.sqrt(lam_min)
    return {"lambda_min": lam_min, "lambda_max": float(eigenvalues[-1]),
            "x_max": x_max, "x_min": x_min, "theta_norm": theta_norm,
            "epsilon": epsilon, "bound_applies": bool(epsilon < 1.0 and n >= 2),
            "constant": float(constant)}


@dataclass(frozen=True)
class TheoryReport:
    """q values plus the Hessian spectrum summary and the error bound."""

    q: np.ndarray
    lambda_min: float
    lambda_max: float
    x_max: float
    x_min: float
    theta_norm: float
    epsilon: float
    bound_applies: bool
    constant: float

    def __post_init__(self):
        q = _freeze(self, "q")
        if np.min(q) < 0:
            raise ValueError("q values must be non-negative")
        if not (0 < self.lambda_min <= self.lambda_max):
            raise errors.SingularHessian("need 0 < lambda_min <= lambda_max")
        if self.bound_applies != (self.epsilon < 1.0 and q.size >= 2):
            raise ValueError("bound_applies is inconsistent with epsilon and n")


def theory_report(model: LogisticModel, features,
                  constant: float = DEFAULT_CONSTANT) -> TheoryReport:
    """Compute q values, the Hessian spectrum, and the error bound in one pass.

    The design, the probabilities and the Hessian are computed once and
    shared by q and epsilon.
    """
    X, p = _design_and_probs(model, features)
    H = _hessian(X, p)
    bound = _bound_fields(model, X, H, constant)
    return TheoryReport(q=_q_from(X, p, H), **bound)


def theory_report_table(report: TheoryReport):
    """(header, columns) of the per-point q table, for _io.write_table."""
    return ["point_index", "q"], [np.arange(report.q.size), report.q]


def theory_report_metadata(report: TheoryReport) -> dict:
    """Every field of the report but q, in field order."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "q"}
