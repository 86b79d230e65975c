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
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import errors
from ._io import dump_json, write_table
from .glm import LogisticModel, design_matrix, sigmoid

DEFAULT_CONSTANT = 800.0


def compute_hessian(model: LogisticModel, features) -> np.ndarray:
    """Hessian of the (unpenalized) sum-form logistic loss at the model parameters.

    When the model has an intercept the constant-1 column participates as an
    ordinary feature, so the matrix is (d+1) x (d+1).
    """
    X, p = _design_and_probs(model, features)
    return _hessian(X, p)


def q_values(model: LogisticModel, features) -> np.ndarray:
    """Closed-form variance q_i per point, via one Cholesky factorization of H."""
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
    H = np.einsum("i,ij,ik->jk", w, X, X)
    return (H + H.T) / 2.0


def _q_from(X, p, H) -> np.ndarray:
    try:
        factor = linalg.cho_factor(H, check_finite=False)
    except np.linalg.LinAlgError:
        raise errors.SingularHessian(
            "loss Hessian is not positive definite; features are rank deficient") from None
    solved = linalg.cho_solve(factor, X.T, check_finite=False)  # d x n
    quad = np.einsum("ij,ji->i", X, solved)  # x_i' H^{-1} x_i
    return np.maximum((p * (1.0 - p)) ** 2 * quad, 0.0)


def _bound_fields(model: LogisticModel, X, H, constant: float) -> dict:
    """Every TheoryReport field but q: the spectrum of H, the point norms and epsilon."""
    if constant <= 0:
        raise ValueError("constant must be positive")
    n, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise errors.ZeroNormPoint(int(np.argmax(norms == 0.0)))
    x_max = float(norms.max())
    x_min = float(norms.min())
    eigenvalues = linalg.eigvalsh(H)
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
        q = np.array(self.q, dtype=float)
        if np.min(q) < 0:
            raise ValueError("q values must be non-negative")
        if not (0 < self.lambda_min <= self.lambda_max):
            raise errors.SingularHessian("need 0 < lambda_min <= lambda_max")
        if self.bound_applies != (self.epsilon < 1.0 and q.size >= 2):
            raise ValueError("bound_applies is inconsistent with epsilon and n")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


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
    return {
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "x_max": report.x_max,
        "x_min": report.x_min,
        "theta_norm": report.theta_norm,
        "epsilon": report.epsilon,
        "bound_applies": report.bound_applies,
        "constant": report.constant,
    }


def save_theory_report(report: TheoryReport, csv_path, json_path) -> None:
    write_table(csv_path, *theory_report_table(report))
    dump_json(json_path, theory_report_metadata(report))
