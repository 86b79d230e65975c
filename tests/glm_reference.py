"""The scalar Newton fit that glm.fit_logistic ran before the batched engine
became its only implementation, kept verbatim as the engine's oracle.

fit_logistic here fits one label vector with its own loop: its own divergence
guard, Cholesky check, step halving, stopping rule and separability test, on
its own loss, gradient and Hessian (penalized_loss, loss_gradient,
loss_hessian). The tests compare glm.fit_logistic_batch and glm.fit_logistic
against it. It is an independent reference only while it stays as it was:
never edit it to agree with the engine. A disagreement is a finding about the
engine, to be explained, not a reason to change this file.
"""

import numpy as np

from labelregret import errors
from labelregret.glm import (DIVERGENCE_GUARD, MAX_HALVINGS, FitOptions,
                             LogisticModel, design_matrix, sigmoid)


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
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            # Rank was verified above, so a non-PD Hessian means the Newton
            # weights collapsed on the way to an infinite optimum.
            raise errors.FitDiverged("Newton system collapsed; data looks separable")
        step = np.linalg.solve(H, -grad)
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
