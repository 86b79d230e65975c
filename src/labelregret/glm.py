"""Logistic regression by Newton's method, plus the evaluation metrics.

The optimizer minimizes the sum-form loss sum_i log(1 + exp(-y_i x_i'theta))
(optionally plus ridge/2 * ||theta||^2) with full Newton steps and step
halving. At d <= 2 a Hessian far from singular is tested for positive
definiteness and solved in closed form; any other Hessian passes a Cholesky
test before np.linalg.solve takes the step (see _newton_steps). There is one
implementation, fit_logistic_batch, which fits many label vectors on one
feature matrix at once; fit_logistic is its one-row case and equals the
matching batch row bit for bit. Without ridge, a rank-deficient design raises
SingularHessian before any row runs, and an iterate that gives every point a
positive margin proves the labels separable, so that there is no finite
optimum; this proof is checked on every pass, the warm start included, and
such a row stops there. It reads each row's largest margin product, which
the loss sweep takes on its way. The rows of a block advance together, so a
block runs as many passes as its slowest row still iterating; a batch of up to
BATCH_ENTRIES labels runs as one block. When every row of a block starts at the
same theta, the start's margins, probabilities, weights and Hessian are formed
once per block, and only the label-dependent parts per row (see _newton_rows);
a call may also give each row a start of its own. Every Hessian X' diag(w) X
but the engine's outer-product table, theory's included, is S'S with
S = sqrt(w) X (_gram), whose bits do not depend on the BLAS thread count. Each
fit_logistic_batch call allocates one workspace of ten min(block, K) x n floats
(5 MiB at most while n <= BATCH_ENTRIES), and a Newton pass writes its labels,
margins, exp(-|margin|), loss terms, probabilities, residuals and weights into
it in place: allocating them on every pass cost page faults (see _newton_rows).
A trainer implements fit, plus fit_many where it fits many rows together.
LogisticTrainer.fit_many, the estimators' refit entry point, sends each
distinct label row to the engine once, copies its predictions to the rows
that repeat it and counts the ridge fallbacks of every row, copies included;
as no row depends on another, this changes no output. A row flagged as
separable is refit at the ridge of the one FALLBACK_RIDGES rung, on a
one-column design from the optimum along its first Newton step from 0, which
there is the fit itself (see _rung_starts). Labels are in {-1, +1} throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

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
# points; one row when n is larger) at once, which bounds its workspace of ten
# such arrays (5 MiB up to n = 2**16) whatever the row count. Every desk-size
# batch (K * n up to 2**16, such as K = 300 at n = 200) runs as one block,
# because a Newton pass costs a block the same numpy calls whatever its size
# (timings in CHANGES.md).
BATCH_ENTRIES = 1 << 16
# Largest n * d^2 for which fit_logistic_batch builds its n x d^2 table of
# outer products (2 MiB); see there for the rule and its reasons.
HESSIAN_TABLE_ENTRIES = 1 << 18
# _newton_steps solves a 2 x 2 Hessian [[a, b], [b, e]] by Cramer's rule only
# when det = ae - b^2 exceeds this share of ae: when the correlation of its
# columns is below about 1 - 5e-5, a condition number below about 4e4 once its
# diagonal is scaled to 1. Then rounding cannot make the sign test of det
# disagree with the Cholesky test, and the step differs from the LU solve's by
# rounding alone. Closer to singular, that difference can decide whether a
# barely convergent fit converges (CHANGES.md), so such rows take the
# Cholesky-plus-solve path.
CRAMER_DET_SHARE = 1e-4
# The extra ridge of LogisticTrainer.fit_many's fallback rung. It fits the
# separable rows of full-rank designs whose columns share a scale, up to 1e8;
# features of 1e8 beside an intercept can leave a row flagged (CHANGES.md).
# Counts of such refits are reported, never hidden.
FALLBACK_RIDGES = (1e-6,)
# The ufunc reductions that ndarray.sum, max, all and any end in, which the
# Newton passes call directly (see _newton_rows).
_sum, _max = np.add.reduce, np.maximum.reduce
_all, _any = np.logical_and.reduce, np.logical_or.reduce

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


def _logistic(z, e, out=None, spare=None):
    """sigmoid(z) given e = exp(-|z|), written to out and with 1 + e written to
    spare when they are given; out may be z. The numerator max(e, sign(z)) is
    where(z >= 0, 1, e) bit for bit, as e <= 1 where sign(z) is 1, e >= 0
    where it is -1, e = 1 at z = +-0 and e is NaN at NaN. It casts no
    booleans and runs faster than where (CHANGES.md)."""
    numerator = np.maximum(e, np.sign(z, out=out), out=out)
    return np.divide(numerator, np.add(1.0, e, out=spare), out=out)


def _freeze(record, name, dtype=float):
    """Set field name of the frozen dataclass record to a read-only copy of its
    value as an array of dtype, or, where the value is a dict, to a new dict of
    such copies of its values, and return what was set. The rule for every
    record: it holds read-only copies of the arrays it is given, in a fixed
    dtype."""
    value = getattr(record, name)
    frozen = ({key: np.array(item, dtype=dtype) for key, item in value.items()}
              if isinstance(value, dict) else np.array(value, dtype=dtype))
    for arr in frozen.values() if isinstance(frozen, dict) else [frozen]:
        arr.setflags(write=False)
    object.__setattr__(record, name, frozen)
    return frozen


@dataclass(frozen=True)
class LogisticModel:
    """Parameter vector of a logistic model.

    If includes_intercept is true, the last entry of theta multiplies an
    implicit constant-1 feature appended after the data columns.
    """

    theta: np.ndarray
    includes_intercept: bool = False

    def __post_init__(self):
        theta = _freeze(self, "theta")
        if theta.ndim != 1 or theta.size == 0:
            raise errors.DimensionMismatch("theta must be a non-empty 1-D vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("model parameters must be finite")

    @property
    def n_features(self) -> int:
        """Number of data columns the model expects (intercept excluded)."""
        return self.theta.size - (1 if self.includes_intercept else 0)

    def __call__(self, x):
        """The model as a predictor: predict_proba(self, x)."""
        return predict_proba(self, x)


@dataclass(frozen=True)
class FitOptions:
    ridge: float = 0.0
    max_iters: int = 100
    grad_tol: float = 1e-8
    include_intercept: bool = True

    def __post_init__(self):
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and non-negative, got {self.ridge!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol!r}")


def design_matrix(features, include_intercept: bool) -> np.ndarray:
    """Feature matrix with the constant-1 column appended when requested."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise errors.DimensionMismatch(f"features must be 2-D, got shape {X.shape}")
    if include_intercept:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    return X


def fit_logistic(data: "Dataset", opts: FitOptions = FitOptions(), *,
                 theta0=None, return_trace: bool = False):
    """Fit a logistic model to data's labels: fit_logistic_batch on one row.

    The model equals, bit for bit, row k of any fit_logistic_batch call on the
    same design, options and theta0 whose row k holds these labels. A flagged
    row raises FitDiverged; without ridge, labels are flagged as separable on
    the first pass, the warm start included, whose theta gives every point a
    positive margin. With return_trace the penalized loss at the start and
    after each Newton step comes back with the model; it never increases, and
    its length less one is the number of steps.
    """
    X = design_matrix(data.features, opts.include_intercept)
    trace = [] if return_trace else None
    thetas, separable = _fit_rows(X, np.asarray(data.labels)[None, :], opts, theta0, trace)
    if separable[0]:
        raise errors.FitDiverged("data looks separable; no finite optimum")
    model = LogisticModel(thetas[0], opts.include_intercept)
    return (model, np.concatenate(trace).tolist()) if return_trace else model


def _rank_deficient(X) -> bool:
    """np.linalg.matrix_rank(X) < d, without the SVD where the eigenvalues of
    the Gram matrix X'X certify that matrix_rank returns d.

    matrix_rank counts the computed singular values of X above
    tol = s_max * max(n, d) * eps; they lie within e = max(n, d) * d * eps *
    ||X||_F of the exact ones (a generous bound on the SVD's backward error),
    and s_max <= ||X||_F. The exact s_min**2 is the least eigenvalue of X'X.
    The computed Gram differs from X'X by at most gamma_n ||X||_F**2 in norm
    2, and eigvalsh's eigenvalues are those of a matrix within a small
    multiple of d eps ||X||_F**2 of the Gram, so the least computed
    eigenvalue less slack = (n + 4 d**2) eps ||X||_F**2 is at most s_min**2;
    slack also covers products that underflow, each off by at most the
    smallest subnormal. When the square root of that difference, less e,
    exceeds (||X||_F + e) max(n, d) eps, every computed singular value
    passes tol and X has full rank. Otherwise, as for a design near or at
    rank deficiency, or one whose Gram overflows, matrix_rank decides.
    """
    n, d = X.shape
    with np.errstate(over="ignore"):
        gram = X.T @ X
    if np.isfinite(gram).all():
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        frobenius = math.sqrt(np.trace(gram) * (1 + 2 * n * eps))
        slack = (n + 4 * d * d) * eps * frobenius ** 2 + n * d * tiny
        least = np.linalg.eigvalsh(gram)[0] - slack
        error = max(n, d) * d * eps * frobenius
        if least > 0 and math.sqrt(least) - error > (frobenius + error) * max(n, d) * eps:
            return False
    return bool(np.linalg.matrix_rank(X) < d)


def fit_logistic_batch(X, label_rows, opts: FitOptions = FitOptions(), *, theta0=None):
    """Fit one logistic model per row of label_rows, all sharing the design X.

    X is the n x d design matrix (intercept column already appended, see
    design_matrix) and label_rows a K x n matrix of {-1,+1} labels. theta0 is
    one start (d entries) for every row, or a K x d matrix of one start per
    row; None means zeros. Each row is fitted from its start until the infinity
    norm of its penalized gradient is at most opts.grad_tol. The rows still
    iterating advance together, so a block of rows runs as many passes as its
    slowest row still iterating; the step halving and stopping rules act per
    row, and a row leaves the block on the pass that finds it converged or
    separable.

    No row's arithmetic depends on the other rows or on K, so each row equals
    fit_logistic on its labels and start bit for bit, and a K x d theta0 whose
    rows are all one start gives the bits of that start given once. Every
    product with X is a vector-matrix product of its own, since one matrix
    product lets BLAS pick its kernel, and so its rounding, by the row count.
    The Hessians X' diag(w) X come from an n x d^2 table of outer products when
    n * d^2 is at most HESSIAN_TABLE_ENTRIES, and as S'S otherwise (_gram);
    neither depends on the BLAS thread count. The table is fast for many rows
    on a small design and grows as n d^2; as the rule reads the design alone,
    never K, a row's Hessian is formed the same way in every batch.

    Returns (thetas, separable): the K x d fitted parameters and a boolean
    K-vector, True (with NaN thetas) where a row's labels are separable, so
    that it has no finite optimum. That needs ridge 0, and is shown by an
    iterate that classifies every point strictly correctly (a proof checked on
    every pass, the start included), a parameter norm past DIVERGENCE_GUARD
    before the last pass, or a Hessian that is not positive definite or whose
    solve finds it singular (see _newton_steps). Raises SingularHessian at
    ridge 0 on a rank-deficient design, whatever the labels and even with no
    rows, and NoConvergence when another row is still above opts.grad_tol
    after opts.max_iters steps, or when its step halving finds no decrease.
    """
    return _fit_rows(X, label_rows, opts, theta0, None)


def _fit_rows(X, label_rows, opts: FitOptions, theta0, trace):
    """fit_logistic_batch, appending to a trace list the losses of the rows still
    iterating at the start and after each step: a one-row call's loss trace."""
    X = np.asarray(X, dtype=float)
    label_rows = np.asarray(label_rows)
    n, d = X.shape
    if label_rows.ndim != 2 or label_rows.shape[1] != n:
        raise errors.DimensionMismatch(
            f"label rows have shape {label_rows.shape}, expected (K, {n})")
    K = label_rows.shape[0]
    start = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    if start.shape != (d,) and start.shape != (K, d):
        raise errors.DimensionMismatch(
            f"warm start has shape {start.shape}, expected ({d},) or ({K}, {d})")
    if opts.ridge == 0.0 and _rank_deficient(X):
        raise errors.SingularHessian(f"feature matrix has rank below {d} and no ridge is applied")
    thetas = np.full((K, d), np.nan)
    separable = np.ones(K, dtype=bool)
    # Row i of XX is the flattened outer product x_i x_i', so w @ XX is X' diag(w) X.
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, d * d) \
        if n * d * d <= HESSIAN_TABLE_ENTRIES else None
    block = max(1, BATCH_ENTRIES // n)
    # The call's one workspace: every block's rows x n arrays are written into it.
    work = list(np.empty((10, min(block, K), n)))
    for first in range(0, K, block):
        rows = slice(first, first + block)
        thetas[rows], separable[rows] = _newton_rows(
            X, XX, label_rows[rows], opts, start if start.ndim == 1 else start[rows], trace, work)
    return thetas, separable


def _newton_rows(X, XX, label_rows, opts: FitOptions, theta0, trace, work):
    """_fit_rows on one block of rows, after the rank check (XX None: no table).

    The loop holds only the rows still iterating: their block indices, thetas,
    losses, largest margin products and five rows x n arrays (-y and the 0/1
    labels as floats, margins z, exp(-|z|) and probabilities P). Each is the
    top of one of the first five arrays of work, the call's workspace, and
    has a twin in the last five; the twins take the candidate's z and
    exp(-|z|), swapped in when a step is accepted, and serve as scratch. Rows
    that leave are compacted out into the twins, which then become live. So a
    pass allocates no rows x n array: glibc gives freed arrays of that size
    (480 KB at K = 300, n = 200) back to the system, and a pass that
    allocated its fifteen or so afresh faulted them in again. A row's results
    are written out when it leaves. The full Newton step is tried on all the
    rows; only the rows that reject it are gathered to halve it.

    A 1-D theta0 is every row's start, so the start's margins, exp(-|z|), log1p
    terms, probabilities, weights and Hessian are formed once, as one row that
    every row shares (a one-row _row_products gives any row's bits). The start
    pass forms only the hinges, loss sums, gradients and steps per row, and
    copies the start's margins to every row only when some row halves its step.
    A 2-D theta0 holds each row's own start, and the start pass is then formed
    per row, as every later pass is. The separability proof of a pass reads
    each row's largest margin product -y z, which the loss sweep that made the
    margins took before clipping it to the hinge.

    A pass calls the ufunc reductions and array methods that ndarray.sum, max,
    all and any, np.max, np.take and np.flatnonzero end in, with the same
    bits, because on a small block their Python wrappers take longer than the
    work.
    """
    n, d = X.shape
    XT = X.T
    ridge = opts.ridge
    ridge_eye = ridge * np.eye(d)
    pure_floor = 16.0 * np.finfo(float).eps
    r = len(label_rows)
    thetas = np.full((r, d), np.nan)
    separable = np.zeros(r, dtype=bool)
    live, twin = [a[:r] for a in work[:5]], [a[:r] for a in work[5:]]

    def compact(keep, count):
        """Move the kept rows of the first count live arrays to the top of their
        twins, which become live; cut every array to the kept rows."""
        kept = keep.nonzero()[0]
        for i in range(len(live)):
            if i < count:
                live[i].take(kept, axis=0, out=twin[i][:kept.size], mode="clip")
                live[i], twin[i] = twin[i], live[i]
            live[i], twin[i] = live[i][:kept.size], twin[i][:kept.size]
        return live

    def evaluate(T, negY, Z, E, terms, hinge):
        """Penalized losses (with no overflow) at thetas T and, without ridge,
        each row's largest margin product -y z (None with ridge). The margins
        go to Z, exp(-|margin|) to E, and terms and hinge are scratch; T, Z, E
        and terms may hold one row that every row of negY shares."""
        _row_products(T, XT, out=Z)
        np.exp(np.negative(np.abs(Z, out=E), out=E), out=E)
        np.multiply(negY, Z, out=hinge)
        top = None if ridge else _max(hinge, axis=1)
        np.maximum(hinge, 0.0, out=hinge)
        loss = _sum(np.add(np.log1p(E, out=terms), hinge, out=hinge), axis=1)  # log(1 + exp(-y z))
        if ridge:
            loss += 0.5 * ridge * _sum(T * T, axis=1)
        return loss, top

    def hessian(P, W):
        """Each row's penalized Hessian X' diag(w) X + ridge I, with the weights
        w = P(1 - P) written to W."""
        np.multiply(P, np.subtract(1.0, P, out=W), out=W)
        H = _gram(X, W) if XX is None else _row_products(W, XX).reshape(-1, d, d)
        if ridge:
            H += ridge_eye
        return H

    rows = np.arange(r)
    negY, y01, Z, E, P = live
    np.negative(label_rows, out=negY, dtype=float)
    np.less(negY, 0.0, out=y01)
    shared = theta0.ndim == 1
    if shared:
        # The start, shared by every row until its step is taken: margins z,
        # exp(-|z|), probabilities p and Hessian H.
        T = np.tile(theta0, (r, 1))
        z, e = np.empty((2, 1, n))
        loss, top = evaluate(T[:1], negY, z, e, twin[0][:1], twin[1])
        p = _logistic(z, e)
        H = hessian(p, twin[0][:1])
    else:
        T = theta0.copy()
        loss, top = evaluate(T, negY, Z, E, twin[0], twin[1])
    if trace is not None:
        trace.append(loss.copy())
    stalled = False  # some row's step halving found no decrease
    for iteration in range(opts.max_iters + 1):
        if ridge == 0.0:
            # A theta that gives every point a positive margin (and so is not
            # 0) proves the labels separable: there is no finite optimum. The
            # gradient of such a row can even sink below any tolerance by
            # sheer underflow. Before the last pass, a parameter norm past
            # DIVERGENCE_GUARD declares a row separable too.
            leaving = top < 0.0
            if iteration < opts.max_iters:
                leaving |= np.sqrt(_sum(T * T, axis=1)) > DIVERGENCE_GUARD
            if _any(leaving):
                separable[rows[leaving]] = True
                if _all(leaving):
                    break
                rows, T, loss, top = (a[~leaving] for a in (rows, T, loss, top))
                negY, y01, Z, E, P = compact(~leaving, 4)
        if not shared:
            p = P = _logistic(Z, E, P, twin[0])
        grad = _row_products(np.subtract(p, y01, out=twin[0]), X)  # penalized gradients
        if ridge:
            grad += ridge * T
        going = _max(np.abs(grad), axis=1) > opts.grad_tol
        if not _all(going):
            thetas[rows[~going]] = T[~going]
            if not _any(going):
                break
            rows, T, loss, grad = (a[going] for a in (rows, T, loss, grad))
            top = top if ridge else top[going]
            negY, y01, Z, E, P = compact(going, 5)
        if iteration == opts.max_iters or stalled:
            raise errors.NoConvergence(
                f"gradient norm {np.max(np.abs(grad)):.3e} above tolerance {opts.grad_tol:g} "
                f"after {opts.max_iters} iterations")
        if not shared:
            H = hessian(P, twin[0])
        # Rank was verified above, so a Hessian with no step (not PD, or
        # singular in floating point) means the Newton weights collapsed on
        # the way to an infinite optimum.
        step, solvable = _newton_steps(H, grad)
        if not _all(solvable):
            separable[rows[~solvable]] = True
            if not _any(solvable):
                break
            rows, T, loss, grad, step = (a[solvable] for a in (rows, T, loss, grad, step))
            top = top if ridge else top[solvable]
            negY, y01, Z, E, P = compact(solvable, 4)
        # grad' H^-1 grad / 2 is the decrease the full step achieves up to
        # higher-order terms. Once it sinks below the float resolution of the
        # loss value, a loss-based line search only sees rounding noise; such a
        # "pure" row takes the full Newton step (quadratic-convergence phase,
        # true loss drops by under one ulp) and its recorded loss stays monotone.
        predicted = -0.5 * _sum(grad * step, axis=1)
        pure = predicted <= pure_floor * np.maximum(1.0, np.abs(loss))
        candidate = T + step
        cZ, cE = twin[2], twin[3]
        c_loss, c_top = evaluate(candidate, negY, cZ, cE, twin[0], twin[1])
        better = pure | (c_loss <= loss)
        if _all(better):
            T, loss, top = candidate, np.minimum(c_loss, loss), c_top
            live[2:4], twin[2:4] = twin[2:4], live[2:4]
            Z, E = cZ, cE
            stalled = False
        else:
            if shared:  # halving writes each row's own margins
                Z[...], E[...] = z, e
            search, scale = np.arange(rows.size), 1.0  # rows halving their step
            for halving in range(MAX_HALVINGS + 1):
                if halving:
                    s = search.size
                    candidate = T[search] + scale * step[search]
                    cZ, cE = twin[2][:s], twin[3][:s]
                    c_loss, c_top = evaluate(
                        candidate, negY.take(search, axis=0, out=twin[4][:s], mode="clip"),
                        cZ, cE, twin[0][:s], twin[1][:s])
                    better = pure[search] | (c_loss <= loss[search])
                took = search[better]
                T[took], Z[took], E[took] = candidate[better], cZ[better], cE[better]
                loss[took] = np.minimum(c_loss[better], loss[took])  # never increases
                if not ridge:
                    top[took] = c_top[better]
                search, scale = search[~better], 0.5 * scale
                if search.size == 0:
                    break
            # A row left searching expected an observable decrease and found
            # none. It keeps its theta, where the gradient is above grad_tol,
            # so the next pass raises NoConvergence.
            stalled = search.size > 0
        shared = False
        if trace is not None:
            trace.append(loss.copy())
    return thetas, separable


def _row_products(A, B, out=None):
    """The rows A[k] @ B, each a vector-matrix product of its own, written to
    out when it is given."""
    return np.matmul(A[:, None, :], B, out=None if out is None else out[:, None, :])[:, 0, :]


def _gram(X, w):
    """X' diag(w) X for a weight vector w, or one per row of a stack of them, as
    S'S with S = sqrt(w) X. numpy hands a matrix times its own transpose to
    syrk, which, unlike the gemm X'(w X), gives an exactly symmetric result
    with the same bits at any BLAS thread count (measured on OpenBLAS)."""
    S = np.sqrt(w)[..., None] * X
    return np.matmul(np.swapaxes(S, -1, -2), S)


def _newton_steps(H, grad):
    """Newton steps -H[k]^-1 grad[k] of a stack of symmetric Hessians, and
    whether each exists: H[k] must pass the Cholesky test, and rounding can
    still make the solve find it singular. A stack of one Hessian serves
    every row of grad.

    At d <= 2 a row is solved in closed form where the closed-form test is
    exact or far from its boundary: h > 0 at d = 1, whose step is -g/h; at
    d = 2, where H[k] = [[a, b], [c, e]], a > 0 and a normal det = ae - bc
    above CRAMER_DET_SHARE * ae (so every entry is finite), whose step is
    Cramer's rule. There the test agrees with the Cholesky test, and the step
    is the LU solve's up to rounding. Every other row, and every row at d > 2,
    goes through _factored_steps. Each row's result depends on that row alone,
    so a stack of any length gives each row the same bits.
    """
    r, d = grad.shape
    if len(H) < r:  # one Hessian for every row
        H = np.broadcast_to(H, (r, d, d))
    if d > 2:
        return _factored_steps(H, grad)
    # The values of rows that overflow, divide by zero or hold NaN are replaced
    # below, so their floating-point warnings mean nothing.
    with np.errstate(all="ignore"):
        if d == 1:
            closed = H[:, 0, 0] > 0.0
            step = np.negative(grad) / H[:, 0]
        else:
            a, b, c, e = H.reshape(-1, 4).T
            g0, g1 = grad.T
            ae = a * e
            det = ae - b * c
            # det must also be a normal float: a subnormal one has lost the
            # relative precision that the share test relies on.
            closed = (a > 0.0) & (det > np.maximum(CRAMER_DET_SHARE * ae, sys.float_info.min))
            step = np.empty_like(grad)  # -H^-1 g = (b g1 - e g0, c g0 - a g1) / det
            np.subtract(b * g1, e * g0, out=step[:, 0])
            np.subtract(c * g0, a * g1, out=step[:, 1])
            step /= det[:, None]
    if not _all(closed):
        rest = (~closed).nonzero()[0]
        step[rest], closed[rest] = _factored_steps(H[rest], grad[rest])
    return step, closed


def _factored_steps(H, grad):
    """_newton_steps by a Cholesky test and an LU solve of each H[k]. Solving
    one H[k] alone gives the same bits as solving the stack."""
    try:
        np.linalg.cholesky(H)
        return np.linalg.solve(H, -grad[:, :, None])[:, :, 0], np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        step, ok = np.zeros_like(grad), np.ones(len(H), dtype=bool)
        for k, h in enumerate(H):
            try:
                np.linalg.cholesky(h)
                step[k] = np.linalg.solve(h, -grad[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return step, ok


def predict_proba(model: LogisticModel, x):
    """Predicted probability of the +1 label, for one point or a matrix of rows."""
    x = np.asarray(x, dtype=float)
    p = _design_and_probs(model, np.atleast_2d(x))[1]
    return float(p[0]) if x.ndim == 1 else p


def _design_and_probs(model: LogisticModel, features):
    """The design matrix of a matrix of points and the model's probabilities at
    its rows: predict_proba's work, which theory's closed form shares."""
    X = design_matrix(features, model.includes_intercept)
    if X.shape[1] != model.theta.size:
        raise errors.DimensionMismatch(
            f"model has {model.theta.size} parameters but points have "
            f"{X.shape[1]} columns (intercept included)")
    return X, sigmoid(X @ model.theta)


# ---------------------------------------------------------------------------
# metrics


def _probabilities(probs, n=None) -> np.ndarray:
    """probs as a 1-D float array (of n entries when n is given), else
    LengthMismatch; ProbOutOfRange names the first entry outside [0, 1], NaN
    and +-inf included. The one check of every probability vector taken."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or (n is not None and p.size != n):
        count = "" if n is None else f"{n} "
        raise errors.LengthMismatch(
            f"expected a 1-D vector of {count}probabilities, got shape {p.shape}")
    ok = (p >= 0.0) & (p <= 1.0)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise errors.ProbOutOfRange(bad, float(p[bad]))
    return p


def log_loss(probs, labels) -> float:
    """Mean negative log probability of the observed labels (labels in {-1,+1})."""
    p = _probabilities(probs)
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
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of values, each tie group given the mean of its positions."""
    # Each member of a tie group gets the group's mean rank, so the order
    # within a group, which an unstable sort leaves arbitrary, cannot change
    # a rank. (A NaN is a group of its own, so NaNs are ranked in any order.)
    order = np.argsort(values)
    ordered = values[order]
    # first sorted position of each group of equal values, plus the end
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    group_sizes = np.diff(bounds)
    ranks = np.empty(values.size)
    # a group over sorted positions a..b-1 has mean 1-based position (a + 1 + b) / 2
    ranks[order] = np.repeat((bounds[:-1] + 1 + bounds[1:]) / 2.0, group_sizes)
    return ranks


def bernoulli_kl(true_probs, pred_probs) -> np.ndarray:
    """Per-point KL divergence from true to predicted Bernoulli distributions."""
    p = _probabilities(true_probs)
    q = np.clip(_probabilities(pred_probs, p.size), PROB_CLIP, 1.0 - PROB_CLIP)
    return _rel_entr(p, q) + _rel_entr(1.0 - p, 1.0 - q)


def _rel_entr(x, y) -> np.ndarray:
    """x log(x / y) elementwise for x >= 0 and y > 0, and 0 where x == 0.

    Where x / y lies in (0.5, 2) the term is evaluated as x log1p((x - y) / y),
    which keeps the relative accuracy of the near-zero terms that make up
    small KL divergences.
    """
    ratio = x / y
    near = (ratio > 0.5) & (ratio < 2.0)
    # each log sees only the entries of its own branch; log(1) = 0 keeps x == 0 at 0
    log_near = np.log1p(np.where(near, (x - y) / y, 0.0))
    log_far = np.log(np.where(near | (x == 0.0), 1.0, ratio))
    return x * np.where(near, log_near, log_far)


def mean_kl(true_probs, pred_probs) -> float:
    """Mean over points of the per-point Bernoulli KL divergence."""
    return float(bernoulli_kl(true_probs, pred_probs).mean())


# ---------------------------------------------------------------------------
# trainers


class TrainerHandle:
    """A deterministic training procedure usable by the resampling estimators.

    fit maps a Dataset to a predictor (feature matrix -> probabilities).
    start, where given, is a predictor that an earlier fit of the same trainer
    returned; a trainer may start its optimizer there (the estimators pass the
    base fit, so that every refit starts from the base optimum), and a trainer
    with nothing to warm-start ignores it. fit_many is the estimators' entry
    point for many refits on one feature matrix; a trainer that fits many rows
    together overrides it. Only LogisticTrainer has a ridge fallback for
    resamples that turn out separable; any other trainer's fit errors
    propagate.

    mirrors_label_flips declares a symmetry that exact enumeration uses to
    refit only one assignment of each complementary pair: when True, a cold
    fit_many (start None) on the negated label rows gives 1 minus the
    predictions of a cold fit_many on the rows, up to rounding, and the same
    fallback count.
    """

    name = "trainer"
    mirrors_label_flips = False

    def fit(self, data: "Dataset", start=None) -> Predictor:
        raise NotImplementedError

    def fit_many(self, data: "Dataset", label_rows, eval_features, start=None):
        """Refit on data's features once per row of label_rows, each from start.

        Returns the K x m predictions at eval_features and the number of
        refits that needed a ridge fallback: always 0 here, where each row is
        one fit call. Subclasses may override this with a batched
        implementation that gives the same rows, as LogisticTrainer does. The
        predictions are the caller's: an estimator overwrites them, or keeps
        them read-only in its report.
        """
        samples = np.empty((len(label_rows), np.asarray(eval_features).shape[0]))
        for k, labels in enumerate(label_rows):
            samples[k] = self.fit(data.with_labels(labels), start)(eval_features)
        return samples, 0


class LogisticTrainer(TrainerHandle):
    """Logistic regression trainer around fit_logistic, whose predictors are the
    fitted LogisticModels. fit starts Newton's method at start.theta; fit_many
    has the package's only ridge fallback, the FALLBACK_RIDGES rung.

    The penalized loss is even under (y, theta) -> (-y, -theta), so from the
    cold start theta = 0 the fit of -y is the fit of y negated, at any ridge
    and with or without an intercept; a separable row and its mirror both
    take the rung. The rung's start for -y is exactly its start for y negated
    (see _rung_starts), so this holds on the rung too."""

    mirrors_label_flips = True

    def __init__(self, opts: FitOptions = FitOptions()):
        self.opts = opts
        self.name = f"logistic(ridge={opts.ridge:g})"

    def fit(self, data: "Dataset", start: "LogisticModel | None" = None) -> LogisticModel:
        return fit_logistic(data, self.opts, theta0=None if start is None else start.theta)

    def fit_each(self, data: "Dataset", label_rows) -> list:
        """Cold fits on data's features, one per row of label_rows, made by one
        fit_logistic_batch call from theta = 0. Entry k is the LogisticModel of
        fit(data.with_labels(label_rows[k])), bit for bit, or None: where the
        call flags row k as separable, and for every row when the call raises.
        A caller fits a None entry alone to learn its error (the base fits of
        a trials run do, in regret._initial_fit)."""
        X = design_matrix(data.features, self.opts.include_intercept)
        try:
            thetas, separable = fit_logistic_batch(X, label_rows, self.opts)
        except errors.LabelRegretError:
            return [None] * len(label_rows)
        return [None if flagged else LogisticModel(theta, self.opts.include_intercept)
                for theta, flagged in zip(thetas, separable)]

    def fit_with_extra_ridge(self, data: "Dataset", extra_ridge: float) -> LogisticModel:
        """A cold fit with extra_ridge added to the trainer's ridge."""
        return fit_logistic(data, replace(self.opts, ridge=self.opts.ridge + extra_ridge))

    def fit_many(self, data: "Dataset", label_rows, eval_features, start=None):
        """One fit_logistic_batch call from start.theta (zeros without a start)
        on the distinct label rows, then one at the fallback rung if needed.

        Each distinct row is refit once, in order of first appearance, and its
        predictions are copied to every row that repeats it; when no row
        repeats, label_rows itself goes to the engine. The rows that call
        flags as separable are refit together at the trainer's ridge plus the
        FALLBACK_RIDGES ridge, from theta = 0, or on a one-column design from
        _rung_starts' line optimum along the first Newton step, where a row
        takes no Newton step and ends within the grad_tol band of the cold fit,
        not at its bits; a row still flagged raises RefitFallbackExhausted.
        The count returned is the number of rows that needed the rung, each
        with its copies. Row k of the samples is the same whatever other rows
        share the call or the rung: no engine row depends on another, nor does
        a row's rung start or prediction.
        """
        include = self.opts.include_intercept
        X = design_matrix(data.features, include)
        label_rows = np.asarray(label_rows)
        first, copies = _first_appearances(label_rows)
        rows = label_rows if copies is None else label_rows[first]
        thetas, separable = fit_logistic_batch(
            X, rows, self.opts, theta0=None if start is None else start.theta)
        pending = np.flatnonzero(separable)
        n_fallbacks = pending.size if copies is None else int(separable[copies].sum())
        if pending.size:
            (extra,) = FALLBACK_RIDGES
            opts = replace(self.opts, ridge=self.opts.ridge + extra)
            rung = rows[pending]
            thetas[pending], separable = fit_logistic_batch(
                X, rung, opts, theta0=_rung_starts(X, rung, opts))
            if separable.any():
                raise errors.RefitFallbackExhausted(
                    f"resample could not be fit even with extra ridge {extra:g}")
        Z = _row_products(thetas, design_matrix(eval_features, include).T)
        E = np.abs(Z)
        np.exp(np.negative(E, out=E), out=E)
        samples = _logistic(Z, E, Z, E)  # sigmoid(Z) in place, with no K x m temporary
        return (samples if copies is None else samples[copies]), n_fallbacks


def _rung_starts(X, label_rows, opts: FitOptions):
    """The K x 1 starts of the fallback rung's rows fitted under opts on a
    one-column design, or None, where every row starts at theta = 0: at
    ridge 0, and when X has more than one column.

    Row k starts at s* u: u = X'(y01 - 1/2) / (X'X/4 + ridge) is its first
    Newton step from 0, and s* minimizes the penalized loss along u, which at
    d = 1 is the fit itself, so the engine takes no step from it. A separable
    row's optimum lies at about log(1/ridge) over its smallest margin, and
    Newton's method from 0 gains about one margin unit per pass on the way
    (15 passes at ridge 1e-6). On more columns the line optimum along u is
    not the fit, and a rung block takes longer from it than from 0, as its
    slowest rows still take most of the cold passes (CHANGES.md).

    Along u the loss is sum log(1 + exp(-s a)) + c s^2 / 2, with margins
    a = y x u and c = ridge u^2. Its slope is c s + M(s) - P(s), where P sums
    a sigmoid(-s a) over the positive margins and M sums |a| sigmoid(-s a)
    over the negative ones; at s = 0 it is -u X'(y01 - 1/2) < 0, so s* > 0.
    s* is the root of phi(s) = log P(s) - log(c s + M(s)), which decreases,
    and which is nearly linear where exp(-s a) terms make up P: the flat
    stretch where Newton's method on the slope gains one margin unit a step.
    Newton's method on phi starts at s = 1, the step from 0, and a step that
    leaves the bracket of s* shown by the signs of phi so far halves it
    instead. A row stops after a step below sqrt(eps) times s, past which
    quadratic convergence leaves rounding alone; one that does not stop
    within opts.max_iters steps, or whose slope at 0 is not negative, starts
    at 0. Every operation is a row's own, so a row's start does not depend on
    the other rows, and the negated labels give the negated start exactly.
    """
    if opts.ridge == 0.0 or X.shape[1] > 1:
        return None
    U = _row_products(0.5 * label_rows, X) / (0.25 * (X.T @ X) + opts.ridge)
    A = label_rows * (X[:, 0] * U)
    B = np.abs(A)
    split = np.stack([np.maximum(A, 0.0), B - np.maximum(A, 0.0)])  # a > 0, |a| for a < 0
    square = split * split
    above = (A <= 0.0).astype(float)  # sigmoid(-s a) = max(e, above) / (1 + e)
    c = opts.ridge * U[:, 0] * U[:, 0]
    r = len(label_rows)
    s, lo, hi = np.ones(r), np.zeros(r), np.full(r, np.inf)
    going = A.sum(axis=1) > 0.0
    found = going.copy()
    settle = sys.float_info.epsilon ** 0.5
    with np.errstate(all="ignore"):  # P(s) can underflow to 0; that row halves
        for _ in range(opts.max_iters):
            E = np.exp(B * np.negative(s)[:, None])  # exp(-s |a|)
            D = np.add(E, 1.0)
            Q = np.maximum(E, above) / D  # sigmoid(-s a)
            P, M = _sum(split * Q, axis=2)
            P_bend, M_bend = _sum(square * (E / (D * D)), axis=2)  # -P'(s), M'(s)
            load = c * s + M
            right = P <= load  # phi(s) <= 0
            lo, hi = np.where(right, lo, s), np.where(right, s, hi)
            step = np.log(P / load) / (P_bend / P + (c + M_bend) / load)
            settled = np.abs(step) <= settle * s
            new = s + step
            new = np.where(settled | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
            s = np.where(going, new, s)
            going &= ~settled
            if not _any(going):
                break
    found &= ~going & np.isfinite(s)
    return np.where(found[:, None], s[:, None] * U, 0.0)


def _first_appearances(label_rows):
    """(first, copies) for a K x n matrix of {-1,+1} label rows: the indices of
    the distinct rows in order of first appearance, and for each row the
    position of its distinct row in first; (None, None) when no row repeats or
    label_rows is not a non-empty matrix, whose shape the engine reports. Rows
    are keyed by their packed sign bits, one string of ceil(n/8) bytes per row."""
    if label_rows.ndim != 2 or label_rows.shape[1] == 0:
        return None, None
    bits = np.packbits(label_rows > 0, axis=1)
    keys = bits.view(np.dtype((np.void, bits.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == len(label_rows):
        return None, None
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


class EchoTrainer(TrainerHandle):
    """Predicts the observed training label as a probability.

    The induced resampling variance is exactly p(1-p) per point, which makes
    this a closed-form oracle for the estimators. It can only predict at its
    own training points. Flipping the labels gives exactly 1 - p.
    """

    name = "echo"
    mirrors_label_flips = True

    def fit(self, data: "Dataset", start=None) -> Predictor:
        labels01 = (np.asarray(data.labels, dtype=float) + 1.0) / 2.0
        train_features = data.features

        def predict(X):
            X = np.asarray(X, dtype=float)
            if X.shape != train_features.shape or not np.array_equal(X, train_features):
                raise errors.DimensionMismatch(
                    "echo trainer can only predict at its training points")
            return labels01.copy()

        return predict


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: LogisticModel, feature_names, standardization=None) -> dict:
    """The model as the JSON object that load_model reads back.

    standardization is the {"mean", "std"} record of
    dataset.standardize_features when the model was fitted on standardized
    features; it is stored so the same transform can be applied to new data.
    """
    names = list(feature_names)
    if len(names) != model.n_features:
        raise errors.DimensionMismatch(
            f"model expects {model.n_features} features, got {len(names)} names")
    payload = {
        "theta": model.theta,
        "includes_intercept": bool(model.includes_intercept),
        "feature_names": names,
    }
    if standardization is not None:
        payload["standardization"] = standardization
    return payload


_MODEL_SCHEMA = {"theta": [NUMBER], "includes_intercept": bool, "feature_names": [str],
                 "standardization": ({"mean": [NUMBER], "std": [NUMBER]}, type(None))}


def load_model(path):
    """Read a model JSON file; returns (model, feature_names, standardization).

    standardization is the {"mean", "std"} record stored by model_to_dict,
    or None for a model fitted on the raw features. Feature names or
    standardization arrays whose lengths do not match the model raise
    DimensionMismatch naming the file.
    """
    payload = read_json(path, _MODEL_SCHEMA)
    model = LogisticModel(np.asarray(payload["theta"], dtype=float),
                          payload["includes_intercept"])
    if len(payload["feature_names"]) != model.n_features:
        raise errors.DimensionMismatch(f"{path}: the model has {model.n_features} features "
                                       f"but {len(payload['feature_names'])} feature_names")
    standardization = payload.get("standardization")
    if standardization is not None:
        mean, std = (np.asarray(standardization[k], dtype=float) for k in ("mean", "std"))
        if mean.shape != (model.n_features,) or std.shape != mean.shape:
            raise errors.DimensionMismatch(
                f"{path}: standardization needs {model.n_features} means and stds, "
                f"got {mean.size} and {std.size}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std)) and np.all(std > 0)):
            raise ValueError(f"{path}: standardization means must be finite and stds positive")
        standardization = {"mean": mean, "std": std}
    return model, payload["feature_names"], standardization
