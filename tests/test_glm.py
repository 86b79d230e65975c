import fractions
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors, glm
from labelregret._io import dump_json
from labelregret.dataset import draw_label_rows
from labelregret.glm import design_matrix, fit_logistic_batch, model_to_dict

import glm_reference as reference
from conftest import ConstantTrainer
from glm_reference import loss_gradient, loss_hessian, penalized_loss


def finite_difference_gradient(theta, X, y, ridge, h=1e-6):
    """Central differences of the penalized sum loss; the gradient oracle."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (penalized_loss(up, X, y, ridge) - penalized_loss(down, X, y, ridge)) / (2 * h)
    return grad


class TestSigmoid:
    def test_anchor_values(self):
        assert lr.sigmoid(0.0) == 0.5
        assert abs(lr.sigmoid(math.log(3.0)) - 0.75) < 1e-15

    def test_reflection_identity(self):
        z = np.random.default_rng(0).uniform(-30, 30, size=1000)
        np.testing.assert_allclose(lr.sigmoid(-z), 1.0 - lr.sigmoid(z), atol=1e-15)

    def test_no_overflow_at_extremes(self):
        with np.errstate(over="raise"):
            out = lr.sigmoid(np.array([-700.0, -100.0, 100.0, 700.0]))
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[-1] == 1.0
        assert np.all((out >= 0) & (out <= 1))

    def test_nan_propagates(self):
        assert math.isnan(lr.sigmoid(float("nan")))

    def test_numerator_is_the_where_form_bit_for_bit(self):
        """The numerator max(e, z >= 0) gives the bits of where(z >= 0, 1, e)."""
        edges = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                 math.inf, -math.inf, math.nan]
        z = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 40.0, 5000)])
        e = np.exp(-np.abs(z))
        expected = np.where(z >= 0, 1.0, e) / (1.0 + e)
        np.testing.assert_array_equal(lr.sigmoid(z).view(np.int64), expected.view(np.int64))
        for value, want in zip(edges, expected):
            got = lr.sigmoid(value)
            assert np.float64(got).view(np.int64) == want.view(np.int64)


class TestPredictProba:
    def test_zero_model_is_half(self):
        model = lr.LogisticModel(np.zeros(3))
        assert lr.predict_proba(model, [1.0, -2.0, 5.0]) == 0.5

    def test_log3_anchor(self):
        model = lr.LogisticModel(np.array([math.log(3.0)]))
        assert abs(lr.predict_proba(model, [1.0]) - 0.75) < 1e-15

    def test_matches_sigmoid_dot(self):
        gen = np.random.default_rng(1)
        theta = gen.standard_normal(4)
        model = lr.LogisticModel(theta)
        X = gen.standard_normal((20, 4))
        np.testing.assert_allclose(lr.predict_proba(model, X),
                                   lr.sigmoid(X @ theta), atol=1e-15)

    def test_intercept_is_last_entry(self):
        model = lr.LogisticModel(np.array([0.0, math.log(3.0)]),
                                 includes_intercept=True)
        assert abs(lr.predict_proba(model, [5.0]) - 0.75) < 1e-15

    def test_dimension_mismatch(self):
        model = lr.LogisticModel(np.ones(2))
        with pytest.raises(errors.DimensionMismatch):
            lr.predict_proba(model, [1.0, 2.0, 3.0])


class TestFitLogistic:
    def test_symmetric_dataset_gives_zero(self):
        data = lr.Dataset(np.ones((4, 1)), [1, 1, -1, -1])
        model = lr.fit_logistic(data, lr.FitOptions(include_intercept=False))
        np.testing.assert_allclose(model.theta, 0.0, atol=1e-10)

    def test_separable_two_points_diverge(self):
        data = lr.Dataset([[-1.0], [1.0]], [-1, 1])
        with pytest.raises(errors.FitDiverged):
            lr.fit_logistic(data, lr.FitOptions(include_intercept=False))

    def test_single_class_diverges(self):
        data = lr.Dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(errors.FitDiverged):
            lr.fit_logistic(data, lr.FitOptions(include_intercept=False))

    def test_rank_deficient_raises(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        data = lr.Dataset(X, [1, -1, 1, -1])
        with pytest.raises(errors.SingularHessian, match="^feature matrix has rank below 2 "):
            lr.fit_logistic(data, lr.FitOptions(include_intercept=False))

    def test_no_convergence_when_budget_tiny(self):
        """The same error and message as the reference fit."""
        features = lr.gaussian_features(200, 2, 3)
        ss = lr.semisynthetic_from_model(features, lr.LogisticModel([1.0, -1.0]),
                                         lr.LabelDrawSeed(3))
        opts = lr.FitOptions(max_iters=1, include_intercept=False)
        with pytest.raises(errors.NoConvergence) as raised:
            lr.fit_logistic(ss.base, opts)
        with pytest.raises(errors.NoConvergence) as expected:
            reference.fit_logistic(ss.base, opts)
        assert str(raised.value) == str(expected.value)

    def test_recovers_generating_parameters(self):
        """Consistency at n = 50000: the fit lands within 0.05 per coordinate
        of the parameters the labels were drawn from."""
        theta0 = np.array([1.5, -0.7])
        ss = lr.semisynthetic_from_model(lr.gaussian_features(50000, 2, 2024),
                                         lr.LogisticModel(theta0), lr.LabelDrawSeed(2024))
        model = lr.fit_logistic(ss.base, lr.FitOptions(include_intercept=False))
        np.testing.assert_allclose(model.theta, theta0, atol=0.05)

    def test_gradient_small_at_optimum(self, cluster_ss):
        opts = lr.FitOptions(include_intercept=False)
        model = lr.fit_logistic(cluster_ss.base, opts)
        X = design_matrix(cluster_ss.base.features, False)
        g = loss_gradient(model.theta, X, cluster_ss.base.labels.astype(float), 0.0)
        assert np.max(np.abs(g)) <= opts.grad_tol

    def test_analytic_gradient_matches_finite_differences(self, cluster_ss):
        gen = np.random.default_rng(8)
        X = design_matrix(cluster_ss.base.features, False)
        y = cluster_ss.base.labels.astype(float)
        for ridge in (0.0, 0.3):
            for _ in range(25):
                theta = gen.standard_normal(2)
                g = loss_gradient(theta, X, y, ridge)
                fd = finite_difference_gradient(theta, X, y, ridge)
                np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_label_flip_antisymmetry(self, cluster_ss):
        opts = lr.FitOptions(include_intercept=False)
        model = lr.fit_logistic(cluster_ss.base, opts)
        flipped = cluster_ss.base.with_labels(-cluster_ss.base.labels)
        model_flipped = lr.fit_logistic(flipped, opts)
        np.testing.assert_allclose(model_flipped.theta, -model.theta,
                                   atol=10 * opts.grad_tol)

    def test_loss_trace_never_increases(self, cluster_ss):
        """Also where the last, pure, Newton step raises the computed loss by
        a rounding error, which the recorded loss must not show."""
        rounding = lr.semisynthetic_from_model(lr.gaussian_features(200, 2, 23),
                                               lr.LogisticModel([1.0, -0.5]),
                                               lr.LabelDrawSeed(23)).base
        for data in (cluster_ss.base, rounding):
            _, trace = lr.fit_logistic(data, lr.FitOptions(include_intercept=False),
                                       return_trace=True)
            assert len(trace) >= 2
            assert np.all(np.diff(trace) <= 0.0)

    def test_warm_start_reaches_same_optimum(self, cluster_ss):
        opts = lr.FitOptions(include_intercept=False)
        cold = lr.fit_logistic(cluster_ss.base, opts)
        warm = lr.fit_logistic(cluster_ss.base, opts, theta0=cold.theta + 0.1)
        np.testing.assert_allclose(warm.theta, cold.theta, atol=1e-7)

    @pytest.mark.parametrize("field, value", [
        ("ridge", math.nan), ("ridge", math.inf), ("ridge", -1.0),
        ("grad_tol", math.nan), ("grad_tol", math.inf), ("grad_tol", 0.0)])
    def test_options_reject_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            lr.FitOptions(**{field: value})

    def test_ridge_shrinks_parameters(self, cluster_ss):
        loose = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        tight = lr.fit_logistic(cluster_ss.base,
                                lr.FitOptions(ridge=50.0, include_intercept=False))
        assert np.linalg.norm(tight.theta) < np.linalg.norm(loose.theta)


def per_row_fits(features, label_rows, opts, theta0=None):
    """The reference fit once per label row: the oracle for fit_logistic_batch.

    Returns (thetas, raised): NaN rows and True where the fit raised
    FitDiverged or SingularHessian.
    """
    d = design_matrix(features, opts.include_intercept).shape[1]
    thetas = np.full((len(label_rows), d), np.nan)
    raised = np.zeros(len(label_rows), dtype=bool)
    for k, labels in enumerate(label_rows):
        try:
            model = reference.fit_logistic(lr.Dataset(features, labels), opts,
                                           theta0=theta0)
            thetas[k] = model.theta
        except (errors.FitDiverged, errors.SingularHessian):
            raised[k] = True
    return thetas, raised



def near_collinear_designs():
    """(X, label) pairs: random designs whose last column is the first plus
    delta times noise, delta from 1e-2 to 0, at scales 1e-8 to 1e8."""
    gen = np.random.default_rng(41)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        for delta in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 0.0):
            for n, d in ((6, 2), (9, 3), (200, 4), (2000, 6)):
                X = gen.standard_normal((n, d)) * scale
                X[:, -1] = X[:, 0] + delta * scale * gen.standard_normal(n)
                yield X, f"scale={scale:g} delta={delta:g} {n}x{d}"


class TestRankCertificate:
    """glm._rank_deficient: matrix_rank's verdict, certified from the Gram
    matrix's eigenvalues where they leave no doubt."""

    def test_agrees_with_matrix_rank_on_near_collinear_designs(self):
        designs = list(near_collinear_designs())
        verdicts = [(glm._rank_deficient(X), bool(np.linalg.matrix_rank(X) < X.shape[1]), label)
                    for X, label in designs]
        assert [v for v in verdicts if v[0] != v[1]] == []
        assert len(designs) == 180 and 0 < sum(v[1] for v in verdicts) < 180

    @pytest.mark.parametrize("n, d", [(6, 1), (9, 3), (200, 2), (10_000, 21)])
    def test_certificate_decides_well_conditioned_designs(self, monkeypatch, n, d):
        """No SVD runs on a well-conditioned design, in the rank check or in
        a ridge-0 fit."""
        def no_svd(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
        gen = np.random.default_rng(n)
        features = gen.standard_normal((n, d))
        assert not glm._rank_deficient(features)
        labels = np.where(gen.random(n) < 0.5, 1, -1)
        labels[:2] = [1, -1]
        try:
            lr.fit_logistic(lr.Dataset(features, labels), lr.FitOptions(include_intercept=False))
        except errors.FitDiverged:  # a separable draw: the rank check ran all the same
            pass

    @pytest.mark.parametrize("X", [np.full((4, 2), 1e200), np.zeros((5, 2)),
                                   np.array([[1e-170, 1.0], [2e-170, 0.0], [0.0, 1.0]])],
                             ids=["Gram overflows", "zero design", "column underflows"])
    def test_matrix_rank_decides_what_the_certificate_cannot(self, monkeypatch, X):
        calls = []
        matrix_rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda A: calls.append(1) or matrix_rank(A))
        assert glm._rank_deficient(X) == (matrix_rank(X) < 2) and calls == [1]

    @pytest.mark.parametrize("ridge, expected_calls", [(0.0, 1), (0.1, 0)])
    def test_each_fit_reads_the_rank_once(self, monkeypatch, ridge, expected_calls):
        """On the 4-point design [x, 2x], fit_logistic, fit_many and fit_each
        (on 3 label rows) each read the rank once at ridge 0, where the first
        two raise SingularHessian and every entry of fit_each is None, and
        never with ridge."""
        calls = []
        rank_deficient = glm._rank_deficient
        monkeypatch.setattr(glm, "_rank_deficient", lambda X: calls.append(1) or rank_deficient(X))
        features = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        label_rows = np.array([[1, -1, 1, -1], [1, 1, -1, -1]])
        data = lr.Dataset(features, label_rows[0])
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        trainer = lr.LogisticTrainer(opts)
        for fit in (lambda: lr.fit_logistic(data, opts),
                    lambda: trainer.fit_many(data, label_rows, features)):
            calls.clear()
            if ridge:
                fit()
            else:
                with pytest.raises(errors.SingularHessian):
                    fit()
            assert len(calls) == expected_calls
        calls.clear()
        fits = trainer.fit_each(data, np.vstack([label_rows, [-1, 1, 1, -1]]))
        assert len(calls) == expected_calls and len(fits) == 3
        for entry in fits:
            assert isinstance(entry, lr.LogisticModel) if ridge else entry is None

class TestFitLogisticBatch:
    """The batched engine against one reference fit per row."""

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_matches_per_row_fits(self, ridge):
        gen = np.random.default_rng(5)
        features = gen.standard_normal((50, 3))
        probs = lr.sigmoid(features @ np.array([1.0, -0.5, 0.3]) + 0.2)
        label_rows = np.where(gen.random((40, 50)) < probs, 1, -1)
        opts = lr.FitOptions(ridge=ridge, include_intercept=True)
        for theta0 in (None, np.array([0.5, -0.2, 0.1, 0.0])):
            expected, raised = per_row_fits(features, label_rows, opts, theta0)
            thetas, separable = fit_logistic_batch(
                design_matrix(features, True), label_rows, opts, theta0=theta0)
            np.testing.assert_array_equal(separable, raised)
            np.testing.assert_allclose(thetas, expected, rtol=0, atol=1e-9)

    def test_separable_rows_flagged_exactly_where_per_row_fit_raises(self):
        """All 16 label assignments of the 4-point set; on the rank-deficient
        design [x, 2x] the batch raises what each per-row fit raises."""
        opts = lr.FitOptions(include_intercept=False)
        features = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        label_rows = np.array([[1 if (code >> i) & 1 else -1 for i in range(4)]
                               for code in range(16)])
        expected, raised = per_row_fits(features, label_rows, opts)
        thetas, separable = fit_logistic_batch(features, label_rows, opts)
        np.testing.assert_array_equal(separable, raised)
        np.testing.assert_allclose(thetas, expected, rtol=0, atol=1e-9)

        features = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]])
        label_rows = np.array([[1, -1, 1, -1], [1, 1, -1, -1]])
        with pytest.raises(errors.SingularHessian) as batch:
            fit_logistic_batch(features, label_rows, opts)
        for labels in label_rows:
            with pytest.raises(errors.SingularHessian) as row:
                reference.fit_logistic(lr.Dataset(features, labels), opts)
            assert str(batch.value) == str(row.value)

    def test_no_convergence_when_budget_tiny(self):
        features = lr.gaussian_features(200, 2, 3)
        probs = lr.sigmoid(features @ np.array([1.0, -1.0]))
        label_rows = np.stack([lr.draw_labels(probs, lr.LabelDrawSeed(3, k))
                               for k in range(4)])
        with pytest.raises(errors.NoConvergence):
            fit_logistic_batch(features, label_rows,
                               lr.FitOptions(max_iters=1, include_intercept=False))

    def test_label_shape_checked(self):
        with pytest.raises(errors.DimensionMismatch):
            fit_logistic_batch(np.ones((3, 1)), np.ones((2, 4)), lr.FitOptions())


def test_gram_of_a_stack_is_each_rows_exactly_symmetric_gram():
    """glm._gram on a stack of weight rows gives each row the bits of that row
    alone, exactly symmetric, and X' diag(w) X up to rounding."""
    gen = np.random.default_rng(19)
    X = gen.standard_normal((2000, 21))
    W = gen.uniform(0.0, 0.25, (3, 2000))
    H = glm._gram(X, W)
    for k, w in enumerate(W):
        assert H[k].tobytes() == glm._gram(X, w).tobytes()
        np.testing.assert_array_equal(H[k], H[k].T)
        np.testing.assert_allclose(H[k], X.T @ (w[:, None] * X), rtol=1e-12, atol=1e-12)


class TestSingleFitIsABatchRow:
    """fit_logistic is the engine run on one row, and no row's arithmetic
    depends on the others, so a single fit equals its batch row bit for bit."""

    # 60 x 4 takes the Hessians from the outer-product table, 600 x 21 as S'S
    @pytest.mark.parametrize("n, n_features", [(60, 3), (600, 20)])
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_equals_batch_row(self, n, n_features, ridge):
        d = n_features + 1
        assert (n * d * d <= glm.HESSIAN_TABLE_ENTRIES) == (n == 60)
        gen = np.random.default_rng(n)
        features = gen.standard_normal((n, n_features))
        probs = lr.sigmoid(features @ gen.normal(0.0, 0.5, n_features) + 0.2)
        label_rows = np.where(gen.random((12, n)) < probs, 1, -1)
        opts = lr.FitOptions(ridge=ridge, include_intercept=True)
        X = design_matrix(features, True)
        for theta0 in (None, gen.normal(0.0, 0.2, d)):
            thetas, separable = fit_logistic_batch(X, label_rows, opts, theta0=theta0)
            assert not separable.any()
            for k, labels in enumerate(label_rows):
                model = lr.fit_logistic(lr.Dataset(features, labels), opts, theta0=theta0)
                np.testing.assert_array_equal(model.theta, thetas[k])

    def test_lone_ladder_row_equals_its_rung_at_twice_k(self):
        """One separable row is alone on its fallback rung; with every row
        doubled, each row and its copy are refit once and the laddered row is
        counted twice. fit_many on one row alone, laddered or not, gives that
        row the same again."""
        features = np.random.default_rng(9).standard_normal((9, 2))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=True))
        assignments = all_assignments(9)
        _, separable = fit_logistic_batch(design_matrix(features, True), assignments,
                                          trainer.opts)
        label_rows = np.concatenate([assignments[~separable][:7],
                                     assignments[separable][:1]])
        data = lr.Dataset(features, label_rows[0])
        once, once_fallbacks = trainer.fit_many(data, label_rows, features, None)
        twice, twice_fallbacks = trainer.fit_many(data, np.concatenate([label_rows] * 2),
                                                  features, None)
        assert (once_fallbacks, twice_fallbacks) == (1, 2)
        np.testing.assert_array_equal(twice[:8], once)
        np.testing.assert_array_equal(twice[8:], once)
        for k in (0, 7):
            alone, _ = trainer.fit_many(data, label_rows[k:k + 1], features, None)
            np.testing.assert_array_equal(alone[0], once[k])


class TestEngineAcrossBlocks:
    """With blocks of 81 * 200 label entries, K = 300 rows at n = 200 run as
    three blocks of 81 rows and a last block of 57 through one workspace per
    call. Every row equals its one-row fit bit for bit, and the call gives the
    same bits again after calls of other shapes. Three rows are separable; the
    far warm start makes rows halve their steps."""

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_rows_equal_single_fits(self, ridge, monkeypatch):
        n, K = 200, 300
        monkeypatch.setattr(glm, "BATCH_ENTRIES", 81 * n)
        gen = np.random.default_rng(15)
        features = gen.standard_normal((n, 2))
        w = np.array([1.5, -1.0])
        label_rows = np.where(gen.random((K, n)) < lr.sigmoid(features @ w + 0.1), 1, -1)
        label_rows[[40, 150, 299]] = np.where(features @ w > 0, 1, -1)
        opts = lr.FitOptions(ridge=ridge, include_intercept=True)
        X = design_matrix(features, True)
        for theta0 in (None, np.array([-2.0, 3.0, 1.5])):
            thetas, separable = fit_logistic_batch(X, label_rows, opts, theta0=theta0)
            assert separable.sum() == (3 if ridge == 0.0 else 0)
            for k, labels in enumerate(label_rows):
                data = lr.Dataset(features, labels)
                if separable[k]:
                    with pytest.raises(errors.FitDiverged):
                        lr.fit_logistic(data, opts, theta0=theta0)
                else:
                    model = lr.fit_logistic(data, opts, theta0=theta0)
                    np.testing.assert_array_equal(model.theta, thetas[k])
            fit_logistic_batch(X[:60], label_rows[:7, :60], opts)
            fit_logistic_batch(X, label_rows[:5], opts, theta0=theta0)
            fit_logistic_batch(X[:9], all_assignments(9), opts)
            again, again_separable = fit_logistic_batch(X, label_rows, opts, theta0=theta0)
            np.testing.assert_array_equal(again_separable, separable)
            np.testing.assert_array_equal(again, thetas)


def test_desk_size_batch_runs_as_one_block(monkeypatch):
    """A K = 300, n = 200 batch, the size of a desk Monte Carlo refit, runs
    through the engine in one block."""
    calls = []
    newton_rows = glm._newton_rows

    def counted(*args):
        calls.append(len(args[2]))
        return newton_rows(*args)

    monkeypatch.setattr(glm, "_newton_rows", counted)
    gen = np.random.default_rng(18)
    X = design_matrix(gen.standard_normal((200, 2)), True)
    fit_logistic_batch(X, np.where(gen.random((300, 200)) < 0.5, 1, -1), lr.FitOptions())
    assert calls == [300]


class TestSeparableRowsLeave:
    """At ridge 0 a row leaves as separable on the first pass, the warm start
    included, where its theta gives every point a positive margin, and also
    past the norm guard or when its Hessian fails the Cholesky test."""

    def test_separable_rows_leave_within_a_small_budget(self):
        """Every assignment of a 6-point set: at max_iters=8 the engine flags
        the rows the reference flags at the default budget of 100."""
        features = np.array([[-1.5], [-0.7], [-0.2], [0.4], [0.9], [1.8]])
        label_rows = all_assignments(6)
        expected, raised = per_row_fits(features, label_rows,
                                        lr.FitOptions(include_intercept=False))
        thetas, separable = fit_logistic_batch(
            features, label_rows, lr.FitOptions(max_iters=8, include_intercept=False))
        assert 0 < raised.sum() < len(label_rows)
        np.testing.assert_array_equal(separable, raised)
        np.testing.assert_allclose(thetas, expected, rtol=0, atol=1e-9)

    def test_separating_warm_start_leaves_before_any_step(self):
        """The warm start already separates the labels, so the row leaves on
        the first pass and its loss trace holds the start alone."""
        X = np.array([[-1.0], [0.5], [2.0]])
        trace = []
        thetas, separable = glm._fit_rows(X, np.array([[-1, 1, 1]]),
                                          lr.FitOptions(include_intercept=False),
                                          np.array([0.1]), trace)
        assert separable.tolist() == [True] and np.isnan(thetas).all()
        assert len(trace) == 1

    def test_norm_guard_and_collapsed_weights_flag_rows_like_the_reference(self):
        """Signs of separability other than the margin proof. On a nearly
        collinear design some rows have their optimum past DIVERGENCE_GUARD.
        From a warm start so far out that every Newton weight underflows,
        each Hessian fails the Cholesky test."""
        x = np.array([0.12, -1.41, 0.91, 0.23])
        collinear = np.column_stack([x, x + 1e-6 * np.array([1.0, 1.0, 2.0, -3.0])])
        cases = [(collinear, all_assignments(4), None),
                 (np.array([[1.0], [2.0], [-1.0]]), np.array([[1, -1, -1], [-1, 1, -1]]),
                  np.array([1000.0]))]
        opts = lr.FitOptions(include_intercept=False)
        for features, label_rows, theta0 in cases:
            expected, raised = per_row_fits(features, label_rows, opts, theta0)
            thetas, separable = fit_logistic_batch(features, label_rows, opts, theta0=theta0)
            assert raised.any()
            np.testing.assert_array_equal(separable, raised)
            np.testing.assert_allclose(thetas, expected, rtol=1e-9, atol=1e-9)

    def test_singular_solve_flags_the_row(self):
        """From this warm start, a pool-score resample of an active-learning
        run, the Hessian passes the Cholesky test but np.linalg.solve finds it
        singular. The row is flagged as separable, as it would be had the
        Cholesky test failed, where the reference loop raises LinAlgError."""
        features, _ = lr.two_cluster_population(16)
        data = lr.Dataset(features[[4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15]],
                          [1, 1, 1, 1, 1, 1, 1, -1, 1, -1, -1])
        opts = lr.FitOptions(include_intercept=True)
        theta0 = np.array([-2.1528393990161208, 18.032097356444652, 16.55867347990018])
        with pytest.raises(np.linalg.LinAlgError):
            reference.fit_logistic(data, opts, theta0=theta0)
        with pytest.raises(errors.FitDiverged):
            lr.fit_logistic(data, opts, theta0=theta0)

    def test_small_budget_separable_fit_diverges(self):
        """Two steps leave no room for the norm guard, but the second iterate
        separates the points, so the fit raises FitDiverged (which sends a
        resample down the ridge ladder), not NoConvergence."""
        data = lr.Dataset([[-1.0], [1.0]], [-1, 1])
        with pytest.raises(errors.FitDiverged):
            lr.fit_logistic(data, lr.FitOptions(max_iters=2, include_intercept=False))


def lapack_step(h, g):
    """The factored Newton step of one Hessian: (whether it passed the
    Cholesky test, the LU solve's step or None where none was taken)."""
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False, None
    try:
        return True, np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        return True, None


def fuzz_hessians(gen):
    """A table of d = 1 and d = 2 Hessian stacks with their gradients:
    positive definite at scales from 1e-150 to 1e150 and badly scaled,
    indefinite, negative definite, singular, nearly collinear on both sides of
    CRAMER_DET_SHARE, zero and subnormal pivots, and NaN and inf entries."""
    positive = [1.0, 0.25, 3e-5, 7e5, 1e-300, 1e300, 2.3e-308]
    d1 = [*positive, -1.0, -1e-300, 0.0, -0.0, 5e-324, 1e-310, -1e-310,
          math.nan, math.inf, -math.inf, *gen.lognormal(0.0, 3.0, 20)]
    d2 = []
    for scale in 10.0 ** np.array([-150, -20, -3, 0, 4, 60, 150]):
        A = gen.standard_normal((2, 2))
        d2.append(scale * (A @ A.T + 0.1 * np.eye(2)))
        D = np.diag(10.0 ** gen.uniform(-8, 8, 2))
        d2.append(scale * D @ (A @ A.T + 0.1 * np.eye(2)) @ D)
    for _ in range(20):
        Q, _ = np.linalg.qr(gen.standard_normal((2, 2)))
        lam = gen.lognormal(0.0, 2.0, 2)
        d2 += [Q @ np.diag([lam[0], -lam[1]]) @ Q.T, -(Q @ np.diag(lam) @ Q.T),
               Q @ np.diag(lam) @ Q.T]
    v = gen.standard_normal(2)
    d2 += [np.outer(v, v), np.zeros((2, 2))]
    for k in range(1, 17):  # det / ae = 10^-k
        rho = math.sqrt(1.0 - 10.0 ** -k)
        for s in (rho, -rho):
            d2.append(np.array([[4.0, 6.0 * s], [6.0 * s, 9.0]]))
    for a, b, e in [(0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (-0.0, 0.0, 2.0),
                    (1e-310, 0.0, 1.0), (5e-324, 0.0, 1.0), (1e-310, 0.0, 1e10),
                    (1.0, 0.0, 1e-310), (1e-160, 1e-161, 1e-160), (1e200, 1e199, 1e200),
                    (math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, 0.5, math.nan),
                    (math.inf, 0.5, 1.0), (1.0, math.inf, 1.0), (1.0, 0.5, math.inf),
                    (-math.inf, 0.5, 1.0), (math.inf, math.inf, math.inf)]:
        d2.append(np.array([[a, b], [b, e]]))
    stacks = [np.array(d1)[:, None, None], np.array(d2)]
    return [(H, gen.standard_normal((len(H), H.shape[1]))) for H in stacks]


class TestClosedFormNewtonSteps:
    """At d <= 2 the Newton step is taken in closed form wherever the Hessian
    is finite and far from singular, and by the Cholesky test and LU solve
    elsewhere. The closed form must decide like the Cholesky test and step
    like the solve; each row's result depends on that row alone."""

    # Cramer's rule and the LU solve each have a forward error of a few
    # kappa * eps in the infinity norm, kappa the 2-norm condition number.
    KAPPA_EPS_FACTOR = 8.0

    def test_rejects_the_cholesky_rejections_and_steps_like_the_solve(self, monkeypatch):
        eps = sys.float_info.epsilon
        factored = []
        factored_steps = glm._factored_steps

        def counting(H, grad):
            factored[-1] += len(H)
            return factored_steps(H, grad)

        monkeypatch.setattr(glm, "_factored_steps", counting)
        for H, grad in fuzz_hessians(np.random.default_rng(23136)):
            factored.append(0)
            step, ok = glm._newton_steps(H, grad)
            assert 0 < factored[-1] < len(H)  # both paths are taken
            for k in range(len(H)):
                passed, expected = lapack_step(H[k], grad[k])
                assert ok[k] == passed and passed == (expected is not None), H[k]
                if not passed:
                    continue
                if not np.isfinite(H[k]).all():  # factored as before: the same bits
                    np.testing.assert_array_equal(step[k], expected)
                    continue
                kappa = float(np.linalg.cond(H[k]))
                assert np.array_equal(np.isfinite(step[k]), np.isfinite(expected)), H[k]
                finite = np.isfinite(expected)
                np.testing.assert_array_equal(step[k][~finite], expected[~finite])
                error = float(np.max(np.abs(step[k][finite] - expected[finite]), initial=0.0))
                scale = float(np.max(np.abs(expected[finite]), initial=0.0))
                assert error == 0.0 or error <= self.KAPPA_EPS_FACTOR * kappa * eps * scale, H[k]

    def test_fuzz_rows_equal_their_one_row_calls(self):
        """A one-row stack gives every fuzz row, closed form or factored, the
        stack's flag and step bits."""
        for H, grad in fuzz_hessians(np.random.default_rng(23136)):
            step, ok = glm._newton_steps(H, grad)
            for k in range(len(H)):
                alone, alone_ok = glm._newton_steps(H[k:k + 1], grad[k:k + 1])
                assert alone.shape == (1, H.shape[1]) and alone.dtype == step.dtype
                assert alone_ok[0] == ok[k], H[k]
                assert alone[0].tobytes() == step[k].tobytes(), H[k]

    def test_mixed_stack_rows_equal_their_one_row_calls(self):
        """Nearly collinear Hessians, which are factored, interleaved with well
        conditioned ones, which are not: every row's step and flag are the
        same bits in the stack and alone."""
        gen = np.random.default_rng(7)
        x = gen.standard_normal(40)
        collinear = np.column_stack([x, x + 1e-5 * gen.standard_normal(40)])
        plain = gen.standard_normal((40, 2))
        stack = []
        for _ in range(12):
            w = gen.uniform(0.0, 0.25, 40)
            stack += [collinear.T @ (w[:, None] * collinear), plain.T @ (w[:, None] * plain)]
        H, grad = np.array(stack), gen.standard_normal((len(stack), 2))
        step, ok = glm._newton_steps(H, grad)
        assert ok.all()
        for k in range(len(H)):
            alone, alone_ok = glm._newton_steps(H[k:k + 1], grad[k:k + 1])
            assert alone_ok[0]
            np.testing.assert_array_equal(alone[0], step[k])

    def test_one_hessian_serves_every_row(self):
        """A stack of one Hessian, as the shared start pass makes, steps every
        gradient as a stack of its copies does: on each fuzz Hessian, closed
        form or factored, and at d = 3."""
        gen = np.random.default_rng(2507)
        A = gen.standard_normal((3, 3))
        d3 = np.array([A @ A.T + 0.1 * np.eye(3), -(A @ A.T), np.outer(A[0], A[0])])
        for H in [H for H, _ in fuzz_hessians(gen)] + [d3]:
            for k in range(len(H)):
                grad = gen.standard_normal((5, H.shape[1]))
                step, ok = glm._newton_steps(H[k:k + 1], grad)
                copies, copies_ok = glm._newton_steps(np.repeat(H[k:k + 1], 5, axis=0), grad)
                assert ok.tolist() == copies_ok.tolist(), H[k]
                assert step.tobytes() == copies.tobytes(), H[k]

    @pytest.mark.parametrize("ridge", [0.0, 1e-5])
    def test_collinear_fit_rows_equal_single_fits(self, ridge, monkeypatch):
        """All 64 assignments of a nearly collinear 6-point design: some
        Newton stacks hold both factored and closed-form rows, and each
        batch row equals its one-row fit bit for bit."""
        x = np.array([0.12, -1.41, 0.91, 0.23, 1.7, -0.6])
        features = np.column_stack([x, x + 1e-2 * np.array([1.0, 1.0, 2.0, -3.0, 0.5, 1.0])])
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        shares = []
        newton_steps = glm._newton_steps

        def recording(H, grad):
            a, b, c, e = H.reshape(len(H), 4).T
            shares.append((a * e - b * c) / (a * e))
            return newton_steps(H, grad)

        monkeypatch.setattr(glm, "_newton_steps", recording)
        label_rows = all_assignments(6)
        thetas, separable = fit_logistic_batch(features, label_rows, opts)
        assert any((s > glm.CRAMER_DET_SHARE).any() and (s <= glm.CRAMER_DET_SHARE).any()
                   for s in shares)
        for k, labels in enumerate(label_rows):
            data = lr.Dataset(features, labels)
            if separable[k]:
                with pytest.raises(errors.FitDiverged):
                    lr.fit_logistic(data, opts)
            else:
                np.testing.assert_array_equal(lr.fit_logistic(data, opts).theta, thetas[k])


def test_failed_step_halving_stops_on_the_next_pass(small_dataset, monkeypatch):
    """With no halvings allowed, the full step from this warm start raises the
    loss: the row keeps its theta, and the next pass raises NoConvergence
    instead of repeating the step until max_iters."""
    monkeypatch.setattr(glm, "MAX_HALVINGS", 0)
    X = design_matrix(small_dataset.features, False)
    trace = []
    with pytest.raises(errors.NoConvergence):
        glm._fit_rows(X, small_dataset.labels[None, :], lr.FitOptions(include_intercept=False),
                      np.array([3.0, 3.0]), trace)
    assert len(trace) == 2


def random_fit_case(gen):
    """A small random fit: (dataset, options, warm start or None). About one
    design in eight is rank deficient, by a repeated or a zero column."""
    n, n_features = int(gen.integers(2, 14)), int(gen.integers(1, 4))
    features = gen.normal(0.0, 1.5, (n, n_features))
    if n_features > 1 and gen.random() < 0.125:
        features[:, -1] = 0.0 if gen.random() < 0.5 else 2.0 * features[:, 0]
    probs = lr.sigmoid(features @ gen.normal(0.0, 1.5, n_features) + gen.normal(0.0, 0.5))
    labels = np.where(gen.random(n) < probs, 1, -1)
    opts = lr.FitOptions(ridge=float(gen.choice([0.0, 1e-6, 0.1])),
                         include_intercept=bool(gen.random() < 0.5))
    d = n_features + opts.include_intercept
    theta0 = gen.normal(0.0, 0.5, d) if gen.random() < 0.3 else None
    return lr.Dataset(features, labels), opts, theta0


def fit_outcome(fit, data, opts, theta0):
    """("fit", theta, loss trace) for a fit, or (the error's class, None, None)."""
    try:
        model, trace = fit(data, opts, theta0=theta0, return_trace=True)
        return "fit", model.theta, np.array(trace)
    except errors.LabelRegretError as exc:
        return type(exc).__name__, None, None


def test_engine_matches_the_reference_on_random_fits():
    """400 seeded random fits: the same outcome class as the reference, the
    same theta within 1e-9 of its largest entry, and the same loss trace."""
    gen = np.random.default_rng(2507)
    outcomes = []
    for _ in range(400):
        data, opts, theta0 = random_fit_case(gen)
        outcome, theta, trace = fit_outcome(lr.fit_logistic, data, opts, theta0)
        expected, expected_theta, expected_trace = fit_outcome(
            reference.fit_logistic, data, opts, theta0)
        assert outcome == expected
        if theta is not None:
            np.testing.assert_allclose(theta, expected_theta, rtol=0,
                                       atol=1e-9 * np.max(np.abs(expected_theta)))
            np.testing.assert_allclose(trace, expected_trace, rtol=1e-9)
        outcomes.append(outcome)
    assert {"fit", "FitDiverged", "SingularHessian"} <= set(outcomes)


def one_row_outcome(X, labels, opts, theta0, halvings=glm.MAX_HALVINGS):
    """(outcome, theta, loss trace) of one row alone, at MAX_HALVINGS =
    halvings: "fit" or "separable" with the theta, or "NoConvergence"."""
    saved, glm.MAX_HALVINGS = glm.MAX_HALVINGS, halvings
    trace = []
    try:
        thetas, separable = glm._fit_rows(X, labels[None, :], opts, theta0, trace)
        return ("separable" if separable[0] else "fit"), thetas[0], np.concatenate(trace)
    except errors.NoConvergence:
        return "NoConvergence", None, np.concatenate(trace)
    finally:
        glm.MAX_HALVINGS = saved


class TestSharedStartPass:
    """Every row of a block starts at theta0, so the engine forms the start's
    margins, probabilities and Hessian once, for all rows, and each pass's
    separability proof reads the margin maxima of the loss sweep. Blocks at
    d = 1, 2 and 3 must still give every row the bits of its one-row fit,
    and the reference's separable masks and loss traces.

    The warm blocks at ridge 0 hold a row of each kind that the shared start
    and the carried margin maxima could get wrong, each checked by its own
    one-row run: a row the margin proof flags at theta0; a row that halves
    its first step (with no halving allowed it stalls there); on the plain
    d = 2 and 3 designs, a row proved separable on the pass right after a
    halved step (with no halving allowed it stalls on that step; separable
    data in one feature never rejects a step); and at d = 3 and on a nearly
    collinear d = 2 design, Hessians that go through _factored_steps, the
    shared one included."""

    CASES = {"d1": (1, False), "d2": (2, False), "d2_collinear": (2, True), "d3": (3, False)}

    def _block(self, case):
        """(X, warm start, label rows, rows of each kind) of a case."""
        d, collinear = self.CASES[case]
        gen = np.random.default_rng(2307 + d + 10 * collinear)
        X = gen.standard_normal((14, d))
        if collinear:
            X[:, 1] = X[:, 0] + 1e-3 * gen.standard_normal(14)
        warm = gen.standard_normal(d)
        warm *= 3.0 / np.linalg.norm(warm)
        opts = lr.FitOptions(include_intercept=False)
        rows = [np.where(gen.random((24, 14)) < lr.sigmoid(X @ gen.standard_normal(d)), 1, -1),
                np.where(X @ warm > 0, 1, -1)[None, :]]
        kinds = {"flagged at theta0": [24]}

        def first(kind, draw, holds):
            for _ in range(400):
                labels = draw()
                if holds(labels):
                    kinds[kind] = [sum(len(r) for r in rows)]
                    rows.append(labels[None, :])
                    return

        def halves_first_step(labels):
            outcome, _, trace = one_row_outcome(X, labels, opts, warm, 0)
            return outcome == "NoConvergence" and len(trace) == 2

        def separable_after_halving(labels):
            outcome, _, trace = one_row_outcome(X, labels, opts, warm)
            stalled, _, stalled_trace = one_row_outcome(X, labels, opts, warm, 0)
            return (outcome == "separable" and len(trace) > 1
                    and stalled == "NoConvergence" and len(stalled_trace) == len(trace))

        first("halves its first step", lambda: np.where(gen.random(14) < 0.5, 1, -1),
              halves_first_step)
        if d >= 2 and not collinear:
            first("separable after halving",
                  lambda: np.where(X @ gen.standard_normal(d) > 0, 1, -1),
                  separable_after_halving)
        return X, warm, np.concatenate(rows), kinds

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_has_each_kind_of_row(self, case, monkeypatch):
        d, collinear = self.CASES[case]
        X, warm, label_rows, kinds = self._block(case)
        expected = {"flagged at theta0", "halves its first step"}
        if d >= 2 and not collinear:
            expected.add("separable after halving")
        assert set(kinds) == expected
        opts = lr.FitOptions(include_intercept=False)
        outcome, _, trace = one_row_outcome(X, label_rows[24], opts, warm)
        assert outcome == "separable" and len(trace) == 1
        factored = []
        factored_steps = glm._factored_steps

        def counting(H, grad):
            factored.append(len(H))
            return factored_steps(H, grad)

        monkeypatch.setattr(glm, "_factored_steps", counting)
        fit_logistic_batch(X, label_rows, opts, theta0=warm)
        assert (len(factored) > 0) == (d == 3 or collinear)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_stalled_on_the_start_raise_as_alone(self, case, monkeypatch):
        """With no halving allowed, rows that would halve their first step keep
        the start, and the next pass raises NoConvergence with the start's
        largest gradient, as the steepest row does alone."""
        X, warm, label_rows, _ = self._block(case)
        opts = lr.FitOptions(include_intercept=False)
        outcomes = [one_row_outcome(X, labels, opts, warm, 0) for labels in label_rows]
        stalled = [labels for labels, (outcome, _, trace) in zip(label_rows, outcomes)
                   if outcome == "NoConvergence" and len(trace) == 2]
        assert len(stalled) >= 2
        monkeypatch.setattr(glm, "MAX_HALVINGS", 0)
        messages = []
        for rows in [stalled, *([labels] for labels in stalled)]:
            with pytest.raises(errors.NoConvergence) as raised:
                fit_logistic_batch(X, np.array(rows), opts, theta0=warm)
            messages.append(str(raised.value))
        norms = [float(m.split()[2]) for m in messages[1:]]
        assert messages[0] == messages[1 + int(np.argmax(norms))]

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_rows_equal_one_row_fits_and_the_reference(self, case, ridge):
        X, warm, label_rows, _ = self._block(case)
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        for theta0 in (None, warm):
            thetas, separable = fit_logistic_batch(X, label_rows, opts, theta0=theta0)
            expected, raised = per_row_fits(X, label_rows, opts, theta0)
            np.testing.assert_array_equal(separable, raised)
            np.testing.assert_allclose(thetas, expected, rtol=1e-9, atol=1e-9)
            for k, labels in enumerate(label_rows):
                outcome, theta, trace = one_row_outcome(X, labels, opts, theta0)
                assert outcome == ("separable" if separable[k] else "fit")
                assert theta.tobytes() == thetas[k].tobytes()
                # On the nearly collinear design the outer-product Hessians round
                # unlike the reference's X'(w X), and one row stops a step of no
                # loss change later than the reference does, as a one-row fit did
                # before the start was shared.
                if not separable[k] and case != "d2_collinear":
                    _, expected_trace = reference.fit_logistic(
                        lr.Dataset(X, labels), opts, theta0=theta0, return_trace=True)
                    np.testing.assert_allclose(trace, expected_trace, rtol=1e-9)


class TestStartPerRow:
    """fit_logistic_batch with a K x d theta0: each row starts at its own
    theta, and its start pass is formed per row. On TestSharedStartPass's
    blocks (rows flagged at a start, rows that halve their first step), each
    row must give the bits of its one-row call from its own start, and a
    start tiled to K x d the bits of the shared start pass."""

    @pytest.mark.parametrize("case", sorted(TestSharedStartPass.CASES))
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_rows_equal_their_one_row_calls(self, case, ridge):
        X, warm, label_rows, _ = TestSharedStartPass()._block(case)
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        gen = np.random.default_rng(len(label_rows))
        starts = np.outer(np.arange(len(label_rows)) % 3 - 1.0, warm)  # -warm, 0, warm
        starts[::4] += 0.3 * gen.standard_normal((len(starts[::4]), X.shape[1]))
        thetas, separable = fit_logistic_batch(X, label_rows, opts, theta0=starts)
        for k, labels in enumerate(label_rows):
            outcome, theta, _ = one_row_outcome(X, labels, opts, starts[k])
            assert outcome == ("separable" if separable[k] else "fit")
            assert theta.tobytes() == thetas[k].tobytes()
        assert 0 < separable.sum() < len(label_rows) or ridge > 0

    @pytest.mark.parametrize("case", sorted(TestSharedStartPass.CASES))
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_tiled_start_gives_the_shared_start_bits(self, case, ridge):
        X, warm, label_rows, _ = TestSharedStartPass()._block(case)
        opts = lr.FitOptions(ridge=ridge, include_intercept=False)
        for theta0 in (np.zeros(X.shape[1]), warm):
            shared = fit_logistic_batch(X, label_rows, opts, theta0=theta0)
            tiled = fit_logistic_batch(X, label_rows, opts,
                                       theta0=np.tile(theta0, (len(label_rows), 1)))
            for a, b in zip(shared, tiled):
                assert a.tobytes() == b.tobytes()

    def test_start_matrix_of_another_shape_raises(self):
        X = np.array([[1.0, 0.5], [-0.3, 1.0], [0.2, -1.0]])
        label_rows = np.array([[1, -1, 1], [-1, -1, 1]])
        for shape in [(3, 2), (2, 3), (1, 2)]:
            with pytest.raises(errors.DimensionMismatch):
                fit_logistic_batch(X, label_rows, theta0=np.zeros(shape))


class TestLogLoss:
    def test_perfect_prediction(self):
        assert lr.log_loss([1.0], [1]) <= 1e-11

    def test_uninformative_is_ln2(self):
        assert abs(lr.log_loss([0.5, 0.5], [1, -1]) - math.log(2.0)) < 1e-15

    def test_matches_parameter_form(self, cluster_ss):
        """Mean log loss of predicted probabilities equals the sum-form
        objective divided by n, evaluated independently."""
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        probs = lr.predict_proba(model, cluster_ss.base.features)
        via_probs = lr.log_loss(probs, cluster_ss.base.labels)
        X = design_matrix(cluster_ss.base.features, False)
        via_theta = penalized_loss(model.theta, X,
                                   cluster_ss.base.labels.astype(float), 0.0)
        assert abs(via_probs - via_theta / cluster_ss.base.n_points) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            lr.log_loss([0.5], [1, -1])


class TestAuc:
    def test_perfect_ranking(self):
        assert lr.auc([0.1, 0.2, 0.8, 0.9], [-1, -1, 1, 1]) == 1.0

    def test_all_ties(self):
        assert lr.auc([0.3, 0.3, 0.3], [1, -1, 1]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(errors.SingleClass):
            lr.auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_brute_force(self):
        """Rank statistic equals P(score+ > score-) + 0.5 P(tie) by enumeration."""
        gen = np.random.default_rng(4)
        for _ in range(20):
            n = int(gen.integers(5, 200))
            scores = np.round(gen.uniform(size=n), 2)  # rounding forces ties
            labels = gen.choice([-1, 1], size=n)
            if len(set(labels)) < 2:
                continue
            pos = scores[labels == 1]
            neg = scores[labels == -1]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            expected = wins / (len(pos) * len(neg))
            assert abs(lr.auc(scores, labels) - expected) < 1e-12

    @pytest.mark.parametrize("n, levels", [(7, 2), (300, 3), (2_000, 5), (4_000, 40)])
    def test_tie_heavy_scores_equal_an_exact_pairwise_count(self, n, levels):
        """Scores of a few distinct values, so that most pairs tie: the AUC
        is (wins + ties / 2) / (n_pos n_neg) from an exact count of all
        pairs, correctly rounded, and a permutation of the points, which
        reorders every tie group, leaves it bit for bit."""
        gen = np.random.default_rng(n)
        scores = gen.integers(0, levels, n) / levels
        labels = np.where(np.arange(n) % 3 == 0, 1, -1)
        gen.shuffle(labels)
        pos, neg = scores[labels == 1][:, None], scores[labels == -1][None, :]
        wins, ties = int((pos > neg).sum()), int((pos == neg).sum())
        exact = fractions.Fraction(2 * wins + ties, 2 * pos.size * neg.size)
        assert lr.auc(scores, labels) == float(exact)
        order = gen.permutation(n)
        assert lr.auc(scores[order], labels[order]) == float(exact)


class TestMeanKl:
    def test_identical_is_zero(self):
        p = np.random.default_rng(0).uniform(0.05, 0.95, size=30)
        assert lr.mean_kl(p, p) == 0.0

    def test_certain_truth_anchor(self):
        assert abs(lr.mean_kl([1.0], [0.5]) - math.log(2.0)) < 1e-12

    def test_closed_form_anchor(self):
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert abs(lr.mean_kl([0.8], [0.5]) - expected) < 1e-12

    def test_non_negative(self):
        gen = np.random.default_rng(9)
        p = gen.uniform(size=200)
        q = gen.uniform(size=200)
        assert np.all(lr.bernoulli_kl(p, q) >= 0.0)

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            lr.mean_kl([0.5], [0.5, 0.5])


# Five points whose ground-truth probabilities are about 4e-18, 1 - 4e-18, and
# three inner values, so that 0.0 and 1.0 at the first two agree with the model.
PROB_FEATURES = np.array([[-40.0], [40.0], [0.5], [-0.5], [1.0]])
PROB_MODEL, PROB_SEED = lr.LogisticModel([1.0]), lr.LabelDrawSeed(3)
EDGE_PROBS = np.r_[0.0, 1.0, lr.predict_proba(PROB_MODEL, PROB_FEATURES)[2:]]
HALVES = np.full(5, 0.5)
# Every entry point that takes a probability vector p, by name.
PROB_ENTRY_POINTS = {
    "draw_labels": lambda p: lr.draw_labels(p, PROB_SEED),
    "draw_label_rows": lambda p: draw_label_rows(p, 3, 4),
    "exact_regret_enumeration": lambda p: lr.exact_regret_enumeration(
        PROB_FEATURES, p, lr.EchoTrainer()),
    "log_loss": lambda p: lr.log_loss(p, [1, -1, 1, -1, 1]),
    "bernoulli_kl true_probs": lambda p: lr.bernoulli_kl(p, HALVES),
    "bernoulli_kl pred_probs": lambda p: lr.bernoulli_kl(HALVES, p),
    "mean_kl": lambda p: lr.mean_kl(p, HALVES),
    "SemiSyntheticDataset": lambda p: lr.SemiSyntheticDataset(
        lr.Dataset(PROB_FEATURES, lr.draw_labels(EDGE_PROBS, PROB_SEED)), p, PROB_MODEL,
        PROB_SEED),
}


class TestOneProbabilityCheck:
    """Every probability vector the package takes goes through glm._probabilities:
    a bad entry raises ProbOutOfRange naming the first one, and a vector of the
    wrong shape raises LengthMismatch."""

    @pytest.mark.parametrize("entry", PROB_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_first_entry_outside_the_unit_interval_is_named(self, entry, bad):
        probs = EDGE_PROBS.copy()
        probs[2], probs[4] = bad, -5.0
        with pytest.raises(errors.ProbOutOfRange) as info:
            PROB_ENTRY_POINTS[entry](probs)
        assert info.value.index == 2
        np.testing.assert_array_equal(info.value.value, bad)

    @pytest.mark.parametrize("entry", PROB_ENTRY_POINTS)
    def test_zero_and_one_are_accepted(self, entry):
        PROB_ENTRY_POINTS[entry](EDGE_PROBS)

    @pytest.mark.parametrize("entry", PROB_ENTRY_POINTS)
    def test_a_matrix_is_rejected(self, entry):
        with pytest.raises(errors.LengthMismatch):
            PROB_ENTRY_POINTS[entry](EDGE_PROBS[None, :])

    @pytest.mark.parametrize("entry", ["exact_regret_enumeration", "bernoulli_kl true_probs",
                                       "bernoulli_kl pred_probs", "mean_kl", "log_loss",
                                       "SemiSyntheticDataset"])
    def test_a_wrong_length_is_rejected_where_one_is_implied(self, entry):
        with pytest.raises(errors.LengthMismatch):
            PROB_ENTRY_POINTS[entry](EDGE_PROBS[:4])


class TestScipyOracles:
    """The numpy replacements for scipy.stats.rankdata and scipy.special.rel_entr.

    scipy is only the oracle here; the package itself never imports it.
    """

    @pytest.fixture(autouse=True)
    def scipy_modules(self):
        self.stats = pytest.importorskip("scipy.stats")
        self.special = pytest.importorskip("scipy.special")

    def test_average_ranks_equal_rankdata(self):
        gen = np.random.default_rng(12)
        for _ in range(500):
            n = int(gen.integers(1, 80))
            values = gen.integers(0, int(gen.integers(1, 9)), n) * gen.choice([1.0, 0.1, -3.0])
            np.testing.assert_array_equal(glm._average_ranks(values),
                                          self.stats.rankdata(values, method="average"))

    def test_auc_is_bit_identical_to_the_rankdata_formula(self):
        gen = np.random.default_rng(13)
        for _ in range(200):
            n = int(gen.integers(2, 300))
            scores = np.round(gen.uniform(size=n), int(gen.integers(1, 4)))
            labels = np.where(np.arange(n) % 2 == 0, 1, -1)
            gen.shuffle(labels)
            pos = labels == 1
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ranks = self.stats.rankdata(scores, method="average")
            u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
            assert lr.auc(scores, labels) == float(u / (n_pos * n_neg))

    @staticmethod
    def _kl_cases():
        gen = np.random.default_rng(14)
        n = 20_000
        p = gen.uniform(size=n)
        p[:500], p[500:1000] = 0.0, 1.0
        near = np.clip(p + gen.normal(0.0, 1e-4, n), 0.0, 1.0)  # the log1p branch
        q = np.where(gen.uniform(size=n) < 0.5, near, gen.uniform(size=n))
        q[1000:1500], q[1500:2000], q[2000:2500] = 0.0, 1.0, 1e-13  # clipped
        return p, q

    def test_rel_entr_within_4_ulps(self):
        p, q = self._kl_cases()
        q = np.clip(q, glm.PROB_CLIP, 1.0 - glm.PROB_CLIP)
        for x, y in ((p, q), (1.0 - p, 1.0 - q)):
            ours, ref = glm._rel_entr(x, y), self.special.rel_entr(x, y)
            assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.abs(ref)))
            np.testing.assert_array_equal(ours[x == 0.0], 0.0)

    def test_bernoulli_kl_within_4_ulps_of_each_term(self):
        """The two terms can cancel, so the bound is on the terms, not on their sum."""
        p, q = self._kl_cases()
        clipped = np.clip(q, glm.PROB_CLIP, 1.0 - glm.PROB_CLIP)
        t1 = self.special.rel_entr(p, clipped)
        t2 = self.special.rel_entr(1.0 - p, 1.0 - clipped)
        error = np.abs(lr.bernoulli_kl(p, q) - (t1 + t2))
        assert np.all(error <= 4 * (np.spacing(np.abs(t1)) + np.spacing(np.abs(t2))))


def test_cli_import_loads_no_scipy():
    """A fresh interpreter that imports the command line has no scipy module loaded."""
    src = str(Path(lr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, labelregret.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestTrainers:
    def test_echo_predicts_observed_labels(self, small_dataset):
        predictor = lr.EchoTrainer().fit(small_dataset)
        np.testing.assert_array_equal(predictor(small_dataset.features),
                                      (small_dataset.labels + 1) / 2)

    def test_echo_rejects_other_points(self, small_dataset):
        predictor = lr.EchoTrainer().fit(small_dataset)
        with pytest.raises(errors.DimensionMismatch):
            predictor(small_dataset.features + 1.0)

    def test_constant_ignores_labels(self, small_dataset):
        predictor = ConstantTrainer(0.3).fit(small_dataset)
        np.testing.assert_array_equal(predictor(small_dataset.features),
                                      np.full(small_dataset.n_points, 0.3))

    def test_logistic_trainer_deterministic(self, cluster_ss, plain_trainer):
        a = plain_trainer.fit(cluster_ss.base)(cluster_ss.base.features)
        b = plain_trainer.fit(cluster_ss.base)(cluster_ss.base.features)
        np.testing.assert_array_equal(a, b)

    def test_default_fit_many_fits_each_row_from_start(self, small_dataset):
        """The generic fit_many calls fit once per label row, passing start on,
        and reports no fallbacks."""
        class StartRecorder(ConstantTrainer):
            def __init__(self):
                super().__init__(0.3)
                self.calls = []

            def fit(self, data, start=None):
                self.calls.append((data.labels.tolist(), start))
                return super().fit(data)

        trainer, start = StartRecorder(), object()
        label_rows = np.array([[1] * 8, [-1] * 8, [1, -1] * 4])
        samples, n_fallbacks = trainer.fit_many(small_dataset, label_rows,
                                                small_dataset.features[:3], start)
        assert n_fallbacks == 0
        np.testing.assert_array_equal(samples, np.full((3, 3), 0.3))
        assert trainer.calls == [(row.tolist(), start) for row in label_rows]

    @pytest.mark.parametrize("opts", [
        lr.FitOptions(include_intercept=False), lr.FitOptions(ridge=0.1),
        lr.FitOptions(max_iters=2, include_intercept=False)])
    def test_logistic_fit_each_is_one_fit_per_row(self, small_dataset, opts):
        """LogisticTrainer.fit_each gives None exactly where a row's own fit
        raises, and every other row its fit's theta bit for bit: separable and
        one-class rows, a rank-deficient design, and at max_iters=2 rows that
        do not converge next to one that is separable, where the batch call
        raises and every entry is None."""
        trainer = lr.LogisticTrainer(opts)
        features = small_dataset.features
        label_rows = np.stack([small_dataset.labels, -small_dataset.labels,
                               np.where(features[:, 0] > 0, 1, -1), np.ones(8, dtype=int)])
        outcomes = set()
        for data in (small_dataset, lr.Dataset(np.column_stack([features, features[:, 0]]),
                                               small_dataset.labels)):
            for labels, fitted in zip(label_rows, trainer.fit_each(data, label_rows)):
                try:
                    expected = trainer.fit(data.with_labels(labels))
                except errors.LabelRegretError as exc:
                    assert fitted is None
                    outcomes.add(type(exc).__name__)
                else:
                    assert fitted.theta.tobytes() == expected.theta.tobytes()
                    assert fitted.includes_intercept == expected.includes_intercept
                    outcomes.add("fit")
        if opts.ridge:
            assert outcomes == {"fit"}
        elif opts.max_iters == 2:
            assert outcomes == {"NoConvergence", "FitDiverged", "SingularHessian"}
        else:
            assert outcomes == {"fit", "FitDiverged", "SingularHessian"}

    def test_model_is_its_own_predictor(self, cluster_ss):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=True))
        X = cluster_ss.base.features
        np.testing.assert_array_equal(model(X), lr.predict_proba(model, X))
        point = model(X[3])
        assert isinstance(point, float) and point == lr.predict_proba(model, X[3])

    def test_fit_starts_at_the_start_models_theta(self, small_dataset):
        opts = lr.FitOptions(ridge=0.1, include_intercept=True)
        trainer = lr.LogisticTrainer(opts)
        start = lr.LogisticModel(np.array([0.4, -0.3, 0.2]), includes_intercept=True)
        flipped = small_dataset.with_labels(-small_dataset.labels)
        warm = trainer.fit(flipped, start=start)
        assert isinstance(warm, lr.LogisticModel)
        np.testing.assert_array_equal(
            warm.theta, lr.fit_logistic(flipped, opts, theta0=start.theta).theta)
        np.testing.assert_array_equal(trainer.fit(flipped).theta,
                                      lr.fit_logistic(flipped, opts).theta)

    def test_fit_many_rows_are_the_batch_rows_predictions(self, cluster_ss):
        """Each row of fit_many from a start is sigmoid of the design times
        the matching fit_logistic_batch row from start.theta, bit for bit."""
        data = cluster_ss.base
        opts = lr.FitOptions(include_intercept=True)
        trainer = lr.LogisticTrainer(opts)
        start = trainer.fit(data)
        label_rows = draw_label_rows(start(data.features), 4, 30)
        eval_features = np.random.default_rng(5).standard_normal((11, 2))
        samples, n_fallbacks = trainer.fit_many(data, label_rows, eval_features, start)
        X = design_matrix(data.features, True)
        thetas, separable = fit_logistic_batch(X, label_rows, opts, theta0=start.theta)
        assert n_fallbacks == separable.sum() == 0
        E = design_matrix(eval_features, True)
        for k, theta in enumerate(thetas):
            np.testing.assert_array_equal(samples[k], lr.sigmoid(E @ theta))


def all_assignments(n):
    """Every {-1,+1} label vector of n points, one per row (2**n rows)."""
    codes = np.arange(2 ** n)[:, None]
    return np.where((codes >> np.arange(n)) & 1, 1, -1)


def reference_ladder_fit(data, opts):
    """The cold reference fit, then one reference fit per FALLBACK_RIDGES rung
    until one succeeds, each from the package's start for that rung
    (glm._rung_starts), as LogisticTrainer.fit_many refits a resample.

    Returns (model, whether a rung was needed).
    """
    X = design_matrix(data.features, opts.include_intercept)
    for rung, extra in enumerate((0.0, *glm.FALLBACK_RIDGES)):
        rung_opts = replace(opts, ridge=opts.ridge + extra)
        starts = glm._rung_starts(X, data.labels[None, :], rung_opts) if rung else None
        try:
            return reference.fit_logistic(data, rung_opts,
                                          theta0=None if starts is None else starts[0]), rung > 0
        except (errors.FitDiverged, errors.SingularHessian):
            continue
    raise errors.RefitFallbackExhausted("no rung fits the resample")


class TestBatchedRidgeLadder:
    """LogisticTrainer.fit_many, whose separable rows take the FALLBACK_RIDGES
    rung in one batch, against the reference ladder run row by row."""

    @staticmethod
    def assert_matches_per_row_ladder(n, n_features, include_intercept):
        features = np.random.default_rng(n).standard_normal((n, n_features))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=include_intercept))
        label_rows = all_assignments(n)
        data = lr.Dataset(features, label_rows[0])
        samples, n_fallbacks = trainer.fit_many(data, label_rows, features, None)

        expected = np.empty_like(samples)
        expected_fallbacks = 0
        for k, labels in enumerate(label_rows):
            model, used = reference_ladder_fit(data.with_labels(labels), trainer.opts)
            expected[k] = lr.predict_proba(model, features)
            expected_fallbacks += used
        assert n_fallbacks == expected_fallbacks > 0
        np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, n_features, include_intercept", [(6, 1, False), (9, 2, True)])
    def test_matches_per_row_ladder_on_every_assignment(self, n, n_features, include_intercept):
        self.assert_matches_per_row_ladder(n, n_features, include_intercept)

    def test_exhausted_ladder_raises(self, monkeypatch):
        """A rung of total ridge 0 leaves a separable row flagged."""
        monkeypatch.setattr("labelregret.glm.FALLBACK_RIDGES", (0.0,))
        features = np.array([[1.0], [2.0], [-1.0]])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        label_rows = np.array([[1, -1, -1], [1, 1, -1]])  # the second is separable
        with pytest.raises(errors.RefitFallbackExhausted, match="extra ridge 0$"):
            trainer.fit_many(lr.Dataset(features, label_rows[0]), label_rows, features, None)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e7])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_rank_deficient_design_raises_singular_hessian(self, scale, warm):
        """At ridge 0 the engine flags every row of 8 points whose columns are x
        and 2x times scale, and fit_many raises what fit_logistic raises there.
        At 1e6 and above the rung's ridge is below the rounding of X'WX, so the
        rung could not fit such rows either."""
        gen = np.random.default_rng(0)
        x = gen.standard_normal(8)
        features = np.column_stack([x, 2.0 * x]) * scale
        label_rows = np.where(gen.random((20, 8)) < 0.5, -1, 1)
        data = lr.Dataset(features, label_rows[0])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        start = lr.LogisticModel([0.1, -0.2]) if warm else None
        with pytest.raises(errors.SingularHessian) as raised:
            trainer.fit_many(data, label_rows, features, start)
        with pytest.raises(errors.SingularHessian) as expected:
            trainer.fit(data)
        assert str(raised.value) == str(expected.value)


def full_rank_grid():
    """(features, include_intercept, scale) of small full-rank designs: 1-3
    standard normal columns, plain or with the second column x + 1e-4 delta,
    n = 5-9, with and without an intercept, times scale = 1e-3, 1 and 1e8."""
    for n in range(5, 10):
        gen = np.random.default_rng(n)
        x, delta = gen.standard_normal((n, 3)), gen.standard_normal(n)
        for d in (1, 2, 3):
            for collinear in (False, True) if d > 1 else (False,):
                features = x[:, :d].copy()
                if collinear:
                    features[:, 1] = features[:, 0] + 1e-4 * delta
                for scale in (1e-3, 1.0, 1e8):
                    for include_intercept in (False, True):
                        yield features * scale, include_intercept, scale


def test_one_rung_fits_every_separable_row_of_a_full_rank_design():
    """Every label assignment of each full_rank_grid design, at ridge 0: the
    rows flagged as separable are refit at FALLBACK_RIDGES' one ridge, and
    that rung flags none of them (fit_many would raise
    RefitFallbackExhausted). At ridge > 0 the engine can flag a row only
    where the ridge is below the rounding of X'WX, which on these designs it
    is not; columns whose scales differ by about 1e8, such as features of 1e8
    beside an intercept, can bring it there. A design whose fits raise
    NoConvergence, at ridge 0 or on the rung, is skipped: that is the
    absolute grad_tol stalling on nearly collinear columns, a fault of the
    stopping rule that no rung would catch. grad_tol grows with features
    above 1, as at 1e8 the absolute 1e-8 lies below the gradient's rounding
    and nearly every fit would raise NoConvergence."""
    laddered = dict.fromkeys((1e-3, 1.0, 1e8), 0)
    for features, include_intercept, scale in full_rank_grid():
        n, d = features.shape
        assert np.linalg.matrix_rank(design_matrix(features, include_intercept)) \
            == d + include_intercept
        label_rows = all_assignments(n)
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=include_intercept,
                                                   grad_tol=1e-8 * max(1.0, scale)))
        try:
            _, n_fallbacks = trainer.fit_many(lr.Dataset(features, label_rows[0]),
                                              label_rows, features[:1])
        except errors.NoConvergence:
            continue
        laddered[scale] += n_fallbacks
    assert min(laddered.values()) > 1000


class TestRungStarts:
    """On a one-column design, LogisticTrainer.fit_many starts a ladder rung's
    rows at glm._rung_starts: s* u, u being the row's first Newton step from
    theta = 0 under the rung's ridge and s* the minimizer of the penalized
    loss along it, which at d = 1 is the fit. The rungs then agree with the
    cold ladder, which starts them at 0, within the grad_tol band."""

    @staticmethod
    def one_column(n):
        return np.random.default_rng(n).standard_normal((n, 1))

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("ridge", [1e-6, 1e-4, 1e-2])
    def test_start_is_the_line_optimum_of_the_first_newton_step(self, n, ridge):
        """Every assignment, separable or not: the start is s u with s > 0,
        u computed here from its definition, and the slope of the loss along
        it, start . gradient, is zero to within the rounding of the gradient's
        terms."""
        X = self.one_column(n)
        label_rows = all_assignments(n)
        starts = glm._rung_starts(X, label_rows, lr.FitOptions(ridge=ridge))
        eps = np.finfo(float).eps
        for labels, start in zip(label_rows, starts):
            u = np.linalg.solve(0.25 * X.T @ X + ridge * np.eye(1), X.T @ (0.5 * labels))
            s = start[0] / u[0]
            assert np.isfinite(s) and s > 0.0
            np.testing.assert_allclose(start, s * u, rtol=4 * eps, atol=0)
            slope = start @ loss_gradient(start, X, labels, ridge)
            assert abs(slope) <= 16 * eps * (np.abs(X @ start).sum() + ridge * start @ start)

    def test_rows_are_independent_and_mirrored(self):
        opts = lr.FitOptions(ridge=1e-6)
        for n in (6, 10):
            X, label_rows = self.one_column(n), all_assignments(n)
            starts = glm._rung_starts(X, label_rows, opts)
            assert (-starts).tobytes() == glm._rung_starts(X, -label_rows, opts).tobytes()
            for k, labels in enumerate(label_rows):
                assert glm._rung_starts(X, labels[None, :], opts).tobytes() == starts[k].tobytes()

    def test_no_start_at_ridge_0_or_on_more_columns(self):
        label_rows = all_assignments(4)
        assert glm._rung_starts(np.ones((4, 1)), label_rows, lr.FitOptions()) is None
        X = np.random.default_rng(4).standard_normal((4, 2))
        assert glm._rung_starts(X, label_rows, lr.FitOptions(ridge=1e-6)) is None

    @pytest.mark.parametrize("n", [6, 10])
    def test_one_column_rung_rows_take_no_newton_step(self, n, monkeypatch):
        """fit_many makes exactly the Newton steps of its first call: the
        rung's rows meet grad_tol at their starts."""
        X, label_rows = self.one_column(n), all_assignments(n)
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        steps = []
        newton_steps = glm._newton_steps

        def counting(H, grad):
            steps.append(len(grad))
            return newton_steps(H, grad)

        monkeypatch.setattr(glm, "_newton_steps", counting)
        _, separable = fit_logistic_batch(X, label_rows, trainer.opts)
        first_call = list(steps)
        _, n_fallbacks = trainer.fit_many(lr.Dataset(X, label_rows[0]), label_rows, X)
        assert n_fallbacks == separable.sum() > 0
        assert steps[len(first_call):] == first_call

    @pytest.mark.parametrize("n, n_features, include_intercept", [(6, 1, False), (9, 2, True)])
    def test_ladder_agrees_with_the_cold_ladder(self, n, n_features, include_intercept,
                                                ladder_run):
        """Every assignment: the same rows take the same rungs, the rows the
        first call fits keep their bits, and the laddered rows are within 1e-7
        of the cold ladder's. At d = 1 they start elsewhere than at 0, and so
        differ from the cold rows' bits; on more columns they equal them."""
        features = np.random.default_rng(n).standard_normal((n, n_features))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=include_intercept))
        label_rows = all_assignments(n)
        data = lr.Dataset(features, label_rows[0])
        samples, n_fallbacks, rungs = ladder_run(trainer, data, label_rows)
        cold, cold_fallbacks, cold_rungs = ladder_run(trainer, data, label_rows, cold=True)
        assert rungs == cold_rungs and n_fallbacks == cold_fallbacks > 0
        laddered = np.array(rungs) > 0
        assert samples[~laddered].tobytes() == cold[~laddered].tobytes()
        np.testing.assert_allclose(samples[laddered], cold[laddered], rtol=0, atol=1e-7)
        one_column = design_matrix(features, include_intercept).shape[1] == 1
        assert np.all(np.any(samples[laddered] != cold[laddered], axis=1)) == one_column


class TestDistinctRowsRefitOnce:
    """LogisticTrainer.fit_many sends each distinct label row to the engine
    once, in order of first appearance, copies its predictions to every row
    that repeats it, and counts a laddered row once per copy."""

    @staticmethod
    def setting(n, ridge, warm):
        """A trainer, a Dataset of n points, a start (or None) and distinct label
        rows, one of them separable, in an order np.unique would not give."""
        gen = np.random.default_rng(n)
        features = gen.standard_normal((n, 2))
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=ridge, include_intercept=False))
        random_rows = np.where(gen.random((5, n)) < 0.6, 1, -1)
        separable = np.where(features @ np.array([1.0, -0.5]) > 0, 1, -1)
        distinct = np.unique(np.vstack([random_rows, separable]), axis=0)[::-1]
        start = lr.LogisticModel(gen.normal(0.0, 0.3, 2)) if warm else None
        return trainer, lr.Dataset(features, distinct[0]), start, distinct

    @pytest.mark.parametrize("n", [1, 6, 9, 64, 65, 200])
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_repeated_rows_equal_their_rows_fit_alone(self, n, ridge, warm):
        trainer, data, start, distinct = self.setting(n, ridge, warm)
        copies = np.random.default_rng(n + 1).integers(0, len(distinct), 40)
        eval_features = data.features[: min(n, 7)]
        if ridge == 0.0 and n == 1:  # one point, two columns: rank deficient
            with pytest.raises(errors.SingularHessian):
                trainer.fit_many(data, distinct[copies], eval_features, start)
            return
        samples, n_fallbacks = trainer.fit_many(data, distinct[copies], eval_features, start)
        alone = [trainer.fit_many(data, row[None], eval_features, start) for row in distinct]
        np.testing.assert_array_equal(samples, np.vstack([s for s, _ in alone])[copies])
        assert n_fallbacks == sum(alone[j][1] for j in copies)
        if ridge == 0.0:
            assert n_fallbacks > 0

    def test_fallback_count_includes_the_copies(self):
        features = np.array([[-1.5], [-0.7], [-0.2], [0.4], [0.9], [1.8]])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        row = np.where(features[:, 0] > 0, 1, -1)  # separable: takes the ladder
        samples, n_fallbacks = trainer.fit_many(lr.Dataset(features, row),
                                                np.tile(row, (5, 1)), features, None)
        assert n_fallbacks == 5
        np.testing.assert_array_equal(samples, np.tile(samples[0], (5, 1)))

    @staticmethod
    def spy(monkeypatch):
        """Record the label rows and ridge of every fit_logistic_batch call."""
        calls = []
        batch = glm.fit_logistic_batch

        def recording(X, label_rows, opts=lr.FitOptions(), *, theta0=None):
            calls.append((label_rows, opts.ridge))
            return batch(X, label_rows, opts, theta0=theta0)

        monkeypatch.setattr(glm, "fit_logistic_batch", recording)
        return calls

    def test_only_distinct_rows_reach_the_engine_in_first_appearance_order(self, monkeypatch):
        trainer, data, _, distinct = self.setting(9, 0.0, False)
        assert len(distinct) == 6
        copies = np.array([3, 3, 0, 5, 0, 1, 3, 4, 2, 5, 5, 1])
        calls = self.spy(monkeypatch)
        trainer.fit_many(data, distinct[copies], data.features)
        first_call, (rung_rows, rung_ridge) = calls
        np.testing.assert_array_equal(first_call[0], distinct[[3, 0, 5, 1, 4, 2]])
        assert first_call[1] == 0.0 and rung_ridge == glm.FALLBACK_RIDGES[0]
        assert len(np.unique(rung_rows, axis=0)) == len(rung_rows)  # each pending row once

    def test_all_distinct_rows_reach_the_engine_as_the_callers_array(self, monkeypatch):
        trainer, data, start, distinct = self.setting(200, 0.1, True)
        calls = self.spy(monkeypatch)
        trainer.fit_many(data, distinct, data.features, start)
        assert len(calls) == 1 and calls[0][0] is distinct

    @pytest.mark.parametrize("shape", [(6,), (3, 0), (3, 7), (3, 6, 1)])
    def test_misshapen_label_rows_reach_the_engines_shape_check(self, shape):
        features = np.random.default_rng(2).standard_normal((6, 1))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        with pytest.raises(errors.DimensionMismatch):
            trainer.fit_many(lr.Dataset(features, [1, -1] * 3), np.ones(shape, dtype=int),
                             features)

    def test_estimate_regret_counts_every_laddered_resample(self):
        """On a 6-point set most of K=400 resamples repeat; the report's
        fallback count is the sum over one-row fit_many calls."""
        features = np.array([[-1.5], [-0.7], [-0.2], [0.4], [0.9], [1.8]])
        data = lr.Dataset(features, np.array([-1, 1, -1, 1, -1, 1]))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        report = lr.estimate_regret(data, trainer, 400, 21, keep_samples=True)
        start = trainer.fit(data)
        label_rows = draw_label_rows(start(features), 21, 400)
        assert len(np.unique(label_rows, axis=0)) < 100
        alone = [trainer.fit_many(data, row[None], features, start) for row in label_rows]
        np.testing.assert_array_equal(report.samples, np.vstack([s for s, _ in alone]))
        assert report.n_fallback_refits == sum(count for _, count in alone) > 0


class TestHessianHelper:
    def test_matches_finite_difference_hessian(self, cluster_ss):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        X = design_matrix(cluster_ss.base.features, False)
        y = cluster_ss.base.labels.astype(float)
        H = loss_hessian(model.theta, X, 0.0)
        h = 1e-5
        for j in range(2):
            up, down = model.theta.copy(), model.theta.copy()
            up[j] += h
            down[j] -= h
            col = (loss_gradient(up, X, y, 0.0) - loss_gradient(down, X, y, 0.0)) / (2 * h)
            np.testing.assert_allclose(H[:, j], col, rtol=1e-5, atol=1e-7)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        model = lr.LogisticModel(np.array([0.25, -1.5, 3.0]), includes_intercept=True)
        path = tmp_path / "model.json"
        dump_json(path, model_to_dict(model, ["a", "b"]))
        loaded, names, standardization = lr.load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert loaded.includes_intercept is True
        assert names == ["a", "b"]
        assert standardization is None

    def test_name_count_checked(self):
        model = lr.LogisticModel(np.ones(2))
        with pytest.raises(errors.DimensionMismatch):
            model_to_dict(model, ["only-one-name", "x", "y"])

    def test_loaded_name_count_checked(self, tmp_path):
        """load_model rejects the names that model_to_dict would not write."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"theta": [1, 2], "includes_intercept": False,
                                    "feature_names": ["a", "b", "c"]}), encoding="utf-8")
        with pytest.raises(errors.DimensionMismatch, match="model.json"):
            lr.load_model(path)


def _semisynthetic_fields():
    ground_truth, seed = lr.LogisticModel(np.array([0.4, -0.2])), lr.LabelDrawSeed(3)
    features = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
    true_probs = lr.predict_proba(ground_truth, features)
    return {"base": lr.Dataset(features, lr.draw_labels(true_probs, seed)),
            "true_probs": true_probs, "ground_truth": ground_truth, "seed": seed}


# Every record class that holds arrays, with the fields of a valid instance.
RECORD_FIELDS = {
    lr.LogisticModel: lambda: {"theta": np.array([0.4, -0.2])},
    lr.Dataset: lambda: {"features": np.array([[0.5, -1.0], [1.5, 0.25]]),
                         "labels": np.array([1, -1])},
    lr.SemiSyntheticDataset: _semisynthetic_fields,
    lr.RegretReport: lambda: {
        "regret": np.array([0.01, 0.02]), "mean_pred": np.array([0.4, 0.7]),
        "base_pred": np.array([0.45, 0.65]), "n_resamples": 10, "estimator": "monte_carlo",
        "seed": 0, "trainer_name": "logistic", "samples": np.full((10, 2), 0.5)},
    lr.TheoryReport: lambda: {
        "q": np.array([0.01, 0.03]), "lambda_min": 1.0, "lambda_max": 2.0, "x_max": 1.0,
        "x_min": 0.5, "theta_norm": 0.3, "epsilon": 2.0, "bound_applies": False,
        "constant": 1.0},
    lr.SelectiveCurve: lambda: {
        "cutoffs": np.array([0.1, 0.2]), "coverages": np.array([0.5, 1.0]),
        "mean_kls": np.array([0.02, 0.03]), "n_kept": np.array([1, 2])},
    lr.ActiveLearningTrace: lambda: {"n_labeled": np.array([2, 4]),
                                     "mean_kl": np.array([0.05, 0.04])},
    lr.TrialSummary: lambda: {
        "min": np.array([0.1]), "q25": np.array([0.2]), "median": np.array([0.3]),
        "q75": np.array([0.4]), "max": np.array([0.5]), "n_trials": 5},
    lr.TrialsResult: lambda: {
        "experiment": "theory_vs_actual", "positions": np.array([0.0, 1.0]),
        "series": {"q": np.array([[0.1, 0.2], [0.3, 0.4]]),
                   "estimated_regret": np.array([[0.01, 0.02], [0.03, 0.04]])},
        "summaries": {}, "extras": {"true_regret": np.array([0.02, 0.03])},
        "config": lr.ExperimentConfig()},
}
INT_FIELDS = {"labels", "n_kept", "n_labeled"}


def _caller_arrays(fields):
    """(field, key) -> array for each array field (key None) and each array
    value of a dict field."""
    return {(name, key): array for name, value in fields.items()
            for key, array in (value.items() if isinstance(value, dict) else [(None, value)])
            if isinstance(array, np.ndarray)}


@pytest.mark.parametrize("record_class", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_holds_read_only_copies_of_its_arrays(record_class):
    """Built from writable caller arrays, a record holds read-only copies of
    them in its fixed dtype, so that writing to the caller's arrays afterwards
    leaves it unchanged. A dict of arrays is held as a dict of such copies."""
    fields = RECORD_FIELDS[record_class]()
    record = record_class(**fields)
    callers = _caller_arrays(fields)
    held = _caller_arrays(vars(record))
    assert held.keys() == callers.keys()
    copies = {where: array.copy() for where, array in held.items()}
    for where, caller in callers.items():
        assert not held[where].flags.writeable
        assert held[where].dtype == (np.int64 if where[0] in INT_FIELDS else np.float64)
        assert not np.shares_memory(held[where], caller)
        caller += 1
    for where, array in copies.items():
        np.testing.assert_array_equal(held[where], array)
