import math

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors
from labelregret._io import dump_json
from labelregret.glm import (design_matrix, fit_logistic_batch, fit_with_fallback,
                             loss_gradient, loss_hessian, model_to_dict,
                             penalized_loss)


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
        with pytest.raises(errors.SingularHessian):
            lr.fit_logistic(data, lr.FitOptions(include_intercept=False))

    def test_no_convergence_when_budget_tiny(self):
        features = lr.gaussian_features(200, 2, 3)
        ss = lr.semisynthetic_from_model(features, lr.LogisticModel([1.0, -1.0]),
                                         lr.LabelDrawSeed(3))
        with pytest.raises(errors.NoConvergence):
            lr.fit_logistic(ss.base, lr.FitOptions(max_iters=1,
                                                   include_intercept=False))

    def test_recovers_generating_parameters(self):
        """Consistency at n = 50000: the fit lands within 0.05 per coordinate
        of the parameters the labels were drawn from."""
        theta0 = np.array([1.5, -0.7])
        ss = lr.gaussian_semisynthetic(50000, 2, theta0, 2024)
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
        _, trace = lr.fit_logistic(cluster_ss.base,
                                   lr.FitOptions(include_intercept=False),
                                   return_trace=True)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 0.0)

    def test_warm_start_reaches_same_optimum(self, cluster_ss):
        opts = lr.FitOptions(include_intercept=False)
        cold = lr.fit_logistic(cluster_ss.base, opts)
        warm = lr.fit_logistic(cluster_ss.base, opts, theta0=cold.theta + 0.1)
        np.testing.assert_allclose(warm.theta, cold.theta, atol=1e-7)

    def test_ridge_shrinks_parameters(self, cluster_ss):
        loose = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        tight = lr.fit_logistic(cluster_ss.base,
                                lr.FitOptions(ridge=50.0, include_intercept=False))
        assert np.linalg.norm(tight.theta) < np.linalg.norm(loose.theta)


def per_row_fits(features, label_rows, opts, theta0=None):
    """fit_logistic once per label row: the reference for fit_logistic_batch.

    Returns (thetas, raised): NaN rows and True where the fit raised
    FitDiverged or SingularHessian.
    """
    d = design_matrix(features, opts.include_intercept).shape[1]
    thetas = np.full((len(label_rows), d), np.nan)
    raised = np.zeros(len(label_rows), dtype=bool)
    for k, labels in enumerate(label_rows):
        try:
            model = lr.fit_logistic(lr.Dataset(features, labels), opts, theta0=theta0)
            thetas[k] = model.theta
        except (errors.FitDiverged, errors.SingularHessian):
            raised[k] = True
    return thetas, raised


class TestFitLogisticBatch:
    """The batched engine against one fit_logistic call per row."""

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
        """All 16 label assignments of the 4-point set, and a rank-deficient
        design whose every row must take the ridge fallback."""
        opts = lr.FitOptions(include_intercept=False)
        cases = [
            (np.array([[1.0], [1.0], [-1.0], [-1.0]]),
             np.array([[1 if (code >> i) & 1 else -1 for i in range(4)]
                       for code in range(16)])),
            (np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [-1.0, -2.0]]),
             np.array([[1, -1, 1, -1], [1, 1, -1, -1]])),
        ]
        for features, label_rows in cases:
            expected, raised = per_row_fits(features, label_rows, opts)
            thetas, separable = fit_logistic_batch(features, label_rows, opts)
            np.testing.assert_array_equal(separable, raised)
            np.testing.assert_allclose(thetas, expected, rtol=0, atol=1e-9)

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
        predictor = lr.ConstantTrainer(0.3).fit(small_dataset)
        np.testing.assert_array_equal(predictor(small_dataset.features),
                                      np.full(small_dataset.n_points, 0.3))

    def test_logistic_trainer_deterministic(self, cluster_ss, plain_trainer):
        a = plain_trainer.fit(cluster_ss.base)(cluster_ss.base.features)
        b = plain_trainer.fit(cluster_ss.base)(cluster_ss.base.features)
        np.testing.assert_array_equal(a, b)


def all_assignments(n):
    """Every {-1,+1} label vector of n points, one per row (2**n rows)."""
    codes = np.arange(2 ** n)[:, None]
    return np.where((codes >> np.arange(n)) & 1, 1, -1)


class TestBatchedRidgeLadder:
    """LogisticTrainer.fit_many, whose separable rows go down FALLBACK_RIDGES
    one rung per batch, against one fit_with_fallback call per row."""

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
            predictor, _, used = fit_with_fallback(trainer, data.with_labels(labels), None)
            expected[k] = predictor(features)
            expected_fallbacks += used
        assert n_fallbacks == expected_fallbacks > 0
        np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, n_features, include_intercept", [(6, 1, False), (9, 2, True)])
    def test_matches_per_row_ladder_on_every_assignment(self, n, n_features, include_intercept):
        self.assert_matches_per_row_ladder(n, n_features, include_intercept)

    def test_rows_still_separable_move_to_the_next_rung(self, monkeypatch):
        """A zero rung leaves every separable row separable, so all of them
        must be refit on the rung after it."""
        monkeypatch.setattr("labelregret.glm.FALLBACK_RIDGES", (0.0, 1e-6))
        self.assert_matches_per_row_ladder(9, 2, True)

    def test_exhausted_ladder_raises(self, monkeypatch):
        monkeypatch.setattr("labelregret.glm.FALLBACK_RIDGES", ())
        features = np.array([[1.0], [2.0], [-1.0]])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        label_rows = np.array([[1, -1, -1], [1, 1, -1]])  # the second is separable
        with pytest.raises(errors.RefitFallbackExhausted):
            trainer.fit_many(lr.Dataset(features, label_rows[0]), label_rows, features, None)


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
        loaded, names = lr.load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert loaded.includes_intercept is True
        assert names == ["a", "b"]

    def test_name_count_checked(self):
        model = lr.LogisticModel(np.ones(2))
        with pytest.raises(errors.DimensionMismatch):
            model_to_dict(model, ["only-one-name", "x", "y"])
