import numpy as np
import pytest

import labelregret as lr
from labelregret import errors
from labelregret.regret import FALLBACK_RIDGES, save_regret_report


class TestPointDeviations:
    def test_identical_sequences(self):
        report = lr.point_deviations([0.2, 0.7], [0.2, 0.7])
        np.testing.assert_array_equal(report.e, [0.0, 0.0])
        np.testing.assert_array_equal(report.s, [0.0, 0.0])

    def test_arithmetic(self):
        report = lr.point_deviations([0.3], [0.5])
        np.testing.assert_allclose(report.e, [0.2])
        np.testing.assert_allclose(report.s, [0.04])

    def test_symmetry(self):
        gen = np.random.default_rng(0)
        a, b = gen.uniform(size=20), gen.uniform(size=20)
        ab, ba = lr.point_deviations(a, b), lr.point_deviations(b, a)
        np.testing.assert_array_equal(ab.e, ba.e)
        np.testing.assert_array_equal(ab.s, ba.s)

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            lr.point_deviations([0.1], [0.1, 0.2])


class TestEstimateRegret:
    def test_constant_trainer_has_zero_regret(self, small_dataset):
        report = lr.estimate_regret(small_dataset, lr.ConstantTrainer(0.5), 10, seed=1)
        np.testing.assert_array_equal(report.regret, np.zeros(8))
        assert report.estimator == "monte_carlo"
        # a constant that is not exactly representable leaves only mean-rounding dust
        report = lr.estimate_regret(small_dataset, lr.ConstantTrainer(0.4), 10, seed=1)
        np.testing.assert_allclose(report.regret, 0.0, atol=1e-30)

    def test_variance_bound(self, cluster_ss, flat_trainer):
        report = lr.estimate_regret(cluster_ss.base, flat_trainer, 60, seed=2)
        cap = 0.25 * 60 / 59
        assert np.all(report.regret >= 0.0)
        assert np.all(report.regret <= cap)
        assert np.all((report.mean_pred >= 0.0) & (report.mean_pred <= 1.0))

    def test_too_few_resamples(self, small_dataset, flat_trainer):
        with pytest.raises(errors.TooFewResamples):
            lr.estimate_regret(small_dataset, flat_trainer, 1, seed=0)

    def test_initial_fit_failure_is_wrapped(self):
        separable = lr.Dataset([[-1.0], [1.0]], [-1, 1])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        with pytest.raises(errors.InitialFitFailed):
            lr.estimate_regret(separable, trainer, 10, seed=0)

    def test_bit_identical_across_runs_and_prefixes(self, small_dataset, cluster_ss,
                                                    flat_trainer):
        """Resample k depends only on (seed, k): a rerun repeats every value and
        a shorter run is exactly the first rows of a longer one."""
        a = lr.estimate_regret(small_dataset, flat_trainer, 40, seed=9, keep_samples=True)
        b = lr.estimate_regret(small_dataset, flat_trainer, 40, seed=9, keep_samples=True)
        np.testing.assert_array_equal(a.regret, b.regret)
        np.testing.assert_array_equal(a.mean_pred, b.mean_pred)
        for data in (small_dataset, cluster_ss.base):
            short = lr.estimate_regret(data, flat_trainer, 40, seed=9, keep_samples=True)
            full = lr.estimate_regret(data, flat_trainer, 300, seed=9, keep_samples=True)
            np.testing.assert_array_equal(short.samples, full.samples[:40])

    def test_samples_match_per_resample_refits(self, cluster_ss, plain_trainer):
        """Row k-1 of the samples is the refit on draw_labels stream k, started
        from the base optimum, as one fit_logistic call per resample gives it."""
        data = cluster_ss.base
        report = lr.estimate_regret(data, plain_trainer, 30, seed=4, keep_samples=True)
        base = lr.fit_logistic(data, plain_trainer.opts)
        for k in range(1, 31):
            labels = lr.draw_labels(report.base_pred, lr.LabelDrawSeed(4, k))
            model = lr.fit_logistic(data.with_labels(labels), plain_trainer.opts,
                                    theta0=base.theta)
            np.testing.assert_allclose(report.samples[k - 1],
                                       lr.predict_proba(model, data.features),
                                       rtol=0, atol=1e-12)

    def test_matches_enumeration_oracle(self, small_dataset, flat_trainer):
        """Monte Carlo converges on the exact enumeration value, point by point."""
        mc = lr.estimate_regret(small_dataset, flat_trainer, 4000, seed=21,
                                keep_samples=True)
        exact = lr.exact_regret_enumeration(small_dataset.features, mc.base_pred,
                                            flat_trainer)
        se = lr.variance_standard_error(mc.samples)
        assert np.all(np.abs(mc.regret - exact.regret) <= 4.0 * se)

    def test_separability_fallback_counts_reported(self):
        """Unregularized refits on a tiny dataset hit separable resamples; the
        ridge ladder absorbs them and the count is surfaced."""
        data = lr.Dataset([[1.0], [1.0], [-1.0], [-1.0]], [1, -1, -1, 1])
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=False))
        report = lr.estimate_regret(data, trainer, 200, seed=3)
        assert report.n_fallback_refits > 0
        assert np.all(report.regret <= 0.25 * 200 / 199)

    def test_fallback_exhausted_without_ridge_support(self, small_dataset):
        class BrittleTrainer(lr.TrainerHandle):
            name = "brittle"

            def __init__(self):
                self.calls = 0

            def fit(self, data):
                self.calls += 1
                if self.calls == 1:
                    return lambda X: np.full(np.atleast_2d(X).shape[0], 0.5)
                raise errors.FitDiverged("refits always diverge")

        with pytest.raises(errors.RefitFallbackExhausted):
            lr.estimate_regret(small_dataset, BrittleTrainer(), 5, seed=0)


class TestTrueRegret:
    def test_degenerate_probabilities_give_zero(self):
        """When every true probability is exactly 0 or 1 the resampled labels
        never change, so every refit is identical."""
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        ground_truth = lr.LogisticModel(np.array([800.0]))
        ss = lr.semisynthetic_from_model(X, ground_truth, lr.LabelDrawSeed(5))
        assert set(ss.true_probs) == {0.0, 1.0}
        report = lr.true_regret(ss, lr.EchoTrainer(), 30, seed=1)
        np.testing.assert_array_equal(report.regret, np.zeros(4))
        assert report.estimator == "true_resample"

    def test_correlates_with_estimated_regret(self, flat_trainer):
        """On the two-cluster dataset the fitted-probability and
        true-probability resampling variances track each other per point."""
        correlations = []
        for t in range(20):
            ss = lr.two_cluster_semisynthetic(200, lr.LabelDrawSeed(31, t))
            est = lr.estimate_regret(ss.base, flat_trainer, 300, seed=1000 + t)
            true = lr.true_regret(ss, flat_trainer, 300, seed=5000 + t)
            correlations.append(np.corrcoef(est.regret, true.regret)[0, 1])
        assert np.median(correlations) >= 0.9


class TestBootstrapRegret:
    def test_identical_rows_give_zero(self):
        X = np.full((6, 1), 2.0)
        data = lr.Dataset(X, np.ones(6, dtype=int))
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.1, include_intercept=False))
        report = lr.bootstrap_regret(data, trainer, 25, seed=4)
        np.testing.assert_allclose(report.regret, 0.0, atol=1e-30)
        assert report.estimator == "bootstrap"

    def test_differs_from_label_resampling(self, cluster_ss, flat_trainer):
        """Row bootstrap keeps observed labels attached, so its variance
        profile cannot coincide with the label-resampling one."""
        boot = lr.bootstrap_regret(cluster_ss.base, flat_trainer, 80, seed=6)
        mc = lr.estimate_regret(cluster_ss.base, flat_trainer, 80, seed=6)
        assert np.max(np.abs(boot.regret - mc.regret)) > 0.0

    def test_deterministic(self, small_dataset, flat_trainer):
        a = lr.bootstrap_regret(small_dataset, flat_trainer, 30, seed=8, keep_samples=True)
        b = lr.bootstrap_regret(small_dataset, flat_trainer, 30, seed=8, keep_samples=True)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.regret, b.regret)


class TestEnumeration:
    def test_echo_trainer_gives_bernoulli_variance(self):
        gen = np.random.default_rng(12)
        for n in (3, 8, 12):
            probs = gen.uniform(size=n)
            X = gen.standard_normal((n, 2))
            report = lr.exact_regret_enumeration(X, probs, lr.EchoTrainer())
            np.testing.assert_allclose(report.regret, probs * (1 - probs),
                                       atol=1e-12)
            np.testing.assert_allclose(report.mean_pred, probs, atol=1e-12)
            assert report.n_resamples == 2 ** n

    def test_degenerate_probabilities(self):
        """With all probabilities 0 or 1 a single assignment carries weight 1."""
        X = np.arange(5, dtype=float).reshape(5, 1) + 1.0
        probs = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        report = lr.exact_regret_enumeration(X, probs, lr.EchoTrainer())
        np.testing.assert_allclose(report.regret, 0.0, atol=1e-12)

    def test_too_large(self):
        with pytest.raises(errors.TooLarge):
            lr.exact_regret_enumeration(np.ones((23, 1)), np.full(23, 0.5),
                                        lr.EchoTrainer())

    def test_prob_out_of_range(self):
        with pytest.raises(errors.ProbOutOfRange):
            lr.exact_regret_enumeration(np.ones((2, 1)), [0.5, 1.5],
                                        lr.EchoTrainer())

    def test_monte_carlo_converges_to_enumeration(self):
        """Large-K sampling agrees with the exact expectation on a 6-point,
        1-feature problem with a lightly ridged logistic trainer."""
        X = np.linspace(-1.5, 1.5, 6).reshape(6, 1)
        data = lr.Dataset(X, np.array([-1, 1, -1, 1, -1, 1]))
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.01,
                                                   include_intercept=False))
        mc = lr.estimate_regret(data, trainer, 100000, seed=17, keep_samples=True)
        exact = lr.exact_regret_enumeration(X, mc.base_pred, trainer)
        se = lr.variance_standard_error(mc.samples)
        assert np.all(np.abs(mc.regret - exact.regret) <= 3.0 * se)


class TestReportValidation:
    def test_estimator_tag_checked(self):
        with pytest.raises(ValueError):
            lr.RegretReport(np.array([0.1]), np.array([0.5]), np.array([0.5]),
                            10, "nonsense", 0, "t")

    def test_variance_cap_enforced(self):
        with pytest.raises(ValueError):
            lr.RegretReport(np.array([0.3]), np.array([0.5]), np.array([0.5]),
                            1000, "monte_carlo", 0, "t")

    @pytest.mark.parametrize("field", ["regret", "mean_pred", "base_pred"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, bad):
        """NaN passes every min/max range check, so finiteness is checked on its own."""
        arrays = {"regret": np.array([0.1, 0.1]), "mean_pred": np.array([0.5, 0.5]),
                  "base_pred": np.array([0.5, 0.5])}
        arrays[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            lr.RegretReport(arrays["regret"], arrays["mean_pred"], arrays["base_pred"],
                            10, "monte_carlo", 0, "t")

    def test_csv_round_trip_values(self, small_dataset, flat_trainer, tmp_path):
        report = lr.estimate_regret(small_dataset, flat_trainer, 20, seed=14)
        save_regret_report(report, tmp_path / "regret.csv", tmp_path / "regret.json")
        lines = (tmp_path / "regret.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "point_index,base_pred,mean_pred,regret"
        parsed = np.array([[float(v) for v in line.split(",")[1:]]
                           for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 2], report.regret)


class TestFallbackLadder:
    def test_ladder_is_escalating_and_bounded(self):
        assert FALLBACK_RIDGES[0] == pytest.approx(1e-6)
        assert FALLBACK_RIDGES[-1] == pytest.approx(1e-2)
        assert len(FALLBACK_RIDGES) == 5
        assert all(a < b for a, b in zip(FALLBACK_RIDGES, FALLBACK_RIDGES[1:]))
