import itertools

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors
from labelregret._io import write_table
from labelregret.regret import FALLBACK_RIDGES, _sampling_report, regret_report_table

import glm_reference as reference
from conftest import ConstantTrainer


class TestSampleMoments:
    """A report's mean_pred and regret have the bits of samples.mean(axis=0) and
    np.maximum(samples.var(axis=0, ddof=1), 0); kept samples are unchanged."""

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("m", [1, 200])
    @pytest.mark.parametrize("K", [2, 3, 300, 1000])
    def test_bits_of_numpy(self, K, m, keep):
        gen = np.random.default_rng(K + m)
        # predictions spread over [0, 1], or packed near 0 or near 1
        samples = gen.uniform(size=(K, m)) ** gen.integers(1, 30, size=m)
        samples[:, m // 2:] = 1.0 - samples[:, m // 2:]
        self.check(samples, keep)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("m", [1, 200])
    def test_constant_column(self, m, keep):
        samples = np.random.default_rng(m).uniform(size=(300, m))
        samples[:, 0] = 0.1
        self.check(samples, keep)

    @staticmethod
    def check(samples, keep):
        original = samples.copy()
        mean, variance = samples.mean(axis=0), np.maximum(samples.var(axis=0, ddof=1), 0.0)
        report = _sampling_report(samples, np.zeros(samples.shape[1]), "monte_carlo", 0,
                                  "test", 0, keep)
        assert report.mean_pred.tobytes() == mean.tobytes()
        assert report.regret.tobytes() == variance.tobytes()
        if keep:
            assert samples.tobytes() == original.tobytes()
            assert report.samples.tobytes() == original.tobytes()
        else:
            assert report.samples is None


class TestKeptSamples:
    """A report holds a read-only copy of its samples, whether an estimator
    keeps them or a caller passes them to RegretReport."""

    def test_estimators_hand_over_their_samples(self):
        class Recording(lr.EchoTrainer):
            def fit_many(self, data, label_rows, eval_features, start=None):
                self.returned, n_fallbacks = super().fit_many(data, label_rows,
                                                              eval_features, start)
                return self.returned, n_fallbacks

        trainer = Recording()
        ss = lr.semisynthetic_from_model(*lr.two_cluster_population(20), lr.LabelDrawSeed(3))
        for estimate in (lambda: lr.estimate_regret(ss.base, trainer, 30, 1,
                                                    keep_samples=True),
                         lambda: lr.true_regret(ss, trainer, 30, 1, keep_samples=True)):
            report = estimate()
            np.testing.assert_array_equal(report.samples, trainer.returned)
            assert not report.samples.flags.writeable
            assert not np.shares_memory(report.samples, trainer.returned)

    def test_a_callers_samples_are_copied(self):
        samples = np.random.default_rng(3).uniform(size=(5, 2))
        report = lr.RegretReport(regret=samples.var(axis=0, ddof=1),
                                 mean_pred=samples.mean(axis=0), base_pred=[0.5, 0.5],
                                 n_resamples=5, estimator="monte_carlo", seed=0,
                                 trainer_name="test", samples=samples)
        assert not np.shares_memory(report.samples, samples)
        assert samples.flags.writeable and not report.samples.flags.writeable
        np.testing.assert_array_equal(report.samples, samples)


class TestEstimateRegret:
    def test_constant_trainer_has_zero_regret(self, small_dataset):
        report = lr.estimate_regret(small_dataset, ConstantTrainer(0.5), 10, seed=1)
        np.testing.assert_array_equal(report.regret, np.zeros(8))
        assert report.estimator == "monte_carlo"
        # a constant that is not exactly representable leaves only mean-rounding dust
        report = lr.estimate_regret(small_dataset, ConstantTrainer(0.4), 10, seed=1)
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
        from the base optimum, as one reference fit per resample gives it."""
        data = cluster_ss.base
        report = lr.estimate_regret(data, plain_trainer, 30, seed=4, keep_samples=True)
        base = reference.fit_logistic(data, plain_trainer.opts)
        for k in range(1, 31):
            labels = lr.draw_labels(report.base_pred, lr.LabelDrawSeed(4, k))
            model = reference.fit_logistic(data.with_labels(labels), plain_trainer.opts,
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

    def test_refit_divergence_propagates_without_ridge_support(self, small_dataset):
        """Only LogisticTrainer has a ridge ladder: another trainer's
        FitDiverged reaches the caller as it is."""
        class BrittleTrainer(lr.TrainerHandle):
            name = "brittle"

            def __init__(self):
                self.calls = 0

            def fit(self, data, start=None):
                self.calls += 1
                if self.calls == 1:
                    return lambda X: np.full(np.atleast_2d(X).shape[0], 0.5)
                raise errors.FitDiverged("refits always diverge")

        with pytest.raises(errors.FitDiverged):
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
            ss = lr.semisynthetic_from_model(*lr.two_cluster_population(200),
                                             lr.LabelDrawSeed(31, t))
            est = lr.estimate_regret(ss.base, flat_trainer, 300, seed=1000 + t)
            true = lr.true_regret(ss, flat_trainer, 300, seed=5000 + t)
            correlations.append(np.corrcoef(est.regret, true.regret)[0, 1])
        assert np.median(correlations) >= 0.9


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


def unpaired_enumeration(X, probs, trainer):
    """The enumeration refitting every one of the 2**n assignments through
    fit_many, in blocks of glm.BATCH_ENTRIES // n (one engine block), with
    the same weights and skip rule; returns (regret, mean_pred, fallback
    count)."""
    n = len(probs)
    weights = np.ones(1)
    for pi in probs:
        weights = np.concatenate([weights * (1.0 - pi), weights * pi])
    tiny = weights < lr.regret.SKIP_WEIGHT
    skip = tiny if weights[tiny].sum() < lr.regret.SKIP_MASS else np.zeros_like(tiny)
    kept = np.flatnonzero(~skip)
    template = lr.Dataset(X, -np.ones(n, dtype=np.int64))
    m1, m2, n_fallbacks = np.zeros(n), np.zeros(n), 0
    block = lr.glm.BATCH_ENTRIES // n
    for start in range(0, kept.size, block):
        codes = kept[start:start + block]
        labels = np.where((codes[:, None] >> np.arange(n)) & 1, 1, -1)
        values, fallbacks = trainer.fit_many(template, labels, X, None)
        n_fallbacks += fallbacks
        m1 += weights[codes] @ values
        m2 += weights[codes] @ values ** 2
    return np.maximum(m2 - m1 ** 2, 0.0), np.clip(m1, 0.0, 1.0), n_fallbacks


class RowRecordingTrainer(lr.LogisticTrainer):
    """A LogisticTrainer that keeps every label row passed to fit_many."""

    def __init__(self, opts):
        super().__init__(opts)
        self.rows = []

    def fit_many(self, data, label_rows, eval_features, start=None):
        self.rows.append(np.array(label_rows))
        return super().fit_many(data, label_rows, eval_features, start)


def all_assignments(n):
    """Every {-1, +1} label row of n points, bit i of the row index giving label i."""
    return np.where((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1, 1, -1)


class TestPairedEnumeration:
    @pytest.mark.parametrize("n", [6, 9, 13])
    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    @pytest.mark.parametrize("include_intercept", [False, True])
    def test_equals_the_unpaired_loop(self, n, ridge, include_intercept):
        """Refitting one assignment of each complementary pair gives the
        unpaired loop's regret, mean prediction and fallback count; n = 13
        has 8,192 assignments, two blocks of the unpaired loop."""
        gen = np.random.default_rng(100 + n)
        X = gen.standard_normal((n, 2))
        probs = gen.uniform(0.1, 0.9, size=n)
        opts = lr.FitOptions(ridge=ridge, include_intercept=include_intercept)
        trainer = RowRecordingTrainer(opts)
        report = lr.exact_regret_enumeration(X, probs, trainer)
        regret, mean_pred, n_fallbacks = unpaired_enumeration(X, probs,
                                                              lr.LogisticTrainer(opts))
        np.testing.assert_allclose(report.regret, regret, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.mean_pred, mean_pred, rtol=0, atol=1e-12)
        assert report.n_fallback_refits == n_fallbacks
        assert (n_fallbacks > 0) == (ridge == 0.0)
        assert report.n_resamples == 2 ** n
        rows = np.concatenate(trainer.rows)
        assert rows.shape == (2 ** (n - 1), n)
        assert np.all(rows[:, -1] == -1)
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]

    def test_pairs_are_kept_or_skipped_together(self):
        """Near-certain labels make most assignments negligible: a pair is
        refit when either of its assignments is kept, and the skipped mass
        stays below the rule's 1e-12."""
        probs = np.array([1e-6, 1 - 1e-6, 2e-6, 0.3, 1 - 3e-6, 1e-6, 0.6, 1e-6, 2e-6, 1e-6])
        X = np.random.default_rng(3).standard_normal((probs.size, 2))
        opts = lr.FitOptions(ridge=0.1)
        trainer = RowRecordingTrainer(opts)
        report = lr.exact_regret_enumeration(X, probs, trainer)
        regret, mean_pred, _ = unpaired_enumeration(X, probs, lr.LogisticTrainer(opts))
        np.testing.assert_allclose(report.regret, regret, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.mean_pred, mean_pred, rtol=0, atol=1e-12)
        n_pairs = sum(len(rows) for rows in trainer.rows)
        assert 0 < n_pairs < 2 ** (probs.size - 1)
        weights = np.prod(np.where(all_assignments(probs.size) > 0, probs, 1 - probs), axis=1)
        tiny = weights < lr.regret.SKIP_WEIGHT
        half = weights.size // 2
        assert n_pairs == np.count_nonzero(~(tiny[:half] & tiny[::-1][:half]))

    def test_echo_trainer_mirrors_exactly(self):
        gen = np.random.default_rng(4)
        rows = all_assignments(7)
        data = lr.Dataset(gen.standard_normal((7, 2)), rows[0])
        trainer = lr.EchoTrainer()
        assert trainer.mirrors_label_flips
        values, _ = trainer.fit_many(data, rows, data.features)
        flipped, _ = trainer.fit_many(data, -rows, data.features)
        np.testing.assert_array_equal(flipped, 1.0 - values)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    @pytest.mark.parametrize("include_intercept", [False, True])
    def test_logistic_trainer_mirrors_label_flips(self, ridge, include_intercept):
        """A cold fit_many on -rows is 1 minus the fit on rows, separable rows
        (which take the ridge ladder) included, with the same fallback count."""
        X = np.random.default_rng(5).standard_normal((8, 2))
        rows = all_assignments(8)
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=ridge,
                                                   include_intercept=include_intercept))
        assert trainer.mirrors_label_flips
        data = lr.Dataset(X, rows[0])
        values, fallbacks = trainer.fit_many(data, rows, X)
        flipped, flipped_fallbacks = trainer.fit_many(data, -rows, X)
        np.testing.assert_allclose(flipped, 1.0 - values, rtol=0, atol=1e-12)
        assert flipped_fallbacks == fallbacks
        assert (fallbacks > 0) == (ridge == 0.0)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_constant_trainer_refits_every_assignment(self, n):
        """A trainer that does not mirror has its flipped rows refit: the
        constant prediction comes back as mean_pred, with regret 0. Only the
        summation's rounding, which the unpaired loop also has at
        n = 9, keeps these from being exact."""
        calls = []

        class Recording(ConstantTrainer):
            def fit(self, data, start=None):
                calls.append(tuple(data.labels))
                return super().fit(data, start)

        trainer = Recording(0.3)
        assert not trainer.mirrors_label_flips
        report = lr.exact_regret_enumeration(np.ones((n, 1)), np.full(n, 0.5), trainer)
        np.testing.assert_allclose(report.regret, np.zeros(n), rtol=0, atol=1e-14)
        np.testing.assert_allclose(report.mean_pred, np.full(n, 0.3), rtol=0, atol=1e-14)
        assert sorted(calls) == sorted(map(tuple, all_assignments(n)))

    def test_one_point(self):
        report = lr.exact_regret_enumeration([[1.0]], [0.3], lr.EchoTrainer())
        assert report.n_resamples == 2
        np.testing.assert_allclose(report.regret, [0.21], rtol=0, atol=1e-15)
        np.testing.assert_allclose(report.mean_pred, [0.3], rtol=0, atol=1e-15)

    def test_no_points(self):
        with pytest.raises(errors.EmptyDataset):
            lr.exact_regret_enumeration(np.ones((0, 1)), [], lr.EchoTrainer())


def grouped_enumeration(X, probs, trainer):
    """Exact regret by pattern counts: (regret, mean_pred, refit count).

    A fit sees its labels only through X'y, so every label vector with the
    same count of +1 labels on each distinct feature row (pattern) has one
    fit, up to rounding. The count of pattern g is Poisson-binomial in its
    points' probabilities. Each count vector is refit once, cold, through one
    fit_many call, on a representative row that labels +1 the first k_g points
    of pattern g, and weighs the product of its patterns' count probabilities.
    """
    X = np.asarray(X, dtype=float)
    _, pattern = np.unique(X, axis=0, return_inverse=True)
    members = [np.flatnonzero(pattern == g) for g in range(pattern.max() + 1)]
    pmfs = []
    for points in members:
        pmf = np.ones(1)
        for p in probs[points]:
            pmf = np.convolve(pmf, [1.0 - p, p])
        pmfs.append(pmf)
    counts = np.array(list(itertools.product(*(range(pmf.size) for pmf in pmfs))))
    rows = -np.ones((len(counts), X.shape[0]), dtype=np.int64)
    for g, points in enumerate(members):
        rows[:, points] = np.where(np.arange(points.size) < counts[:, g, None], 1, -1)
    weights = np.prod([pmf[counts[:, g]] for g, pmf in enumerate(pmfs)], axis=0)
    values, _ = trainer.fit_many(lr.Dataset(X, rows[0]), rows, X, None)
    m1, m2 = weights @ values, weights @ values ** 2
    return np.maximum(m2 - m1 ** 2, 0.0), np.clip(m1, 0.0, 1.0), len(rows)


class TestGroupedEnumeration:
    @pytest.mark.parametrize("n, refits", [(12, 5 * 5 * 5), (14, 5 * 6 * 6)])
    @pytest.mark.parametrize("ridge", [0.1, 0.0])
    def test_pattern_counts_give_the_enumerated_regret(self, n, refits, ridge):
        """Three patterns x in {-1, 0.5, 2} with an intercept, interleaved, and
        probabilities unequal within each pattern: one refit per count vector
        against 2**(n-1) pairs. At ridge 0 the count vectors that separate the
        patterns take the fallback rung on both sides. Over 240 cases, with
        probabilities from default_rng(100 s + n) for s = 0-59 at each n and
        ridge (this test is s = 1), the largest difference was 2.1e-15 in
        regret and 1.7e-15 in mean_pred; the bound is about five times that."""
        gen = np.random.default_rng(100 + n)
        X = np.array([-1.0, 0.5, 2.0])[np.arange(n) % 3][:, None]
        probs = gen.uniform(0.2, 0.8, n)
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=ridge))
        exact = lr.exact_regret_enumeration(X, probs, trainer)
        regret, mean_pred, n_refits = grouped_enumeration(X, probs, trainer)
        assert n_refits == refits
        assert (exact.n_fallback_refits > 0) == (ridge == 0.0)
        np.testing.assert_allclose(regret, exact.regret, rtol=0, atol=1e-14)
        np.testing.assert_allclose(mean_pred, exact.mean_pred, rtol=0, atol=1e-14)


class TestGroupedOracleGates:
    """The closed form and Monte Carlo against exact regret past the reach of
    exact_regret_enumeration. The design has three patterns x in {-1, 0.5, 2},
    interleaved, with an intercept, at ridge 0. Labels are drawn from
    theta = (0.8, -0.3) at LabelDrawSeed(s) for s = 0-2, and the exact regret
    resamples from the base fit's probabilities, as estimate_regret does."""

    TRAINER = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=True))
    SEEDS = range(3)
    # Over seeds 0-239, in 80 blocks of 3, the largest |exact / q - 1| of a
    # block at n = 60 had mean 0.086 and SD 0.009 (largest 0.100), and the
    # largest ratio of that error to the one at n = 24 had mean 0.494 and SD
    # 0.088 (largest 0.753). Each bound is the mean plus three SDs.
    Q_ERROR_AT_60, Q_ERROR_RATIO = 0.115, 0.76

    @pytest.fixture(scope="class")
    def cases(self):
        """(n, seed) -> (observed data, base fit, exact regret)."""
        truth = lr.LogisticModel([0.8, -0.3], includes_intercept=True)
        cases = {}
        for n, seed in itertools.product((24, 60), self.SEEDS):
            X = np.array([-1.0, 0.5, 2.0])[np.arange(n) % 3][:, None]
            data = lr.semisynthetic_from_model(X, truth, lr.LabelDrawSeed(seed)).base
            model = self.TRAINER.fit(data)
            regret, _, n_refits = grouped_enumeration(X, model(X), self.TRAINER)
            assert n_refits == (n // 3 + 1) ** 3
            cases[n, seed] = data, model, regret
        return cases

    def test_q_approaches_exact_regret_as_n_grows(self, cases):
        """At n = 24 (729 refits) the largest relative error over the patterns
        was 0.19, 0.13 and 0.23, at n = 60 (9,261 refits) 0.087, 0.077 and 0.069."""
        for seed in self.SEEDS:
            at_24, at_60 = (np.max(np.abs(exact / lr.q_values(model, data.features) - 1.0))
                            for data, model, exact in (cases[24, seed], cases[60, seed]))
            assert at_60 <= self.Q_ERROR_AT_60
            assert at_60 <= self.Q_ERROR_RATIO * at_24

    def test_monte_carlo_regret_is_within_three_standard_errors(self, cases):
        """K = 400 at seed 11 and n = 60: the largest |z| over the points was
        1.48, 1.82 and 1.56. Over seeds 0-239 it passed 3 at 3 seeds, the
        largest 3.06, in 3 of the 80 blocks of 3."""
        for seed in self.SEEDS:
            data, model, exact = cases[60, seed]
            report = lr.estimate_regret(data, self.TRAINER, 400, 11, keep_samples=True,
                                        base=model)
            se = lr.variance_standard_error(report.samples)
            assert np.all(np.abs(report.regret - exact) <= 3.0 * se)


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
        write_table(tmp_path / "regret.csv", *regret_report_table(report))
        lines = (tmp_path / "regret.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "point_index,base_pred,mean_pred,regret"
        parsed = np.array([[float(v) for v in line.split(",")[1:]]
                           for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 2], report.regret)


class TestFallbackLadder:
    def test_ladder_is_one_rung_of_1e_6(self):
        """The one rung that a fit can reach (see
        test_glm.py::test_one_rung_fits_every_separable_row_of_a_full_rank_design)."""
        assert FALLBACK_RIDGES == (1e-6,)
