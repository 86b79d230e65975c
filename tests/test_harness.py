import json

import numpy as np
import pytest

import labelregret as lr
from labelregret import cli, errors, glm, harness, rng
from labelregret.regret import _initial_fit
from labelregret.config import ExperimentConfig


def test_trials_reject_custom_grid_before_any_refit(monkeypatch):
    """A grid whose length differs from the aggregation positions fails up front."""
    def no_refit(*args, **kwargs):
        raise AssertionError("a refit ran before the cutoff grid was rejected")

    for owner in (glm, harness):
        monkeypatch.setattr(owner, "fit_logistic", no_refit)
    monkeypatch.setattr(glm, "fit_logistic_batch", no_refit)
    cfg = ExperimentConfig(n_trials=3, n_points=20, k_resamples=10,
                           cutoff_grid=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match=f"{harness.DEFAULT_GRID_POINTS} cutoffs"):
        harness.run_trials(cfg, "selective")


@pytest.fixture
def ss40():
    return lr.two_cluster_semisynthetic(40, lr.LabelDrawSeed(7))


@pytest.fixture
def trainer():
    return lr.LogisticTrainer(lr.FitOptions(ridge=0.01, include_intercept=False))


def _fit(ss):
    return lr.fit_logistic(ss.base, lr.FitOptions(ridge=0.01, include_intercept=False))


def _near_ties(values, seed):
    """values moved by up to 3 ulps each: equal in exact arithmetic, not in floats."""
    values = np.asarray(values, dtype=float)
    steps = np.random.default_rng(seed).integers(-3, 4, values.size)
    return values + steps * np.spacing(values)


class TestSelectivePredictionCurve:
    @pytest.mark.parametrize("dedupe", [True, False])
    def test_coverage_non_decreasing_and_last_row_covers_all(self, cluster_ss, dedupe):
        model = _fit(cluster_ss)
        n = cluster_ss.base.n_points
        for seed in range(5):
            scores = np.random.default_rng(seed).exponential(size=n)
            curve = harness.selective_prediction_curve(cluster_ss, model, scores,
                                                       dedupe=dedupe)
            assert np.all(np.diff(curve.coverages) >= 0)
            assert np.all(np.diff(curve.n_kept) >= 0)
            assert curve.coverages[-1] == 1.0 and curve.n_kept[-1] == n
            all_kl = lr.bernoulli_kl(cluster_ss.true_probs,
                                     lr.predict_proba(model, cluster_ss.base.features))
            assert curve.mean_kls[-1] == pytest.approx(all_kl.mean(), rel=1e-12)

    def test_dedupe_keeps_the_largest_cutoff_of_each_kept_set(self, cluster_ss):
        """With dedupe, each run of cutoffs that keep the same points leaves
        one row: the row of its largest cutoff, as dedupe=False computes it."""
        model = _fit(cluster_ss)
        scores = np.random.default_rng(0).integers(1, 6, cluster_ss.base.n_points) / 5.0
        grid = np.linspace(0.0, 1.0, 41)
        every = harness.selective_prediction_curve(cluster_ss, model, scores, grid,
                                                   dedupe=False)
        deduped = harness.selective_prediction_curve(cluster_ss, model, scores, grid)
        last = np.flatnonzero(np.append(np.diff(every.n_kept) != 0, True))
        assert 5 == last.size < every.n_kept.size
        for name in ("cutoffs", "coverages", "mean_kls", "n_kept"):
            np.testing.assert_array_equal(getattr(deduped, name), getattr(every, name)[last])

    def test_near_tied_scores_are_kept_together(self, cluster_ss):
        """Scores equal in exact arithmetic fall on the same side of every cutoff."""
        model = _fit(cluster_ss)
        exact = np.repeat(np.arange(1, 11) / 10.0, 20)  # ten groups of 20 tied points
        noisy = _near_ties(exact, 0)
        assert len(np.unique(noisy)) > 10
        grid = np.arange(1, 11) / 10.0
        for g in (grid, None):
            a = harness.selective_prediction_curve(cluster_ss, model, exact, g, dedupe=False)
            b = harness.selective_prediction_curve(cluster_ss, model, noisy, g, dedupe=False)
            np.testing.assert_array_equal(a.n_kept, b.n_kept)
            np.testing.assert_array_equal(a.mean_kls, b.mean_kls)
            assert np.all(a.n_kept % 20 == 0)

    def test_grid_ending_at_max_score_is_accepted(self, cluster_ss):
        model = _fit(cluster_ss)
        scores = np.random.default_rng(3).random(cluster_ss.base.n_points)
        grid = [scores.min(), scores.max()]
        curve = harness.selective_prediction_curve(cluster_ss, model, scores, grid)
        assert curve.coverages[-1] == 1.0
        with pytest.raises(ValueError, match="max"):
            harness.selective_prediction_curve(cluster_ss, model, scores,
                                               [0.0, 0.5 * scores.max()])


class TestActiveLearningRun:
    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    def test_trace_has_one_entry_per_batch_plus_start(self, ss40, trainer, strategy):
        trace = harness.active_learning_run(ss40, trainer, 10, 3, strategy=strategy,
                                            batch=2, n_batches=3)
        assert trace.n_labeled.size == trace.mean_kl.size == 4
        np.testing.assert_array_equal(np.diff(trace.n_labeled), [2, 2, 2])
        assert trace.n_labeled[0] == 20

    def test_runs_until_the_pool_is_empty(self, ss40, trainer):
        trace = harness.active_learning_run(ss40, trainer, 10, 3, strategy="uniform",
                                            batch=6)
        assert trace.n_labeled.tolist() == [20, 26, 32, 38, 40]

    def test_zero_batches_records_only_the_start(self, ss40, trainer):
        trace = harness.active_learning_run(ss40, trainer, 10, 3, strategy="uniform",
                                            n_batches=0)
        assert trace.n_labeled.tolist() == [20]

    def test_empty_pool_raises(self, trainer):
        ss = lr.semisynthetic_from_model(np.array([[1.0, 0.5]]),
                                         lr.LogisticModel(np.array([0.3, 0.2])),
                                         lr.LabelDrawSeed(1))
        with pytest.raises(errors.EmptyPool):
            harness.active_learning_run(ss, trainer, 10, 3, strategy="uniform")

    @pytest.mark.parametrize("near", [False, True])
    def test_tied_scores_go_to_the_lower_index(self, ss40, trainer, monkeypatch, near):
        pools = []

        def tied_scores(ss, labeled, pool, *args):
            pools.append(pool.copy())
            scores = np.full(pool.size, 0.25)
            return _near_ties(scores, len(pools)) if near else scores

        monkeypatch.setattr(harness, "_pool_scores", tied_scores)
        harness.active_learning_run(ss40, trainer, 10, 3, strategy="estimated_regret",
                                    batch=3, n_batches=4)
        assert len(pools) == 4
        for before, after in zip(pools, pools[1:]):
            np.testing.assert_array_equal(np.setdiff1d(before, after), before[:3])

    def test_refits_start_from_the_current_fit(self, ss40):
        """Each labeled refit starts from the predictor the previous fit
        returned, and so does every pool-score resample of that step."""
        class StartRecorder(lr.LogisticTrainer):
            def __init__(self):
                super().__init__(lr.FitOptions(ridge=0.01, include_intercept=False))
                self.fits, self.score_starts = [], []

            def fit(self, data, start=None):
                model = super().fit(data, start)
                self.fits.append((start, model))
                return model

            def fit_many(self, data, label_rows, eval_features, start=None):
                self.score_starts.append(start)
                return super().fit_many(data, label_rows, eval_features, start)

        trainer = StartRecorder()
        harness.active_learning_run(ss40, trainer, 10, 3, strategy="estimated_regret",
                                    batch=4, n_batches=3)
        starts, models = zip(*trainer.fits)
        assert len(models) == 4 and starts[0] is None
        assert all(start is model for start, model in zip(starts[1:], models))
        assert all(start is model for start, model in zip(trainer.score_starts, models))

    def test_unregularized_runs_need_no_ridge_ladder(self):
        """Labeled refits have no ridge fallback: the labeled set only grows
        from one the initial fit fitted cleanly, and a superset of
        non-separable, full-rank rows is neither separable nor rank
        deficient. So on small populations at ridge 0 a run either fails its
        initial fit or finishes, with the pool emptied."""
        outcomes = {"finished": 0, "initial fit failed": 0}
        for n in (8, 11, 14):
            for d in (1, 2):
                for intercept in (False, True):
                    trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=intercept))
                    for seed in range(8):
                        ss = lr.gaussian_semisynthetic(n, d, [1.0, -1.0][:d], seed)
                        try:
                            trace = harness.active_learning_run(
                                ss, trainer, 6, seed, strategy="estimated_regret", batch=2)
                        except errors.InitialFitFailed:
                            outcomes["initial fit failed"] += 1
                            continue
                        assert trace.n_labeled[-1] == n
                        outcomes["finished"] += 1
        assert min(outcomes.values()) > 0

    @pytest.mark.parametrize("seed", [9, 12, 18])
    def test_singular_newton_solve_ends_as_a_package_error(self, seed):
        """In these runs a pool-score resample warm-started far out has a
        Hessian that np.linalg.solve finds singular after it passed the
        Cholesky test. The run must not end in a raw LinAlgError."""
        ss = lr.two_cluster_semisynthetic(16, lr.LabelDrawSeed(seed))
        trainer = lr.LogisticTrainer(lr.FitOptions(include_intercept=True))
        try:
            harness.active_learning_run(ss, trainer, 20, seed, strategy="estimated_regret",
                                        batch=1)
        except errors.LabelRegretError:
            pass

    def test_higher_score_goes_first(self, ss40, trainer, monkeypatch):
        pools = []

        def scores_by_index(ss, labeled, pool, *args):
            pools.append(pool.copy())
            return pool.astype(float)  # the highest index scores highest

        monkeypatch.setattr(harness, "_pool_scores", scores_by_index)
        harness.active_learning_run(ss40, trainer, 10, 3, strategy="true_regret",
                                    batch=2, n_batches=2)
        np.testing.assert_array_equal(np.setdiff1d(pools[0], pools[1]), pools[0][-2:])


class TestRunTrials:
    CONFIGS = {
        "theory_vs_actual": dict(n_trials=2, n_points=20, k_resamples=10),
        "selective": dict(n_trials=2, n_points=40, k_resamples=10),
        "active": dict(n_trials=2, n_points=20, k_resamples=10, batch_size=2,
                       n_batches=2),
    }
    SERIES = {
        "theory_vs_actual": {"estimated_regret", "q"},
        "selective": {"estimated_kl", "true_kl", "oracle_kl", "estimated_coverage"},
        "active": set(harness.STRATEGIES),
    }

    @pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
    def test_same_seed_gives_byte_identical_output(self, tmp_path, experiment):
        cfg = ExperimentConfig(master_seed=5, ridge=0.01, **self.CONFIGS[experiment])
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            harness.save_trials_result(harness.run_trials(cfg, experiment), out)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        names = {f"trials_{s}.csv" for s in self.SERIES[experiment]} | {"summary.json"}
        assert set(outputs[0]) == names
        summary = json.loads(outputs[0]["summary.json"])
        assert set(summary) == {"experiment", "positions", "extras", "summaries", "config"}
        assert set(summary["summaries"]) == self.SERIES[experiment]
        assert summary["experiment"] == experiment


class TestBaseFitBlock:
    """run_trials makes the reference's and every trial's base fit in one
    trainer.fit_each call; each must be the fit that the trial would make
    alone, and a fit that fails must fail where its turn comes."""

    @staticmethod
    def _record(monkeypatch, calls):
        """Record (name, first argument, seed, base) of each regret estimate."""
        for name in ("estimate_regret", "true_regret"):
            def recording(*args, original=getattr(harness, name), name=name, **kwargs):
                calls.append((name, args[0], args[3], kwargs["base"]))
                return original(*args, **kwargs)

            monkeypatch.setattr(harness, name, recording)

    @pytest.mark.parametrize("experiment", ["theory_vs_actual", "selective"])
    def test_base_models_are_the_single_fits(self, experiment, monkeypatch):
        cfg = ExperimentConfig(master_seed=5, n_trials=3, n_points=40, k_resamples=10)
        calls, single_fits = [], []
        self._record(monkeypatch, calls)
        fit_logistic = glm.fit_logistic
        monkeypatch.setattr(glm, "fit_logistic",
                            lambda *a, **kw: single_fits.append(a) or fit_logistic(*a, **kw))
        harness.run_trials(cfg, experiment)
        monkeypatch.undo()
        assert single_fits == []
        assert [name for name, *_ in calls] == ["true_regret"] + ["estimate_regret"] * 3
        trainer = lr.LogisticTrainer(cfg.fit_options())
        for name, data, _, base in calls:
            expected = _initial_fit(trainer, data.base if name == "true_regret" else data)
            assert base.theta.tobytes() == expected.theta.tobytes()

    @pytest.mark.parametrize("experiment", ["theory_vs_actual", "selective"])
    @pytest.mark.parametrize("first_seed, failing", [(16, 1), (2, None)])
    def test_a_failing_base_fit_raises_at_its_turn(self, experiment, first_seed, failing,
                                                   monkeypatch):
        """Eight Gaussian points at ridge 0, at the first master seed from
        first_seed on whose only separable observed labels are those of trial 1,
        or of the reference draw (failing None). run_trials raises that fit's
        InitialFitFailed after the estimates of the trials before it, and
        before any other."""
        expected_failures = [0 if failing is None else failing + 1]
        for seed in range(first_seed, first_seed + 200):
            cfg = ExperimentConfig(master_seed=seed, dataset="gaussian", n_trials=3,
                                   n_points=8, k_resamples=10)
            population = harness.base_population(cfg)
            ref_master = rng.derive_master(seed, rng.REFERENCE, 0)
            draws = [harness.population_draw(cfg.replace(master_seed=ref_master), 0,
                                             population),
                     *(harness.population_draw(cfg, t, population) for t in range(3))]
            trainer = lr.LogisticTrainer(cfg.fit_options())
            failures = []
            for k, ss in enumerate(draws):
                try:
                    _initial_fit(trainer, ss.base)
                except errors.InitialFitFailed as exc:
                    failures.append((k, str(exc)))
            if [k for k, _ in failures] == expected_failures:
                break
        assert [k for k, _ in failures] == expected_failures
        calls = []
        self._record(monkeypatch, calls)
        with pytest.raises(errors.InitialFitFailed) as raised:
            harness.run_trials(cfg, experiment)
        assert str(raised.value) == failures[0][1]
        trial_seeds = [rng.derive_master(seed, rng.TRIAL, t) for t in range(failing or 0)]
        expected = [] if failing is None else [rng.derive_master(ref_master, rng.TRIAL, 0),
                                               *trial_seeds]
        assert [seed for _, _, seed, _ in calls] == expected


class TestSeedContract:
    """Every experiment output equals the same public calls at its documented
    seeds: trial t draws its labels from stream t of the master seed and
    resamples at derive_master(seed, TRIAL, t); the true regret shared by all
    trials is the one at derive_master(seed, REFERENCE, 0); the single-shot
    commands use stream 0 and the master seed itself."""

    SEED = 5
    ACTIVE = dict(initial_fraction=0.5, batch_size=2, n_batches=2)

    @staticmethod
    def _draw(cfg, master, stream):
        features, ground_truth, gt_ridge = harness.base_population(cfg)
        return lr.semisynthetic_from_model(features, ground_truth,
                                           lr.LabelDrawSeed(master, stream),
                                           gt_ridge=gt_ridge)

    def _trials(self, cfg):
        """(ss, trial seed) of each trial of cfg."""
        return [(self._draw(cfg, cfg.master_seed, t),
                 rng.derive_master(cfg.master_seed, rng.TRIAL, t))
                for t in range(cfg.n_trials)]

    def _reference(self, cfg, trainer):
        master = rng.derive_master(cfg.master_seed, rng.REFERENCE, 0)
        return lr.true_regret(self._draw(cfg, master, 0), trainer, cfg.k_resamples,
                              rng.derive_master(master, rng.TRIAL, 0)).regret

    @staticmethod
    def _curves(ss, model, estimated, true, **kwargs):
        scores = {"estimated_regret": estimated, "true_regret": true,
                  "oracle_error": harness.oracle_error_scores(ss, model)}
        return {name: harness.selective_prediction_curve(ss, model, s, **kwargs)
                for name, s in scores.items()}

    @pytest.mark.parametrize("dataset", ["two_cluster", "gaussian"])
    def test_theory_vs_actual_trials(self, dataset):
        cfg = ExperimentConfig(master_seed=self.SEED, dataset=dataset, n_trials=2,
                               n_points=20, k_resamples=10, ridge=0.01)
        trainer = lr.LogisticTrainer(cfg.fit_options())
        result = harness.run_trials(cfg, "theory_vs_actual")
        np.testing.assert_array_equal(result.extras["true_regret"],
                                      self._reference(cfg, trainer))
        for t, (ss, seed) in enumerate(self._trials(cfg)):
            report = lr.estimate_regret(ss.base, trainer, cfg.k_resamples, seed)
            model = lr.fit_logistic(ss.base, cfg.fit_options())
            np.testing.assert_array_equal(result.series["estimated_regret"][t], report.regret)
            np.testing.assert_array_equal(result.series["q"][t],
                                          lr.q_values(model, ss.base.features))

    def test_selective_trials(self):
        cfg = ExperimentConfig(master_seed=self.SEED, n_trials=2, n_points=40,
                               k_resamples=10, ridge=0.01)
        trainer = lr.LogisticTrainer(cfg.fit_options())
        result = harness.run_trials(cfg, "selective")
        reference = self._reference(cfg, trainer)
        np.testing.assert_array_equal(result.extras["true_regret"], reference)
        for t, (ss, seed) in enumerate(self._trials(cfg)):
            estimated = lr.estimate_regret(ss.base, trainer, cfg.k_resamples, seed).regret
            model = lr.fit_logistic(ss.base, cfg.fit_options())
            curves = self._curves(ss, model, estimated, reference, dedupe=False)
            for name, series in (("estimated_regret", "estimated_kl"),
                                 ("true_regret", "true_kl"), ("oracle_error", "oracle_kl")):
                np.testing.assert_array_equal(result.series[series][t],
                                              curves[name].mean_kls)
            np.testing.assert_array_equal(result.series["estimated_coverage"][t],
                                          curves["estimated_regret"].coverages)

    def test_active_trials(self):
        cfg = ExperimentConfig(master_seed=self.SEED, n_trials=2, n_points=20,
                               k_resamples=10, ridge=0.01, **self.ACTIVE)
        trainer = lr.LogisticTrainer(cfg.fit_options())
        result = harness.run_trials(cfg, "active")
        for t, (ss, seed) in enumerate(self._trials(cfg)):
            for strategy in harness.STRATEGIES:
                trace = harness.active_learning_run(
                    ss, trainer, cfg.k_resamples, seed, strategy=strategy,
                    initial_fraction=cfg.initial_fraction, batch=cfg.batch_size,
                    n_batches=cfg.n_batches)
                np.testing.assert_array_equal(result.series[strategy][t], trace.mean_kl)
                np.testing.assert_array_equal(result.positions, trace.n_labeled)

    @staticmethod
    def _table(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T

    def test_cli_selective(self, tmp_path):
        cfg = ExperimentConfig(master_seed=self.SEED, n_points=40, k_resamples=10,
                               ridge=0.01)
        assert cli.dispatch(["selective", "--seed", str(self.SEED), "--n-points", "40",
                             "--k", "10", "--ridge", "0.01",
                             "--out", str(tmp_path)]) == 0
        trainer = lr.LogisticTrainer(cfg.fit_options())
        ss = self._draw(cfg, self.SEED, 0)
        estimated = lr.estimate_regret(ss.base, trainer, 10, self.SEED).regret
        true = lr.true_regret(ss, trainer, 10,
                              rng.derive_master(self.SEED, rng.REFERENCE, 0)).regret
        curves = self._curves(ss, lr.fit_logistic(ss.base, cfg.fit_options()),
                              estimated, true)
        for name, curve in curves.items():
            table = self._table(tmp_path / f"selective_{name}.csv")
            for column, expected in zip(table, (curve.cutoffs, curve.coverages,
                                                curve.mean_kls, curve.n_kept)):
                np.testing.assert_array_equal(column, expected)

    def test_cli_active(self, tmp_path):
        cfg = ExperimentConfig(master_seed=self.SEED, n_points=20, k_resamples=10,
                               ridge=0.01, **self.ACTIVE)
        assert cli.dispatch(["active", "--seed", str(self.SEED), "--n-points", "20",
                             "--k", "10", "--ridge", "0.01", "--batch", "2",
                             "--n-batches", "2", "--out", str(tmp_path)]) == 0
        trainer = lr.LogisticTrainer(cfg.fit_options())
        ss = self._draw(cfg, self.SEED, 0)
        for strategy in harness.STRATEGIES:
            trace = harness.active_learning_run(ss, trainer, 10, self.SEED,
                                                strategy=strategy, batch=2, n_batches=2)
            n_labeled, mean_kl = self._table(tmp_path / f"active_{strategy}.csv")
            np.testing.assert_array_equal(n_labeled, trace.n_labeled)
            np.testing.assert_array_equal(mean_kl, trace.mean_kl)


class TestPaperClaims:
    """The paper's findings, checked at desk scale.

    Each margin comes from the spread of the statistic over master seeds;
    CHANGES.md records the seeds and the spread."""

    # Largest ratio of the median KL kept at coverage 0.2 to the median KL at
    # full coverage: the mean plus three SDs of that ratio over seeds 0-29
    # (0.40 + 3 * 0.15; the largest seen was 0.69).
    ABSTENTION_RATIO = 0.85
    # Smallest medians, over seeds 0-19, of the minority's median regret over
    # the majority's: the mean minus three SDs of those medians over 25 blocks
    # of 20 seeds (true 5.78 - 3 * 0.16, estimated 5.60 - 3 * 0.75).
    GROUP_TRUE_RATIO, GROUP_ESTIMATED_RATIO = 5.3, 3.3
    # Largest median, over seeds 0-29, of the mean KL after true-regret
    # acquisition over that after uniform acquisition: the mean plus three SDs
    # of those medians over 16 blocks of 30 seeds (0.784 + 3 * 0.067). Blocks
    # of 20 seeds gave 0.78 + 3 * 0.10 = 1.07, above the 0.98 that constant
    # scores read at seeds 0-19.
    ACTIVE_TRUE_RATIO = 0.98

    def test_abstaining_on_high_estimated_regret_lowers_the_error(self):
        """Ranked by estimated regret, the points kept at coverage 0.2 have a
        median KL well below that of all points; the reverse ranking, or a
        random one, would keep it at or above the full-coverage value."""
        cfg = ExperimentConfig.profile("desk").replace(master_seed=5)
        summaries = harness.run_trials(cfg, "selective").summaries
        fifth = round(0.2 * (harness.DEFAULT_GRID_POINTS - 1))  # the 0.2 quantile cutoff
        np.testing.assert_allclose(summaries["estimated_coverage"].median[fifth], 0.2)
        kl = summaries["estimated_kl"].median
        assert kl[fifth] < self.ABSTENTION_RATIO * kl[-1]

    def test_a_minority_group_has_higher_regret(self):
        """180 points at x2 = +1 and 20 at x2 = -1, labelled +1 with
        probability 0.8 and 0.2: fitted with an intercept, the minority's true
        and estimated regret are several times the majority's. (Without one the
        fit mirrors the groups, and their regret has the same profile in x1.)"""
        x2 = np.repeat([1.0, -1.0], [180, 20])
        x1 = np.concatenate([np.linspace(-1.0, 1.0, 180), np.linspace(-1.0, 1.0, 20)])
        gt = lr.LogisticModel(np.array([0.0, np.log(4.0)]), includes_intercept=False)
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.0, include_intercept=True))
        minority = x2 < 0
        ratios = []
        for seed in range(20):
            ss = lr.semisynthetic_from_model(np.column_stack([x1, x2]), gt, lr.LabelDrawSeed(seed))
            ratios.append([np.median(report.regret[minority]) / np.median(report.regret[~minority])
                           for report in (lr.true_regret(ss, trainer, 300, seed),
                                          lr.estimate_regret(ss.base, trainer, 300, seed))])
        true_ratio, estimated_ratio = np.median(ratios, axis=0)
        assert true_ratio > self.GROUP_TRUE_RATIO
        assert estimated_ratio > self.GROUP_ESTIMATED_RATIO

    def test_acquiring_by_true_regret_lowers_the_error(self):
        """On the population of test_a_minority_group_has_higher_regret, five
        batches of 20 points acquired by true regret leave a lower mean KL
        than five acquired uniformly at random. The ridge is 0.1 because at
        ridge 0, 14 of seeds 0-59 stop with NoConvergence, 13 of them under
        true-regret acquisition, in the warm refits of a quasi-separated
        labelled set (ROADMAP item 3a)."""
        x2 = np.repeat([1.0, -1.0], [180, 20])
        x1 = np.concatenate([np.linspace(-1.0, 1.0, 180), np.linspace(-1.0, 1.0, 20)])
        gt = lr.LogisticModel(np.array([0.0, np.log(4.0)]), includes_intercept=False)
        trainer = lr.LogisticTrainer(lr.FitOptions(ridge=0.1, include_intercept=True))
        ratios = []
        for seed in range(30):
            ss = lr.semisynthetic_from_model(np.column_stack([x1, x2]), gt, lr.LabelDrawSeed(seed))
            true_kl, uniform_kl = (
                harness.active_learning_run(ss, trainer, 300, seed, strategy=strategy,
                                            initial_fraction=0.3, batch=20,
                                            n_batches=5).mean_kl[1:].mean()
                for strategy in ("true_regret", "uniform"))
            ratios.append(true_kl / uniform_kl)
        assert np.median(ratios) < self.ACTIVE_TRUE_RATIO
