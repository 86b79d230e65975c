import math
from dataclasses import replace

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors, rng
from labelregret.glm import design_matrix
from labelregret._io import write_table
from labelregret.theory import theory_report_table

from glm_reference import loss_gradient, loss_hessian


def annulus_features(n: int, d: int, master_seed: int, *, r_min: float = 0.5,
                     r_max: float = 2.0) -> np.ndarray:
    """Features on an annulus: compact support bounded away from the origin."""
    if not 0 < r_min <= r_max:
        raise ValueError("need 0 < r_min <= r_max")
    gen = rng.substream(master_seed, rng.FEATURES, 0)
    directions = gen.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = gen.uniform(r_min, r_max, size=n)
    return directions * radii[:, None]


class TestComputeHessian:
    def test_single_point_at_zero(self):
        H = lr.compute_hessian(lr.LogisticModel(np.zeros(1)), np.ones((1, 1)))
        np.testing.assert_allclose(H, [[0.25]], atol=1e-16)

    def test_negation_invariance(self):
        gen = np.random.default_rng(2)
        X = gen.standard_normal((30, 3))
        theta = gen.standard_normal(3)
        H_pos = lr.compute_hessian(lr.LogisticModel(theta), X)
        H_neg = lr.compute_hessian(lr.LogisticModel(-theta), X)
        np.testing.assert_allclose(H_pos, H_neg, atol=1e-14)

    def test_symmetry(self):
        gen = np.random.default_rng(3)
        X = gen.standard_normal((20, 4))
        H = lr.compute_hessian(lr.LogisticModel(gen.standard_normal(4)), X)
        np.testing.assert_allclose(H, H.T, atol=1e-14)

    def test_matches_finite_difference_of_gradient(self, cluster_ss):
        """Central differences of the analytic gradient at the optimum."""
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        H = lr.compute_hessian(model, cluster_ss.base.features)
        X = design_matrix(cluster_ss.base.features, False)
        y = cluster_ss.base.labels.astype(float)
        h = 1e-5
        fd = np.zeros_like(H)
        for j in range(H.shape[0]):
            up, down = np.array(model.theta), np.array(model.theta)
            up[j] += h
            down[j] -= h
            fd[:, j] = (loss_gradient(up, X, y, 0.0) - loss_gradient(down, X, y, 0.0)) / (2 * h)
        np.testing.assert_allclose(H, fd, rtol=1e-5, atol=1e-8)

    def test_agrees_with_optimizer_route(self, cluster_ss):
        """The symmetrized X'(w X) product and the reference optimizer's own
        weighted product match."""
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        via_theory = lr.compute_hessian(model, cluster_ss.base.features)
        X = design_matrix(cluster_ss.base.features, False)
        via_glm = loss_hessian(model.theta, X, 0.0)
        np.testing.assert_allclose(via_theory, via_glm, atol=1e-10)

    @pytest.mark.parametrize("include_intercept", [False, True])
    def test_equals_the_sum_of_weighted_outer_products(self, include_intercept):
        """H = sum_i w_i x_i x_i' summed point by point, w_i = p_i (1 - p_i).

        Each route forms every entry as a sum of n rounded products w x_j x_k,
        so each lies within (n + 2) eps of the exact sum of their magnitudes,
        and the symmetrization adds one rounding; the tolerance is twice that,
        set from float64's eps alone. Features span six orders of magnitude.
        """
        gen = np.random.default_rng(22)
        features = gen.standard_normal((300, 4)) * np.array([1e-3, 1.0, 10.0, 1e3])
        X = design_matrix(features, include_intercept)
        theta = gen.standard_normal(X.shape[1]) / np.abs(X).max(axis=0)
        H = lr.compute_hessian(lr.LogisticModel(theta, include_intercept), features)

        p = lr.sigmoid(X @ theta)
        w = p * (1.0 - p)
        loop = np.zeros_like(H)
        magnitude = np.zeros_like(H)
        for w_i, x_i in zip(w, X):
            loop += w_i * np.outer(x_i, x_i)
            magnitude += w_i * np.outer(np.abs(x_i), np.abs(x_i))
        n = X.shape[0]
        tolerance = 2 * (n + 3) * np.finfo(float).eps * magnitude
        assert np.all(np.abs(H - loop) <= tolerance)


class TestQValues:
    def test_uniform_points_closed_form(self):
        """n copies of x = 1 at theta = 0: H = n/4 and q = 0.25/n each."""
        for n in (1, 4, 10, 33):
            q = lr.q_values(lr.LogisticModel(np.zeros(1)), np.ones((n, 1)))
            np.testing.assert_allclose(q, np.full(n, 0.25 / n), atol=1e-15)

    def test_negation_invariance(self):
        gen = np.random.default_rng(5)
        X = gen.standard_normal((25, 2))
        theta = gen.standard_normal(2)
        q_pos = lr.q_values(lr.LogisticModel(theta), X)
        q_neg = lr.q_values(lr.LogisticModel(-theta), X)
        np.testing.assert_allclose(q_pos, q_neg, atol=1e-10)

    def test_rescale_invariance(self):
        """x -> c x with theta -> theta / c leaves every value unchanged."""
        gen = np.random.default_rng(6)
        X = gen.standard_normal((40, 3))
        theta = gen.standard_normal(3)
        base = lr.q_values(lr.LogisticModel(theta), X)
        for c in (0.1, 2.0, 37.5):
            scaled = lr.q_values(lr.LogisticModel(theta / c), c * X)
            np.testing.assert_allclose(scaled, base, rtol=1e-10, atol=1e-14)

    def test_matches_dense_inverse_route(self, cluster_ss):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        X = cluster_ss.base.features
        q = lr.q_values(model, X)
        H_inv = np.linalg.inv(lr.compute_hessian(model, X))
        p = lr.predict_proba(model, X)
        direct = (p * (1 - p)) ** 2 * np.einsum("ij,jk,ik->i", X, H_inv, X)
        np.testing.assert_allclose(q, direct, rtol=1e-10)

    def test_matches_cholesky_solve(self):
        """q from the d x d inverse agrees with scipy's Cholesky solve at scale."""
        linalg = pytest.importorskip("scipy.linalg")
        gen = np.random.default_rng(21)
        X = gen.standard_normal((10_000, 20))
        model = lr.LogisticModel(gen.normal(0.0, 0.3, 21), includes_intercept=True)
        q = lr.q_values(model, X)
        Xd = design_matrix(X, True)
        p = lr.predict_proba(model, X)
        H = lr.compute_hessian(model, X)
        solved = linalg.cho_solve(linalg.cho_factor(H), Xd.T)
        reference = (p * (1 - p)) ** 2 * np.einsum("ij,ji->i", Xd, solved)
        np.testing.assert_allclose(q, reference, rtol=1e-13)
        report = lr.theory_report(model, X)
        eigenvalues = linalg.eigvalsh(H)
        assert report.lambda_min == pytest.approx(eigenvalues[0], rel=1e-12)
        assert report.lambda_max == pytest.approx(eigenvalues[-1], rel=1e-12)

    def test_duplicated_points_share_value(self):
        X = np.array([[1.0, 2.0], [0.5, -1.0], [1.0, 2.0]])
        q = lr.q_values(lr.LogisticModel(np.array([0.3, -0.2])), X)
        assert q[0] == pytest.approx(q[2], rel=1e-12)

    def test_singular_hessian(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(errors.SingularHessian):
            lr.q_values(lr.LogisticModel(np.zeros(2)), X)


class TestEpsilonBound:
    def test_uniform_case_closed_form(self):
        """d=1, x=1, theta=0, n=10: epsilon = 800 ln(10) / sqrt(2.5)."""
        eps, applies = lr.epsilon_bound(lr.LogisticModel(np.zeros(1)), np.ones((10, 1)))
        assert eps == pytest.approx(800.0 * math.log(10.0) / math.sqrt(2.5), rel=1e-12)
        assert applies is False

    def test_formula_identity_and_lambda_monotonicity(self, cluster_ss):
        """The report reproduces the closed formula from its own fields, and
        the formula is strictly decreasing in the smallest eigenvalue."""
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        report = lr.theory_report(model, cluster_ss.base.features)
        n = cluster_ss.base.n_points

        def formula(lam_min):
            return (report.constant * 2 * report.x_max
                    * (math.log(n * report.x_max / report.x_min)
                       + report.x_max * report.theta_norm) / math.sqrt(lam_min))

        assert report.epsilon == pytest.approx(formula(report.lambda_min), rel=1e-12)
        assert formula(2 * report.lambda_min) < formula(report.lambda_min)

    def test_custom_constant_scales_linearly(self, cluster_ss):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        eps_800, _ = lr.epsilon_bound(model, cluster_ss.base.features)
        eps_8, _ = lr.epsilon_bound(model, cluster_ss.base.features, constant=8.0)
        assert eps_8 == pytest.approx(eps_800 / 100.0, rel=1e-12)

    def test_zero_norm_point_rejected(self):
        X = np.array([[1.0], [0.0]])
        with pytest.raises(errors.ZeroNormPoint):
            lr.epsilon_bound(lr.LogisticModel(np.zeros(1)), X)

    def test_scaling_statistic_stays_in_band(self):
        """On compact-support data bounded away from the origin the statistic
        epsilon * sqrt(n) / log(n) is stable across decades of n."""
        stats = []
        for n in (100, 1000, 10000):
            X = annulus_features(n, 2, 77)
            ss = lr.semisynthetic_from_model(X, lr.LogisticModel([0.5, -0.3]),
                                             lr.LabelDrawSeed(77))
            model = lr.fit_logistic(ss.base, lr.FitOptions(include_intercept=False))
            eps, _ = lr.epsilon_bound(model, X)
            stats.append(eps * math.sqrt(n) / math.log(n))
        for a, b in zip(stats, stats[1:]):
            assert 0.5 <= b / a <= 2.0


class TestTheoryReport:
    def test_report_fields_consistent(self, cluster_ss):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        report = lr.theory_report(model, cluster_ss.base.features)
        assert report.lambda_min <= report.lambda_max
        assert 0 < report.x_min <= report.x_max
        assert np.all(report.q > 0)
        assert report.bound_applies == (report.epsilon < 1.0)

    def test_report_equals_the_public_pieces(self, cluster_ss):
        """The shared Hessian gives bit for bit what the separate functions give."""
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=True))
        features = cluster_ss.base.features
        report = lr.theory_report(model, features, constant=3.0)
        eigenvalues = np.linalg.eigvalsh(lr.compute_hessian(model, features))
        np.testing.assert_array_equal(report.q, lr.q_values(model, features))
        assert (report.epsilon, report.bound_applies) == lr.epsilon_bound(model, features, 3.0)
        assert report.lambda_min == pytest.approx(eigenvalues[0], rel=1e-12)
        assert report.lambda_max == pytest.approx(eigenvalues[-1], rel=1e-12)

    def test_single_point_never_applies_the_bound(self):
        """n=1 with epsilon < 1: the bound needs n >= 2, and the report agrees."""
        report = lr.theory_report(lr.LogisticModel([0.0]), [[1.0]], constant=1e-6)
        assert report.epsilon < 1.0
        assert report.bound_applies is False
        assert lr.epsilon_bound(lr.LogisticModel([0.0]), [[1.0]], 1e-6) == (report.epsilon, False)
        with pytest.raises(ValueError, match="inconsistent"):
            replace(report, bound_applies=True)

    def test_intercept_counts_as_feature(self, cluster_ss):
        """With an intercept the norms and dimension include the ones column."""
        model = lr.fit_logistic(cluster_ss.base,
                                lr.FitOptions(include_intercept=True))
        report = lr.theory_report(model, cluster_ss.base.features)
        raw_norms = np.linalg.norm(cluster_ss.base.features, axis=1)
        expected_min = math.sqrt(raw_norms.min() ** 2 + 1.0)
        assert report.x_min == pytest.approx(expected_min, rel=1e-12)

    def test_csv_layout(self, cluster_ss, tmp_path):
        model = lr.fit_logistic(cluster_ss.base, lr.FitOptions(include_intercept=False))
        report = lr.theory_report(model, cluster_ss.base.features)
        write_table(tmp_path / "theory.csv", *theory_report_table(report))
        lines = (tmp_path / "theory.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "point_index,q"
        assert len(lines) == cluster_ss.base.n_points + 1


class TestTheoryAgainstEnumeration:
    def test_q_tracks_exact_regret_at_enumeration_scale(self):
        """Calibration against the exhaustive oracle at enumerable sizes.

        The closed form carries O(1) error terms at a dozen points (its
        relative-error statistic is far above 1 there), so agreement is only
        moderate: measured per-seed correlations at n = 12..14 span
        0.72-0.98. The frozen small-n floor is 0.7 per seed / 0.85 median;
        the tight production-scale thresholds (0.95 correlation, 0.15 median
        relative error at n = 2000) are checked by
        TestTheoryAtScale.test_q_tracks_monte_carlo_regret.
        """
        opts = lr.FitOptions(ridge=0.0, include_intercept=False)
        correlations = []
        for n, seed in ((12, 99), (12, 123), (14, 7), (14, 2024)):
            features = lr.gaussian_features(n, 2, seed) * 0.8
            ss = lr.semisynthetic_from_model(features, lr.LogisticModel([0.7, -0.4]),
                                             lr.LabelDrawSeed(seed))
            model = lr.fit_logistic(ss.base, opts)
            probs = lr.predict_proba(model, features)
            exact = lr.exact_regret_enumeration(features, probs,
                                                lr.LogisticTrainer(opts))
            correlations.append(np.corrcoef(lr.q_values(model, features),
                                            exact.regret)[0, 1])
        assert min(correlations) >= 0.7
        assert np.median(correlations) >= 0.85


class TestTheoryAtScale:
    def test_q_tracks_monte_carlo_regret(self):
        """Acceptance thresholds at n = 2000, where the closed form's error
        terms are small: per seed, corr(q, regret) >= 0.95 and the median
        relative error |regret - q| / q <= 0.15, with K = 1000 resamples."""
        opts = lr.FitOptions(ridge=0.0, include_intercept=False)
        for seed in (1, 2, 3):
            ss = lr.gaussian_semisynthetic(2000, 2, [0.6, -0.6], seed)
            model = lr.fit_logistic(ss.base, opts)
            q = lr.q_values(model, ss.base.features)
            regret = lr.estimate_regret(ss.base, lr.LogisticTrainer(opts), 1000, seed).regret
            assert np.corrcoef(q, regret)[0, 1] >= 0.95
            assert np.median(np.abs(regret - q) / q) <= 0.15
