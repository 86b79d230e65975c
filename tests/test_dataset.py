import math

import numpy as np
import pytest

import labelregret as lr
from labelregret import errors
from labelregret._io import write_table
from labelregret.dataset import draw_label_rows, load_semisynthetic, save_semisynthetic

from conftest import write_lines


class TestDatasetValidation:
    def test_basic_construction(self):
        d = lr.Dataset([[1.0, 2.0], [3.0, 4.0]], [1, -1], ("a", "b"))
        assert d.n_points == 2 and d.n_features == 2

    def test_default_names(self):
        d = lr.Dataset([[1.0], [2.0]], [1, -1])
        assert d.feature_names == ("x0",)

    def test_rejects_bad_labels(self):
        with pytest.raises(errors.InvalidLabelValue):
            lr.Dataset([[1.0], [2.0]], [1, 0])

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError):
            lr.Dataset([[1.0], [np.nan]], [1, -1])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            lr.Dataset([[1.0, 2.0]], [1], ("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(errors.EmptyDataset):
            lr.Dataset(np.empty((0, 2)), [])

    def test_arrays_are_frozen(self):
        d = lr.Dataset([[1.0], [2.0]], [1, -1])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.labels[0] = -1


class TestLoadCsv:
    def test_zero_one_labels_map(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,b,label", "1,2,0", "3,4,1", "5,6,0"])
        d = lr.load_csv(p)
        assert d.n_features == 2
        assert d.feature_names == ("a", "b")
        np.testing.assert_array_equal(d.labels, [-1, 1, -1])

    def test_plus_minus_labels_pass_through(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,label", "1,-1", "2,+1"])
        np.testing.assert_array_equal(lr.load_csv(p).labels, [-1, 1])

    def test_label_column_anywhere(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["y,a,b", "1,0.5,2", "0,1.5,3"])
        d = lr.load_csv(p, label_column="y")
        assert d.feature_names == ("a", "b")
        np.testing.assert_array_equal(d.features[:, 0], [0.5, 1.5])

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,b", "1,2"])
        with pytest.raises(errors.MissingLabelColumn):
            lr.load_csv(p)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,b,label", "1,2,0", "1,oops,1"])
        with pytest.raises(errors.NonNumericCell) as info:
            lr.load_csv(p)
        assert info.value.row == 1
        assert info.value.column == "b"

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,label", "nan,0"])
        with pytest.raises(errors.NonNumericCell):
            lr.load_csv(p)

    @pytest.mark.parametrize("bad", ["2", "0.5", "yes"])
    def test_invalid_label_value(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        write_lines(p, ["a,label", f"1,{bad}"])
        with pytest.raises(errors.InvalidLabelValue):
            lr.load_csv(p)

    def test_empty_variants(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(errors.EmptyDataset):
            lr.load_csv(p)
        write_lines(p, ["a,label"])  # header only
        with pytest.raises(errors.EmptyDataset):
            lr.load_csv(p)
        write_lines(p, ["label", "1"])  # no feature columns
        with pytest.raises(errors.EmptyDataset):
            lr.load_csv(p)

    def test_mapping_invariance(self, tmp_path):
        """A {0,1}-labeled file and its {-1,+1} relabeling load identically."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(a, ["f,label", "0.25,0", "1.5,1", "-3,1"])
        write_lines(b, ["f,label", "0.25,-1", "1.5,+1", "-3,1"])
        da, db = lr.load_csv(a), lr.load_csv(b)
        np.testing.assert_array_equal(da.features, db.features)
        np.testing.assert_array_equal(da.labels, db.labels)

    def test_round_trip_random_datasets(self, tmp_path):
        """write_table then load_csv reproduces the Dataset bit for bit."""
        gen = np.random.default_rng(5)
        for rep in range(20):
            n = int(gen.integers(1, 8))
            d = int(gen.integers(1, 5))
            features = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-8, 8)
            labels = gen.choice([-1, 1], size=n)
            names = tuple(f"c{j}" for j in range(d))
            original = lr.Dataset(features, labels, names)
            path = tmp_path / f"r{rep}.csv"
            write_table(path, [*names, "label"], [*original.features.T, original.labels])
            loaded = lr.load_csv(path)
            np.testing.assert_array_equal(loaded.features, original.features)
            np.testing.assert_array_equal(loaded.labels, original.labels)
            assert loaded.feature_names == original.feature_names


class TestDrawLabels:
    def test_degenerate_probabilities(self):
        for seed in (0, 1, 99):
            np.testing.assert_array_equal(
                lr.draw_labels([1.0, 1.0, 1.0], lr.LabelDrawSeed(seed)), [1, 1, 1])
            np.testing.assert_array_equal(
                lr.draw_labels([0.0, 0.0], lr.LabelDrawSeed(seed)), [-1, -1])

    def test_prob_out_of_range(self):
        with pytest.raises(errors.ProbOutOfRange) as info:
            lr.draw_labels([0.5, 1.2], lr.LabelDrawSeed(0))
        assert info.value.index == 1

    def test_deterministic(self):
        seed = lr.LabelDrawSeed(77, 3)
        probs = np.full(100, 0.4)
        np.testing.assert_array_equal(lr.draw_labels(probs, seed),
                                      lr.draw_labels(probs, seed))

    def test_label_rows_match_single_draws(self):
        """Row k-1 of the resample matrix is the draw of stream k, bit for bit."""
        probs = np.random.default_rng(4).uniform(size=30)
        rows = draw_label_rows(probs, 77, 25)
        assert rows.shape == (25, 30)
        for k in range(1, 26):
            np.testing.assert_array_equal(rows[k - 1],
                                          lr.draw_labels(probs, lr.LabelDrawSeed(77, k)))
        with pytest.raises(errors.ProbOutOfRange) as info:
            draw_label_rows([0.5, -0.1], 77, 3)
        assert info.value.index == 1
        with pytest.raises(ValueError):
            draw_label_rows(probs, -1, 3)

    def test_streams_differ(self):
        probs = np.full(200, 0.5)
        a = lr.draw_labels(probs, lr.LabelDrawSeed(77, 0))
        b = lr.draw_labels(probs, lr.LabelDrawSeed(77, 1))
        assert not np.array_equal(a, b)

    def test_empirical_frequency(self):
        """Fraction of +1 stays within 3 binomial standard errors of p."""
        for seed in (0, 1, 2):
            labels = lr.draw_labels(np.full(10000, 0.8), lr.LabelDrawSeed(seed))
            frac = np.mean(labels == 1)
            assert abs(frac - 0.8) <= 0.012

    def test_frequency_at_several_probabilities(self):
        n = 100000
        for p in (0.1, 0.5, 0.9):
            labels = lr.draw_labels(np.full(n, p), lr.LabelDrawSeed(13))
            frac = np.mean(labels == 1)
            assert abs(frac - p) <= 3 * math.sqrt(p * (1 - p) / n)

    def test_shuffle_unshuffle_identity(self):
        """Per-point outcomes do not depend on the evaluation order."""
        gen = np.random.default_rng(3)
        probs = gen.uniform(size=64)
        seed = lr.LabelDrawSeed(5, 2)
        direct = lr.draw_labels(probs, seed)
        perm = gen.permutation(64)
        shuffled = lr.draw_labels(probs[perm], seed, point_indices=perm)
        unshuffled = np.empty_like(shuffled)
        unshuffled[perm] = shuffled
        np.testing.assert_array_equal(unshuffled, direct)


class TestSemiSynthetic:
    def test_two_cluster_exact_probabilities(self, cluster_ss):
        assert set(np.round(cluster_ss.true_probs, 12)) == {0.2, 0.8}

    def test_regeneration_is_verified_on_construction(self, cluster_ss):
        bad_labels = np.array(cluster_ss.base.labels)
        bad_labels[0] = -bad_labels[0]
        with pytest.raises(ValueError):
            lr.SemiSyntheticDataset(cluster_ss.base.with_labels(bad_labels),
                                    cluster_ss.true_probs,
                                    cluster_ss.ground_truth, cluster_ss.seed)

    def test_make_semisynthetic_deterministic(self):
        features = lr.gaussian_features(30, 2, 9)
        labels = lr.draw_labels(np.full(30, 0.5), lr.LabelDrawSeed(1))
        a = lr.make_semisynthetic(features, labels, ridge=0.5, seed=lr.LabelDrawSeed(4))
        b = lr.make_semisynthetic(features, labels, ridge=0.5, seed=lr.LabelDrawSeed(4))
        np.testing.assert_array_equal(a.base.labels, b.base.labels)
        np.testing.assert_array_equal(a.true_probs, b.true_probs)
        np.testing.assert_array_equal(a.ground_truth.theta, b.ground_truth.theta)

    def test_huge_ridge_flattens_probabilities(self):
        features = lr.gaussian_features(40, 2, 10)
        labels = lr.draw_labels(np.full(40, 0.7), lr.LabelDrawSeed(2))
        ss = lr.make_semisynthetic(features, labels, ridge=1e8, seed=lr.LabelDrawSeed(3))
        np.testing.assert_allclose(ss.ground_truth.theta, 0.0, atol=1e-6)
        np.testing.assert_allclose(ss.true_probs, 0.5, atol=1e-6)

    def test_two_cluster_recovery_through_fitting(self):
        """Ten points in two clusters, 4-of-5 positive on top and 1-of-5 on the
        bottom: the fitted ground truth lands on cluster probabilities 0.8/0.2."""
        x1 = np.array([-1.0, -0.5, 0.0, 0.5, 1.0] * 2)
        x2 = np.array([1.0] * 5 + [-1.0] * 5)
        features = np.column_stack([x1, x2])
        # the negative (top) / positive (bottom) exceptions sit at x1 = 0 so
        # the first coordinate carries no label signal
        labels = np.array([1, 1, -1, 1, 1, -1, -1, 1, -1, -1])
        ss = lr.make_semisynthetic(features, labels, ridge=1e-6,
                                   seed=lr.LabelDrawSeed(8))
        top, bottom = ss.true_probs[:5], ss.true_probs[5:]
        assert np.all((top >= 0.78) & (top <= 0.82))
        assert np.all((bottom >= 0.18) & (bottom <= 0.22))

    def test_separable_with_zero_ridge_diverges(self):
        features = np.array([[-1.0], [1.0]])
        labels = np.array([-1, 1])
        with pytest.raises(errors.FitDiverged):
            lr.make_semisynthetic(features, labels, ridge=0.0,
                                  seed=lr.LabelDrawSeed(0))

    def test_length_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            lr.make_semisynthetic(np.ones((3, 1)), [1, -1], seed=lr.LabelDrawSeed(0))

    def test_save_load_round_trip(self, tmp_path, cluster_ss):
        csv_path, json_path = tmp_path / "ss.csv", tmp_path / "ss.json"
        save_semisynthetic(cluster_ss, csv_path, json_path)
        loaded = load_semisynthetic(csv_path, json_path)
        np.testing.assert_array_equal(loaded.base.features, cluster_ss.base.features)
        np.testing.assert_array_equal(loaded.base.labels, cluster_ss.base.labels)
        np.testing.assert_array_equal(loaded.true_probs, cluster_ss.true_probs)
        np.testing.assert_array_equal(loaded.ground_truth.theta,
                                      cluster_ss.ground_truth.theta)
        assert loaded.seed == cluster_ss.seed


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        gen = np.random.default_rng(1)
        d = lr.Dataset(gen.normal(3.0, 2.5, size=(50, 3)), gen.choice([-1, 1], 50))
        out, record = lr.standardize_features(d)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)
        recovered = out.features * np.array(record["std"]) + np.array(record["mean"])
        np.testing.assert_allclose(recovered, d.features, atol=1e-12)

    def test_constant_column_rejected(self):
        d = lr.Dataset([[1.0, 2.0], [1.0, 3.0]], [1, -1])
        with pytest.raises(ValueError):
            lr.standardize_features(d)
