import csv
import math
import warnings

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


def reference_load_csv(path, label_column="label"):
    """The per-cell loader that load_csv replaced: the oracle for its results and errors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise errors.EmptyDataset(f"{path} is empty")
        if label_column not in header:
            raise errors.MissingLabelColumn(
                f"column {label_column!r} not found in header {header}")
        label_pos = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_pos)
        if not feature_names:
            raise errors.EmptyDataset(f"{path} has no feature columns")

        rows, labels = [], []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                missing = header[min(len(row), len(header) - 1)]
                raise errors.NonNumericCell(r, missing, "<wrong row length>")
            values = []
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise errors.NonNumericCell(r, header[i], cell) from None
                if not math.isfinite(v):
                    raise errors.NonNumericCell(r, header[i], cell)
                values.append(v)
            try:
                raw_label = float(row[label_pos])
            except ValueError:
                raise errors.InvalidLabelValue(r, row[label_pos]) from None
            if raw_label not in (-1.0, 0.0, 1.0):
                raise errors.InvalidLabelValue(r, row[label_pos])
            labels.append(1 if raw_label == 1.0 else -1)
            rows.append(values)

    if not rows:
        raise errors.EmptyDataset(f"{path} has a header but no data rows")
    return lr.Dataset(np.asarray(rows, dtype=float), np.asarray(labels), feature_names)


def load_outcome(loader, path, label_column="label"):
    """A loaded Dataset as bytes, or the error class with its row and column."""
    try:
        d = loader(path, label_column)
    except errors.LabelRegretError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return (d.features.shape, d.features.dtype, d.features.tobytes(),
            d.labels.dtype, d.labels.tobytes(), d.feature_names)


# name -> (file text, label column); every case loads as the reference loads it
LOADER_CORPUS = {
    "lf": ("a,b,label\n1,2,0\n3,4,1\n", "label"),
    "crlf": ("a,b,label\r\n1,2,0\r\n3,4,1\r\n", "label"),
    "lone cr": ("a,b,label\r1,2,0\r3,4,1\r", "label"),
    "crlf header, lf rows": ("a,label\r\n1,0\n2,1\n", "label"),
    "no final line end": ("a,label\n1,0\n2,1", "label"),
    "blank middle line": ("a,label\n1,0\n\n2,1\n", "label"),
    "trailing blank line": ("a,label\n1,0\n2,1\n\n", "label"),
    "trailing blank crlf line": ("a,label\r\n1,0\r\n\r\n", "label"),
    "blank first data line": ("a,label\n\n1,0\n", "label"),
    "only a blank data line": ("a,label\n\n", "label"),
    "whitespace line": ("a,label\n1,0\n  \n", "label"),
    "quoted numbers": ('a,b,label\n"1.5","-2",0\n"3e1",4,"1"\n', "label"),
    "quote then digits": ('a,label\n"1"2,0\n', "label"),
    "quoted comma": ('a,label\n"1,5",0\n', "label"),
    "padded cells": ("a,b,label\n 1 ,\t2\t, 0\n\x0b3\x0c,4 ,1 \n", "label"),
    "non-ascii space padding": ("a,label\n1\xa0,0\n 2,1\n", "label"),
    "separator padding": ("a,label\n\x1c1,0\n", "label"),
    "separator beside a non-ascii space": ("a,label\n2,0\n\x1c1\xa0,1\n", "label"),
    "separator in the label": ("a,label\n2,1\x1f\n", "label"),
    "labels +1 1.0 -0 1e0": ("a,label\n1,+1\n2,1.0\n3,-0\n4,1e0\n5,-1\n", "label"),
    "extreme values": ("a,b,label\n-0.0,5e-324,1\n1e308,-1.7976931348623157e308,0\n"
                       "0.10000000000000001,2.2250738585072014e-308,0\n", "label"),
    "17 significant digits": ("a,label\n0.30000000000000004,0\n-1.2345678901234567,1\n"
                              "9007199254740993,0\n", "label"),
    "nan": ("a,label\n1,0\nnan,1\n", "label"),
    "inf": ("a,label\ninf,0\n", "label"),
    "Infinity": ("a,b,label\n1,-Infinity,0\n", "label"),
    "overflow to inf": ("a,label\n1e400,0\n", "label"),
    "short row": ("a,b,label\n1,2,0\n3,1\n", "label"),
    "long row": ("a,b,label\n1,2,0\n3,4,1,5\n", "label"),
    "one-cell row": ("a,b,label\n1,2,0\n7\n", "label"),
    "trailing comma": ("a,label\n1,0,\n", "label"),
    "empty cell": ("a,b,label\n1,,0\n", "label"),
    "non-numeric cell": ("a,b,label\n1,2,0\n1,oops,1\n", "label"),
    "non-numeric label": ("a,label\n1,yes\n", "label"),
    "label 2": ("a,label\n1,0\n2,2\n", "label"),
    "label 0.5": ("a,label\n1,0.5\n", "label"),
    "nan label": ("a,label\n1,nan\n", "label"),
    "empty label": ("a,label\n1,\n", "label"),
    "bad feature before bad label": ("label,a,b\n7,1,x\n", "label"),
    "first of two bad rows": ("a,label\n1,0\nx,1\n2,3\n", "label"),
    "label first": ("y,a,b\n1,0.5,2\n0,1.5,3\n", "y"),
    "label middle": ("a,y,b\n0.5,1,2\n1.5,0,3\n", "y"),
    "label last": ("a,b,y\n0.5,2,1\n1.5,3,0\n", "y"),
    "bad label first": ("y,a\n3,1\n", "y"),
    "quoted header": ('"a","b",label\n1,2,0\n', "label"),
    "header only": ("a,label\n", "label"),
    "header without line end": ("a,label", "label"),
    "empty file": ("", "label"),
    "missing label column": ("a,b\n1,2\n", "label"),
    "no feature columns": ("label\n1\n", "label"),
    "hex number": ("a,label\n0x10,0\n", "label"),
    "nul cell": ("a,label\n1\x00,0\n", "label"),
    "unterminated quote at end": ('a,label\n1,"0', "label"),
}


class TestLoaderMatchesReference:
    """load_csv gives the reference loader's Dataset bit for bit, or its error."""

    @pytest.mark.parametrize("case", LOADER_CORPUS, ids=list(LOADER_CORPUS))
    def test_corpus(self, tmp_path, case):
        text, label_column = LOADER_CORPUS[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body of blank lines
            outcome = load_outcome(lr.load_csv, path, label_column)
        assert outcome == load_outcome(reference_load_csv, path, label_column)

    # cells float() reads but numpy's parser does not; the reference accepts them
    NARROWED = {
        "digit-group underscore": ("a,b,label\n1,2,0\n3,1_0,1\n", errors.NonNumericCell, 1, "b"),
        "underscore in the label": ("a,label\n1,0_1\n", errors.InvalidLabelValue, 0, None),
        "non-ascii digit": ("a,label\n١,0\n", errors.NonNumericCell, 0, "a"),
        "quoted line break": ('a,label\n"1\n",0\n', errors.NonNumericCell, 0, "a"),
    }

    @pytest.mark.parametrize("case", NARROWED, ids=list(NARROWED))
    def test_narrowed_cells_rejected(self, tmp_path, case):
        text, error, row, column = self.NARROWED[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        reference_load_csv(path)
        with pytest.raises(error) as info:
            lr.load_csv(path)
        assert (info.value.row, getattr(info.value, "column", None)) == (row, column)

    def test_earlier_reference_error_wins_over_narrowed_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write_lines(path, ["a,label", "1_0,0", "1,0", "nan,1"])
        with pytest.raises(errors.NonNumericCell) as info:
            lr.load_csv(path)
        assert info.value.row == 2

    def test_large_round_trip_is_byte_identical(self, tmp_path):
        """2,000 x 20 through write_table and load_csv: same Dataset, same file."""
        gen = np.random.default_rng(17)
        features = gen.standard_normal((2000, 20)) * 10.0 ** gen.integers(-12, 12, (2000, 20))
        features[0, :3] = [-0.0, 5e-324, 1e308]
        original = lr.Dataset(features, gen.choice([-1, 1], size=2000),
                              tuple(f"c{j}" for j in range(20)))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_table(first, [*original.feature_names, "label"],
                    [*original.features.T, original.labels])
        loaded = lr.load_csv(first)
        assert loaded.features.tobytes() == original.features.tobytes()
        assert loaded.labels.tobytes() == original.labels.tobytes()
        assert loaded.feature_names == original.feature_names
        write_table(second, [*loaded.feature_names, "label"],
                    [*loaded.features.T, loaded.labels])
        assert second.read_bytes() == first.read_bytes()


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
