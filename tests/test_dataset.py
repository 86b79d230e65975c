import csv
import decimal
import io
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import labelregret as lr
from labelregret import dataset, errors, rng
from labelregret._io import write_table
from labelregret.dataset import draw_label_rows, load_semisynthetic, save_semisynthetic

from conftest import write_large_csv, write_lines


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

    @pytest.mark.parametrize("header, copies", [("x,label,label", 2), ("label,x,label,label", 3)])
    def test_repeated_label_column(self, tmp_path, header, copies):
        """A second column named like the label is rejected, not read as a feature."""
        p = tmp_path / "d.csv"
        write_lines(p, [header, ",".join(["1"] * header.count(",")) + ",0"])
        with pytest.raises(errors.MissingLabelColumn, match=f"'label' appears {copies} times"):
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

    @pytest.mark.parametrize("large", [False, True], ids=["np.loadtxt", "plain parse"])
    def test_loaded_arrays_are_owned_and_read_only(self, tmp_path, large):
        """Below _SPLIT_BYTES np.loadtxt parses the body, above it the plain
        parse does: either way the Dataset holds a C-contiguous float64
        matrix and an int64 label vector, each read-only and owning its
        memory, so no caller's array can change them."""
        p = tmp_path / "d.csv"
        if large:
            write_large_csv(p)
            assert p.stat().st_size > dataset._SPLIT_BYTES
        else:
            write_lines(p, ["a,b,label", "1,2,0", "3,4,1"])
        d = lr.load_csv(p)
        assert d.features.dtype == np.float64 and d.features.flags.c_contiguous
        assert d.labels.dtype == np.int64
        for array in (d.features, d.labels):
            assert array.base is None and not array.flags.writeable

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
    except ValueError as exc:  # Dataset's check of the feature names
        if type(exc) is not ValueError:  # UnicodeDecodeError: see outcome
            raise
        return ValueError, str(exc)
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
    "duplicate feature names": ("a,a,label\n1,2,0\n", "label"),
    "empty feature name": ("a,,label\n1,2,0\n", "label"),
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

    @pytest.mark.parametrize("tail", ["2,1\n", "2,1", "\n2,1\n", "2,1\n\n", "2,1\r\n3,0\r"],
                             ids=["lf", "no final line end", "blank line", "trailing blank line",
                                  "crlf and lone cr"])
    def test_body_of_several_count_slices(self, tmp_path, tail):
        """A body of three 64 KiB slices loads as the reference loads it,
        whatever its last slice holds."""
        slice_bytes = 1 << 16
        text = "a,label\n" + "1.25,0\n" * (3 * slice_bytes // 7) + tail
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = load_outcome(lr.load_csv, path)
        assert outcome == load_outcome(reference_load_csv, path)

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


@pytest.fixture
def plain_tables(monkeypatch):
    """For each _plain_rows call, whether it returned a table rather than
    declining; the size floor and the piece size are the module's."""
    if not dataset._X87_LONG_DOUBLE:
        pytest.skip("long double is not x87's 80-bit format, so np.loadtxt parses every body")
    tables = []
    plain_rows = dataset._plain_rows

    def recording(*args):
        table = plain_rows(*args)
        tables.append(table is not None)
        return table

    monkeypatch.setattr(dataset, "_plain_rows", recording)
    return tables


@pytest.fixture
def split_tables(plain_tables, monkeypatch):
    """plain_tables, with every body taken by _plain_rows and cut one line a
    piece, so that the helper thread parses the second half of the lines."""
    monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(dataset, "_PIECE_BYTES", 1)
    return plain_tables


def open_fds():
    return len(os.listdir("/dev/fd"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(loader, path):
    """load_outcome, with a UnicodeDecodeError as its class."""
    try:
        return load_outcome(loader, path)
    except UnicodeDecodeError:
        return UnicodeDecodeError


# 2,000 rows of 10 bytes: in pieces of one row or of 100 rows, the helper
# thread parses rows 1000 on; row 900 lies past the first 8,192 bytes, which
# the header's read decodes
ROW = b"1.5,2.5,0\n"
PLACED = {"first half": 900, "split line": 1000, "second half": 1500}
# each one or two rows long, so that the rows after it keep their offsets
DEFECTS = {
    "bad cell": b"1.5,x.5,0\n",
    "short row": b"12.5678,0\n",
    "blank line": b"\n" + b"1.5,2.5,0000000000\n",
    "invalid utf-8": b"1.5,\xff.5,0\n",
    "crlf row": b"1.5,2.,0\r\n",
    "lone cr row": b"1.5,2.5,0\r",
    "unreadable plain cell": b"1.5,2-5,0\n",
    "empty plain cell": b",1.5000,0\n",
    "label 2": b"1.5,2.5,2\n",
}


def placed_body(defect: bytes, row: int, n_rows: int = 2000) -> bytes:
    rows = [ROW] * n_rows
    rows[row:row + len(defect) // len(ROW)] = [defect]
    return b"a,b,label\n" + b"".join(rows)


class TestSplitParse:
    """A body parsed by _plain_rows, in two threads, loads as the reference
    loads it."""

    @pytest.mark.parametrize("case", LOADER_CORPUS, ids=list(LOADER_CORPUS))
    def test_corpus(self, tmp_path, split_tables, case):
        text, label_column = LOADER_CORPUS[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_outcome(lr.load_csv, path, label_column)
        assert loaded == load_outcome(reference_load_csv, path, label_column)

    @pytest.mark.parametrize("case", TestLoaderMatchesReference.NARROWED,
                             ids=list(TestLoaderMatchesReference.NARROWED))
    def test_narrowed_cells_rejected(self, tmp_path, split_tables, case):
        text, error, row, column = TestLoaderMatchesReference.NARROWED[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(lr.load_csv, path) == (error, row, column)

    @pytest.mark.parametrize("tail", ["2,1\n", "2,1", "\n2,1\n", "2,1\n\n", "2,1\r\n3,0\r"],
                             ids=["lf", "no final line end", "blank line", "trailing blank line",
                                  "crlf and lone cr"])
    def test_body_of_several_count_slices(self, tmp_path, monkeypatch, split_tables, tail):
        """Pieces of two 64 KiB slices or more: a body that ends in \\n
        parses plain, and any other loads as the reference loads it."""
        slice_bytes = 1 << 16
        monkeypatch.setattr(dataset, "_PIECE_BYTES", 2 * slice_bytes)
        text = "a,label\n" + "1.25,0\n" * (3 * slice_bytes // 7) + tail
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [tail == "2,1\n"]

    @pytest.mark.parametrize("where", PLACED)
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_placed_defect(self, tmp_path, monkeypatch, split_tables, defect, where):
        """A bad row or an odd line end in either thread's half, or on the
        helper's first line, gives the reference's result or error; the
        plain parse declines all but the label."""
        monkeypatch.setattr(dataset, "_PIECE_BYTES", 100 * len(ROW))
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(DEFECTS[defect], PLACED[where]))
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [defect == "label 2"]

    @pytest.mark.parametrize("defect", ["unreadable plain cell", "blank line"])
    def test_defect_on_a_piece_boundary(self, tmp_path, plain_tables, monkeypatch, defect):
        """A defect on the first line of the second piece, at the module's
        piece size, gives the reference's error."""
        monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
        parse_pieces, starts = dataset._parse_pieces, []

        def recording(raw, pieces, n_columns, tables, failures):
            def taken():  # each start as its piece is taken: both threads share one iterator
                for piece in pieces:
                    starts.append(piece[1])
                    yield piece

            parse_pieces(raw, taken(), n_columns, tables, failures)

        monkeypatch.setattr(dataset, "_parse_pieces", recording)
        first = -(-dataset._PIECE_BYTES // len(ROW))  # the second piece's first row
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(DEFECTS[defect], first, n_rows=first + 100))
        loaded = outcome(lr.load_csv, path)
        assert loaded == outcome(reference_load_csv, path)
        assert loaded[0] is errors.NonNumericCell and plain_tables == [False]
        header = len(b"a,b,label\n")
        assert sorted(starts) == [header, header + first * len(ROW)]

    @pytest.mark.parametrize("where", [None, "first half", "second half"],
                             ids=["loads", "caller fails", "helper fails"])
    def test_no_thread_process_or_fd_is_left(self, tmp_path, split_tables, where):
        """A load, or a failure in either half, starts no process and leaves
        no thread and no open file."""
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(DEFECTS["bad cell"], PLACED[where]) if where
                         else placed_body(ROW, 0))
        threads, fds = threading.active_count(), open_fds()
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [where is None]
        assert threading.active_count() == threads
        assert open_fds() == fds
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("in_helper", [True, False], ids=["helper", "caller"])
    def test_piece_exception(self, tmp_path, monkeypatch, capfd, split_tables, error, in_helper):
        """A ValueError in either thread's parse leaves the np.loadtxt parse;
        any other exception is raised in the caller. Nothing reaches
        stderr, and no thread is left."""
        parse_piece = dataset._parse_piece

        def failing(piece, out):
            if (threading.current_thread() is threading.main_thread()) != in_helper:
                raise error("piece")
            parse_piece(piece, out)

        monkeypatch.setattr(dataset, "_parse_piece", failing)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(ROW, 0, n_rows=20))
        threads = threading.active_count()
        if error is ValueError:
            assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
            assert split_tables == [False]
        else:
            with pytest.raises(error, match="piece"):
                lr.load_csv(path)
        assert threading.active_count() == threads
        assert hooked == [] and capfd.readouterr() == ("", "")

    def test_concurrent_loads_with_a_short_switch_interval(self, tmp_path, split_tables):
        """Four loads at once, each with its helper, under frequent thread
        switches: each gives the reference's result."""
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(ROW, 0, n_rows=200))
        expected = outcome(reference_load_csv, path)
        results = []
        threads = [threading.Thread(target=lambda: results.append(outcome(lr.load_csv, path)))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4 and split_tables == [True] * 4

    def test_no_thread_can_be_started(self, tmp_path, monkeypatch, split_tables):
        """Where the helper cannot start, the calling thread parses every piece."""
        def refused(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        path = tmp_path / "d.csv"
        path.write_bytes(placed_body(ROW, 0, n_rows=20))
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [True]

    def test_a_failed_half_stops_the_other(self, monkeypatch):
        """Once either thread has failed, the other parses no further piece."""
        parsed = []
        monkeypatch.setattr(dataset, "_parse_piece", lambda piece, out: parsed.append(piece))
        raw = b"h\n" + ROW * 4
        pieces = [(i, 2 + i * len(ROW), 2 + (i + 1) * len(ROW)) for i in range(4)]
        dataset._parse_pieces(raw, pieces, 3, [None] * 4, [ValueError("other half")])
        assert parsed == []
        dataset._parse_pieces(raw, pieces, 3, [None] * 4, [])
        assert parsed == [ROW] * 4

    @pytest.mark.parametrize("condition", ["quote in the body", "no 80-bit long double",
                                           "below the size floor"])
    def test_serial_conditions(self, tmp_path, monkeypatch, split_tables, condition):
        """Bodies that np.loadtxt parses alone: the same outcomes."""
        path = tmp_path / "d.csv"
        body = placed_body(b'"1.5",2.5,0\n' if condition == "quote in the body" else ROW, 5)
        path.write_bytes(body)
        if condition == "no 80-bit long double":
            monkeypatch.setattr(dataset, "_X87_LONG_DOUBLE", False)
        if condition == "below the size floor":
            monkeypatch.setattr(dataset, "_SPLIT_BYTES", len(body))
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [False]

    def test_file_above_the_size_floor(self, tmp_path, monkeypatch, plain_tables):
        """A file of more than _SPLIT_BYTES parses plain, bit for bit as
        np.loadtxt parses it."""
        path = tmp_path / "large.csv"
        write_large_csv(path)
        assert path.stat().st_size > dataset._SPLIT_BYTES
        plain = load_outcome(lr.load_csv, path)
        assert plain_tables == [True]
        monkeypatch.setattr(dataset, "_SPLIT_BYTES", path.stat().st_size + 1)
        assert plain == load_outcome(lr.load_csv, path)
        assert plain_tables == [True, False]


    def test_helper_may_take_more_pieces_than_the_caller(self, tmp_path, monkeypatch,
                                                         split_tables):
        """Both threads take pieces from one shared iterator: when the
        caller's parse is slow, the helper takes most of the pieces, and the
        table is still the reference's, bit for bit."""
        parse_piece, parsed = dataset._parse_piece, []

        def slow_caller(piece, out):
            caller = threading.current_thread() is threading.main_thread()
            if caller:
                time.sleep(0.002)
            parse_piece(piece, out)
            parsed.append(caller)

        monkeypatch.setattr(dataset, "_parse_piece", slow_caller)
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,label\n" + b"".join(b"%r,%r,%d\n" % (0.1 * i, -1.0 / (i + 3), i % 2)
                                                   for i in range(200)))
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [True] and len(parsed) == 200
        assert 1 <= parsed.count(True) < parsed.count(False)

    def test_body_declined_in_its_last_piece(self, tmp_path, monkeypatch, split_tables):
        """A quoted cell on the last line declines the plain parse in the
        last piece: each piece is parsed plain at most once, np.loadtxt then
        loads the body once, and the load is the reference's."""
        monkeypatch.setattr(dataset, "_PIECE_BYTES", 100 * len(ROW))
        rows = [b"%d.5,2.5,%d\n" % (i, i % 2) for i in range(1999)]  # no two pieces alike
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,label\n" + b"".join(rows) + b'"1.5",2.5,0\n')
        parse_piece, loadtxt, events = dataset._parse_piece, np.loadtxt, []

        def recording_piece(piece, out):
            events.append(piece)
            parse_piece(piece, out)

        def recording_loadtxt(*args, **kwargs):
            events.append("loadtxt")
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(dataset, "_parse_piece", recording_piece)
        monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
        assert outcome(lr.load_csv, path) == outcome(reference_load_csv, path)
        assert split_tables == [False] and events[-1] == "loadtxt"
        pieces = events[:-1]
        assert "loadtxt" not in pieces and len(set(pieces)) == len(pieces)
        assert not any(piece.endswith(b'"1.5",2.5,0\n') for piece in pieces)

    def test_load_holds_no_third_copy_of_the_table(self, tmp_path, plain_tables):
        """The tracemalloc peak of one load of a 2 MiB plain body of short
        cells, less the body, stays below 2.5 times the feature matrix. The
        piece tables, the matrix they are gathered into and the finiteness
        check's mask come to 2.23 times it. The Dataset constructor copies
        that matrix once the piece tables are freed, so the copy and its own
        mask stay below that peak; a third copy of the table would add one
        more."""
        gen = np.random.default_rng(43)
        cells = gen.integers(0, 10, ((1 << 21) // 42 + 1, 21))
        cells[:, -1] %= 2
        path = tmp_path / "d.csv"
        body = "".join(",".join(map(str, row)) + "\n" for row in cells.tolist())
        path.write_text("".join(f"x{j}," for j in range(20)) + "label\n" + body)
        tracemalloc.start()
        try:
            loaded = lr.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plain_tables == [True]
        np.testing.assert_array_equal(loaded.features, cells[:, :-1])
        assert peak - path.stat().st_size < 2.5 * loaded.features.nbytes

# cells that every fuzz case holds, beside its own
SPECIAL_CELLS = ["-0", "+0", ".5", "5.", "+1", "00012", "1E5", "1e400", "1e-400",
                 "1.7976931348623157e308", "1.7976931348623158e308", "5e-324",
                 "2.2250738585072014e-308", "2.2250738585072011e-308"]


def repr_cells(gen, n):
    """repr of doubles with decimal exponents -320 to 308."""
    with np.errstate(over="ignore"):
        values = gen.choice([-1.0, 1.0], n) * gen.uniform(1.0, 10.0, n) * 10.0 ** gen.integers(-320, 309, n)
    return [repr(v) for v in values[np.isfinite(values)].tolist()]


def midpoint_cells(gen, n):
    """Decimals within a relative 1e-60 of a midpoint between two doubles,
    on either side or on it, exact to 80 significant digits."""
    context = decimal.Context(prec=1100)
    values = gen.uniform(1.0, 10.0, n) * 10.0 ** gen.integers(-310, 308, n)
    cells = []
    for v, side in zip(values.tolist(), gen.integers(-1, 2, n).tolist()):
        low, high = decimal.Decimal(v), decimal.Decimal(math.nextafter(v, math.inf))
        mid = context.divide(context.add(low, high), 2)
        cell = context.add(mid, context.multiply(mid, decimal.Decimal(side).scaleb(-60)))
        cells.append(format(cell, ".79e"))
    return cells


def long_digit_cells(gen, n):
    """Decimals of 18 to 22 significant digits."""
    digits = gen.integers(18, 23, n)
    lead = gen.integers(10**8, 10**9, n)
    rest = (gen.random(n) * 10.0 ** (digits - 9)).astype(np.int64)
    exponents = gen.integers(-300, 280, n)
    signs = gen.choice(["", "-"], size=n)
    return [f"{s}{a}{b:0{d - 9}d}e{e}" for s, a, b, d, e in
            zip(signs.tolist(), lead.tolist(), rest.tolist(), digits.tolist(), exponents.tolist())]


# case -> (cell maker, cell count)
FUZZ = {"repr": (repr_cells, 30_000), "near midpoints": (midpoint_cells, 5_000),
        "long digits": (long_digit_cells, 30_000)}


@pytest.mark.skipif(not dataset._X87_LONG_DOUBLE, reason="needs x87 80-bit long double")
@pytest.mark.parametrize("case", FUZZ)
def test_plain_parse_matches_loadtxt_bit_for_bit(monkeypatch, case):
    """_plain_rows gives np.loadtxt's doubles, signed zeros and infinities
    included, where the long-double cast alone does not."""
    gen = np.random.default_rng(list(FUZZ).index(case) + 1)
    make, n = FUZZ[case]
    cells = make(gen, n) + SPECIAL_CELLS
    n_rows = -(-len(cells) // 20)
    cells += gen.choice(SPECIAL_CELLS, size=20 * n_rows - len(cells)).tolist()
    grid = np.array(cells, dtype=object)[gen.permutation(len(cells))].reshape(n_rows, 20)
    labels = gen.choice(["0", "1", "-1"], size=n_rows)
    body = "".join(",".join(row) + f",{label}\n" for row, label in zip(grid.tolist(), labels))
    monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(dataset, "_PIECE_BYTES", 1 << 16)
    expected = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    tables = dataset._plain_rows(b"header\n" + body.encode(), len(b"header\n"), 21)
    assert tables is not None and np.concatenate(tables).tobytes() == expected.tobytes()
    with np.errstate(over="ignore"):
        cast = np.fromstring(body.replace("\n", ",").encode(), dtype=np.longdouble,
                             sep=",").astype(float)
    assert cast.tobytes() != expected.tobytes()  # the case needs the re-read



@pytest.mark.skipif(not dataset._X87_LONG_DOUBLE, reason="needs x87 80-bit long double")
def test_cells_read_again_on_the_first_and_last_line_of_a_piece(monkeypatch):
    """A cell that strtold lands on a double midpoint is read again from its
    own line, on a piece's first and last line as on any other: each such
    cell is read once, and the table is np.loadtxt's, bit for bit."""
    gen = np.random.default_rng(31)
    mids = midpoint_cells(gen, 80)
    lines = [f"{mids[2 * i]},{0.5 * i!r},{mids[2 * i + 1]},{i % 2}\n" for i in range(40)]
    body = "".join(lines)
    monkeypatch.setattr(dataset, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(dataset, "_PIECE_BYTES", 5 * len(lines[0]))  # pieces of 4 to 6 lines
    read = []
    monkeypatch.setattr(dataset, "float", lambda cell: read.append(cell) or float(cell),
                        raising=False)
    tables = dataset._plain_rows(b"header\n" + body.encode(), len(b"header\n"), 4)
    expected = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    assert tables is not None and np.concatenate(tables).tobytes() == expected.tobytes()
    cells = np.fromstring(",".join(mids).encode(), dtype=np.longdouble, sep=",")
    assert ((cells.view(np.uint64)[::2] & 0x7FF) == 0x400).all()  # each one a re-read
    assert sorted(read) == sorted(cell.encode() for cell in mids)

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
        """Row k-1 of the resample matrix is the draw at stream index k, bit for bit:
        draws k*n to k*n + n - 1 of the master seed's label stream."""
        for n, n_rows in [(1, 40), (3, 40), (4, 40), (5, 40), (200, 25), (6, 400)]:
            probs = np.random.default_rng(4).uniform(size=n)
            rows = draw_label_rows(probs, 77, n_rows)
            assert rows.shape == (n_rows, n) and rows.dtype == np.int64
            stream = rng.substream(77, rng.LABELS, 0).random((n_rows + 1) * n)
            expected = np.where(stream.reshape(n_rows + 1, n)[1:] < probs, 1, -1)
            np.testing.assert_array_equal(rows, expected)
            for k in range(1, n_rows + 1):
                np.testing.assert_array_equal(rows[k - 1],
                                              lr.draw_labels(probs, lr.LabelDrawSeed(77, k)))
            np.testing.assert_array_equal(draw_label_rows(probs, 77, n_rows // 2),
                                          rows[:n_rows // 2])
        assert draw_label_rows([0.5, 0.2], 7, 0).shape == (0, 2)
        assert draw_label_rows([], 7, 3).shape == (3, 0)
        assert lr.draw_labels([], lr.LabelDrawSeed(7, 5)).shape == (0,)
        with pytest.raises(errors.ProbOutOfRange) as info:
            draw_label_rows([0.5, -0.1], 77, 3)
        assert info.value.index == 1
        with pytest.raises(ValueError):
            draw_label_rows(probs, -1, 3)
        with pytest.raises(ValueError):
            draw_label_rows([0.5, 0.2], 7, -3)

    def test_stream_zero_keeps_its_labels(self):
        """Stream index 0 is the first n draws of the label stream, as it has been
        since the seed contract was first written: these labels are pinned."""
        probs = np.linspace(0.05, 0.95, 24)
        for master, pinned in [(77, "----------+-++--++-++--+"),
                               (2**64 - 1, "-+++---++-----+---++++++")]:
            labels = lr.draw_labels(probs, lr.LabelDrawSeed(master, 0))
            assert "".join("+" if v > 0 else "-" for v in labels) == pinned
            stream = rng.substream(master, rng.LABELS, 0).random(24)
            np.testing.assert_array_equal(labels, np.where(stream < probs, 1, -1))

    def test_stream_index_past_the_64_bit_offsets(self):
        """A stream index k whose offset k*n passes 2**64 draws from that offset."""
        probs = np.random.default_rng(5).uniform(size=7)
        k = 2**64 // 3
        u = rng.point_uniforms(77, rng.LABELS, k, 1, 7)[0]
        labels = lr.draw_labels(probs, lr.LabelDrawSeed(77, k))
        np.testing.assert_array_equal(labels, np.where(u < probs, 1, -1))
        assert not np.array_equal(u, rng.point_uniforms(77, rng.LABELS, k - 1, 1, 7)[0])

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

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf")])
    def test_ridge_must_be_finite_and_non_negative(self, ridge):
        with pytest.raises(ValueError):
            lr.make_semisynthetic(np.array([[-1.0], [1.0]]), [-1, 1], ridge=ridge)

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

    @pytest.mark.parametrize("absent", [False, True], ids=["null", "absent"])
    def test_sidecar_without_label_column_reads_label(self, tmp_path, cluster_ss, absent):
        """A sidecar whose label_column is null reads the "label" column, as
        one without the key does."""
        csv_path, json_path = tmp_path / "ss.csv", tmp_path / "ss.json"
        save_semisynthetic(cluster_ss, csv_path, json_path)
        sidecar = json.loads(json_path.read_text(encoding="utf-8"))
        if absent:
            del sidecar["label_column"]
        else:
            sidecar["label_column"] = None
        json_path.write_text(json.dumps(sidecar), encoding="utf-8")
        loaded = load_semisynthetic(csv_path, json_path)
        np.testing.assert_array_equal(loaded.base.labels, cluster_ss.base.labels)


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
