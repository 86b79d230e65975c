"""The artifact I/O helpers: atomic writes, the table writer and the JSON files."""

import json

import numpy as np
import pytest

from labelregret import errors
from labelregret._io import NUMBER, atomic_write_text, dump_json, read_json, write_table


class TestAtomicWrite:
    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "a,b\n1,\ud800\n")  # lone surrogate: not UTF-8
        assert target.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_creates_no_target(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(tmp_path / "new.txt", "\ud800")
        assert list(tmp_path.iterdir()) == []


def read_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), list(zip(*(line.split(",") for line in lines[1:])))


class TestWriteTable:
    def test_float_columns_round_trip_bit_for_bit(self, tmp_path):
        gen = np.random.default_rng(3)
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3,
                            2.0 ** -1074, np.nextafter(1.0, 2.0)])
        floats = np.concatenate([special, gen.standard_normal(40) * 10.0 ** gen.integers(-300, 300, 40)])
        path = tmp_path / "t.csv"
        write_table(path, ["x", "neg"], [floats, -floats])
        header, (x, neg) = read_columns(path)
        assert header == ["x", "neg"]
        for column, expected in ((x, floats), (neg, -floats)):
            parsed = np.array([float(cell) for cell in column])
            np.testing.assert_array_equal(parsed.view(np.uint64), expected.view(np.uint64))

    def test_int_columns_round_trip(self, tmp_path):
        ints = np.array([0, -1, 1, 7, -(2 ** 62), 2 ** 62], dtype=np.int64)
        path = tmp_path / "t.csv"
        write_table(path, ["i", "u"], [ints, np.arange(ints.size, dtype=np.uint64)])
        _, (i, u) = read_columns(path)
        assert [int(cell) for cell in i] == ints.tolist()
        assert list(u) == ["0", "1", "2", "3", "4", "5"]  # str(int), never "0.0"

    def test_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["point_index", "q"], [np.arange(2), np.array([0.5, 2.0])])
        assert path.read_bytes() == b"point_index,q\n0,0.5\n1,2.0\n"

    @pytest.mark.parametrize("header, columns", [
        (["a", "b"], [np.ones(3), np.ones(2)]),
        (["a"], [np.ones(3), np.ones(3)]),
    ])
    def test_malformed_table_rejected(self, tmp_path, header, columns):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", header, columns)
        assert list(tmp_path.iterdir()) == []


class TestJson:
    def test_numpy_array_written_as_list_of_floats(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e308, 0.1, -2.5])
        dump_json(tmp_path / "a.json", {"v": values, "n": np.int64(3)})
        dump_json(tmp_path / "b.json", {"v": [float(v) for v in values], "n": 3})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "a.json", {"v": object()})

    def test_read_checks_schema(self, tmp_path):
        schema = {"theta": [NUMBER], "seed": {"master_seed": int}, "ridge": (*NUMBER, type(None))}
        path = tmp_path / "in.json"
        good = {"theta": [1, 2.5], "seed": {"master_seed": 4}, "extra": "kept"}
        path.write_text(json.dumps(good), encoding="utf-8")
        assert read_json(path, schema) == good

    @pytest.mark.parametrize("text, key", [
        ("5", None),
        ("[1, 2]", None),
        ("{not json", None),
        ('{"seed": {"master_seed": 1}}', "'theta'"),
        ('{"theta": [1, "a"], "seed": {"master_seed": 1}}', "'theta[1]'"),
        ('{"theta": [true], "seed": {"master_seed": 1}}', "'theta[0]'"),
        ('{"theta": [], "seed": 5}', "'seed'"),
        ('{"theta": [], "seed": {}}', "'seed.master_seed'"),
        ('{"theta": [], "seed": {"master_seed": 1.5}}', "'seed.master_seed'"),
        ('{"theta": [], "seed": {"master_seed": 1}, "ridge": "x"}', "'ridge'"),
    ])
    def test_bad_file_names_file_and_key(self, tmp_path, text, key):
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        schema = {"theta": [NUMBER], "seed": {"master_seed": int}, "ridge": (*NUMBER, type(None))}
        with pytest.raises(errors.BadJsonFile) as info:
            read_json(path, schema)
        message = str(info.value)
        assert message.startswith(str(path))
        assert key is None or key in message
