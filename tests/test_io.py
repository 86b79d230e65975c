"""The artifact I/O helpers: atomic writes, the table writer and the JSON files."""

import json
import math
import os
import stat

import numpy as np
import pytest

from labelregret import _io, errors
from labelregret._io import (NUMBER, atomic_write_text, dump_json, format_float, read_json,
                             write_table)


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_file_mode_is_that_of_a_plain_open(self, tmp_path, umask, mode):
        """The written file, new or replacing one of another mode, has the
        mode that open(path, "w") gives a new file under the umask."""
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
                fh.write("a\n")
            atomic_write_text(tmp_path / "new.txt", "a\n")
            old = tmp_path / "old.txt"
            old.write_text("old\n", encoding="utf-8")
            old.chmod(0o400)
            atomic_write_text(old, "a\n")
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"plain.txt": mode, "new.txt": mode, "old.txt": mode}
        assert old.read_text(encoding="utf-8") == "a\n"


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

    def test_cells_are_format_float_text(self, tmp_path):
        """Every column that is not integer is written as format_float writes its
        entries, whatever its dtype; integer columns with str."""
        gen = np.random.default_rng(4)
        f64 = np.concatenate([[-0.0, 5e-324, 1e308, 0.1],
                              gen.standard_normal(12) * 10.0 ** gen.integers(-30, 30, 12)])
        f32 = (gen.standard_normal(16) * 10.0 ** gen.integers(-30, 30, 16)).astype(np.float32)
        columns = [f64, f32, gen.random(16) < 0.5,
                   gen.integers(-9, 9, 16), gen.integers(0, 9, 16).astype(np.uint8)]
        path = tmp_path / "t.csv"
        write_table(path, ["f64", "f32", "bool", "int", "uint"], columns)
        expected = ["f64,f32,bool,int,uint"]
        expected.extend(",".join([*map(format_float, row[:3]), *map(str, row[3:])])
                        for row in zip(*(c.tolist() for c in columns)))
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

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


def repr_text(values) -> str:
    """float.__repr__ of each double, one per line: the kernel's reference."""
    return "".join(text + "\n" for text in map(float.__repr__, values.tolist()))


def fuzz_doubles(name, gen, n) -> np.ndarray:
    """n doubles of one kind, for the table kernel's fuzz test."""
    if name == "standard normal":
        return gen.standard_normal(n)
    if name == "q-like":
        return 10.0 ** gen.uniform(-7, -3, n)
    if name == "log-uniform":
        return gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-12, 17, n)
    if name == "integers":
        return gen.integers(-10 ** 15, 10 ** 15, n) // 10.0 ** gen.integers(0, 15, n)
    if name == "short decimals":
        return gen.integers(-10 ** 6, 10 ** 6, n) / 10.0 ** gen.integers(0, 12, n)
    if name == "eighths":
        return gen.integers(-10 ** 9, 10 ** 9, n) / 8.0
    # powers of 2 and 10, their neighbours, and the format and carry boundaries
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309),
                             [1e16, 1e-4, 1e-10, 9999999999999998.0, 0.1, 0.3]])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0 ** -1022,
                        np.nextafter(2.0 ** -1022, 0.0), 1.7976931348623157e308])
    near = powers[None, :] * (1 + gen.integers(-8, 9, (n // (20 * powers.size) + 1, 1)) * 2.0 ** -52)
    carries = (10.0 - gen.integers(1, 200, n // 4) * 2.0 ** -49) * 10.0 ** gen.integers(-11, 16, n // 4)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             special, near.ravel(), carries])
    values = np.concatenate([values, -values, gen.standard_normal(n) * 10.0 ** gen.integers(-320, 300, n)])
    return values[:n] if values.size > n else values


FUZZ_KINDS = ["standard normal", "q-like", "log-uniform", "integers", "short decimals",
              "eighths", "boundaries"]


@pytest.mark.skipif(not _io._X87_LONG_DOUBLE, reason="the kernel needs x87's 80-bit long double")
class TestTableKernel:
    """write_table's vectorised formatting of large tables (_io._table_text)
    against float.__repr__ and str(int)."""

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_digits_equal_float_repr(self, kind):
        """Over the seven kinds, 5.25 million doubles, each written as
        float.__repr__ writes it."""
        gen = np.random.default_rng(FUZZ_KINDS.index(kind) + 11)
        certified = 0
        for _ in range(5):
            values = fuzz_doubles(kind, gen, 150_000)
            assert _io._table_text([values], [values]) == repr_text(values)
            certified += _io._shortest(values)[0].size
        assert certified > {"boundaries": 0.3, "log-uniform": 0.8}.get(kind, 0.9) * 750_000

    def test_cells_left_to_repr(self):
        """The kernel certifies none of the cells outside its reach: zeros,
        non-finite values, powers of two and |x| outside [1e-10, 1e16)."""
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, 2.0 ** 40, -0.125,
                           9.9e-11, 1e16, 3e17, 5e-324])
        assert _io._shortest(values)[0].size == 0
        assert _io._table_text([values], [values]) == repr_text(values)

    @pytest.mark.parametrize("rows", [2048, 5000])
    def test_mixed_tables_equal_the_repr_path(self, tmp_path, monkeypatch, rows):
        """Above the size rule, a table of int, uint, float, negative and
        special columns is written byte for byte as the per-cell path writes it."""
        gen = np.random.default_rng(rows)
        columns = [np.arange(rows), gen.integers(-2 ** 63, 2 ** 63 - 1, rows, dtype=np.int64),
                   gen.integers(0, 2 ** 64 - 1, rows, dtype=np.uint64),
                   -(10.0 ** gen.uniform(-7, -3, rows)), gen.standard_normal(rows),
                   gen.choice([0.0, -0.0, np.inf, np.nan, 0.25, 1e300, 5e-324, 1.5], rows),
                   (gen.standard_normal(rows) * 100).astype(np.float32), gen.random(rows) < 0.5]
        header = [f"c{i}" for i in range(len(columns))]
        calls = []
        table_text = _io._table_text
        monkeypatch.setattr(_io, "_table_text", lambda *a: calls.append(1) or table_text(*a))
        write_table(tmp_path / "kernel.csv", header, columns)
        monkeypatch.setattr(_io, "TABLE_KERNEL_CELLS", math.inf)
        write_table(tmp_path / "repr.csv", header, columns)
        assert calls == [1]
        expected = ",".join(header) + "\n" + "".join(
            ",".join([*map(str, row[:3]), *map(format_float, row[3:])]) + "\n"
            for row in zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "repr.csv").read_text(encoding="utf-8") == expected
        assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "repr.csv").read_bytes()

    def test_size_rule_reads_the_float_cell_count(self, tmp_path, monkeypatch):
        """A table goes to the kernel when it has at least TABLE_KERNEL_CELLS
        float cells, whatever its integer columns hold."""
        calls = []
        table_text = _io._table_text
        monkeypatch.setattr(_io, "_table_text", lambda *a: calls.append(1) or table_text(*a))
        cells = _io.TABLE_KERNEL_CELLS
        below = np.ones(cells - 1)
        write_table(tmp_path / "t.csv", ["i", "j", "x"], [np.arange(cells - 1)] * 2 + [below])
        assert calls == []
        write_table(tmp_path / "t.csv", ["x", "y"], [np.ones(cells // 2)] * 2)
        assert calls == [1]


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


def reference_json(payload) -> str:
    """The text dump_json must write: the json module's indent encoder."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_io._plain) + "\n"


JSON_PAYLOADS = {
    "non-finite and extreme floats": {
        "scalars": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 5e-324],
        "array": np.array([1.5, math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300]),
        "finite array": np.array([-0.0, 1e-300, 1e300, 0.1, 2.0 / 3.0]),
    },
    "array shapes and dtypes": {
        "empty": np.array([]), "zero-d": np.array(2.5), "two-d": np.arange(6.0).reshape(2, 3),
        "empty two-d": np.zeros((2, 0)), "int": np.arange(4), "bool": np.array([True, False]),
        "float32": np.array([0.1, 2.0], dtype=np.float32), "nan zero-d": np.array(math.nan),
    },
    "numpy scalars": {
        "float64": np.float64(0.1), "nan float64": np.float64(math.nan), "int64": np.int64(-7),
        "bool": np.bool_(True), "float32": np.float32(0.1), "uint8": np.uint8(200),
    },
    "containers and strings": {
        "tuple": (1, 2.0, "x", None, True, False), "nested": {"b": {"a": [{}, [], ()]}, "a": 1},
        "non-ascii": "héllo ☃ \U0001f600 \"q\" \\ \n\t\x00", "é key": None,
        "arrays in lists": [np.array([1.0, 2.0]), [np.array([]), np.array([math.nan])]],
    },
    "non-string keys": {"int": {2: "two", 1: [1.0]}, "float": {1.5: 2, -0.5: 3}, "bool": {True: 1}},
    "bare values": [[], {}, 1.0, "x", None, True, 7, -0.0, math.nan, (), np.array([0.25])],
}


class TestJsonWriter:
    """dump_json writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("name", list(JSON_PAYLOADS))
    def test_same_bytes_as_json_dumps(self, name, tmp_path):
        payload = JSON_PAYLOADS[name]
        for value in [payload, *(payload.values() if isinstance(payload, dict) else payload)]:
            dump_json(tmp_path / "a.json", value)
            assert (tmp_path / "a.json").read_text(encoding="utf-8") == reference_json(value)

    def test_unsortable_keys_raise_like_json_dumps(self, tmp_path):
        payload = {"a": {1: 2, "b": 3}}
        with pytest.raises(TypeError):
            reference_json(payload)
        with pytest.raises(TypeError):
            dump_json(tmp_path / "a.json", payload)
