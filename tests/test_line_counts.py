"""tools/line_counts.py puts every physical line in exactly one class."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "line_counts.py"
_spec = importlib.util.spec_from_file_location("line_counts", TOOL)
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)

SOURCE = '''"""Module docstring,

over three lines."""
# a comment line

X = 1  # code with a trailing comment
TEXT = """a string

that is not a docstring"""


def f():
    """One-line docstring."""
    return X
'''


def test_each_line_has_one_class():
    assert line_counts.count(SOURCE) == {
        "lines": 14, "code": 6, "docstring": 4, "comment": 1, "blank": 3}


def test_package_totals_add_up():
    package = TOOL.parents[1] / "src" / "labelregret"
    for path in line_counts.modules([package]):
        source = path.read_text(encoding="utf-8")
        counts = line_counts.count(source)
        assert counts["lines"] == len(source.splitlines())
        assert counts["lines"] == sum(counts[k] for k in line_counts.COLUMNS[1:])
