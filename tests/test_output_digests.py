"""tools/output_digests.py digests what a run writes, not where it writes it,
and the runs it pins, and the large-CSV run theory_large seed=1, give the
outputs that tests/output_digests.json records, the latter at one and at two
BLAS threads alike."""

import functools
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
TOOL = TESTS.parent / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", TOOL)
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)
PINNED_FILE = TESTS / "output_digests.json"


def test_digest_ignores_the_directory_and_sees_one_byte(tmp_path):
    digests = []
    for name in ("a", "bb"):
        run_dir = tmp_path / name
        codes, stdout = output_digests.run_lines(
            output_digests.workload_lines("enum_gray", 1, run_dir))
        assert codes == [0, 0] and str(run_dir) in stdout
        digests.append(output_digests.digest(run_dir, codes, stdout))
    assert digests[0] == digests[1]
    table = run_dir / "out" / "set0" / "enumeration.csv"
    raw = bytearray(table.read_bytes())
    raw[-2] ^= 1
    table.write_bytes(bytes(raw))
    assert output_digests.digest(run_dir, codes, stdout) != digests[0]


def test_pinned_runs_give_the_recorded_outputs():
    """A versioned change to the outputs rewrites the file with
    `python tools/output_digests.py --write tests/output_digests.json`."""
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    reason = output_digests.skip_reason(pinned)
    if reason:
        pytest.skip(reason)
    lines = []
    for label, kept in output_digests.run_records(pinned["seeds"], output_digests.PINNED):
        assert "numbers" in pinned["runs"][label], label
        lines += [f"{label}: {line}"
                  for line in output_digests.differences(pinned["runs"][label], kept)]
    assert not lines, f"outputs differ from {PINNED_FILE.name}:\n" + "\n".join(lines)


# Prints the record of one run at one seed, made in a fresh interpreter that
# loads numpy, with the BLAS thread count its environment sets, before the tool
# sets its one-thread pin.
RUN_ONE = """import numpy, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("output_digests", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
for _, run in tool.run_records([int(sys.argv[3])], {sys.argv[2]}):
    print(json.dumps(run))
"""
LARGE = "theory_large seed=1"


@functools.cache
def large_run(threads: int) -> dict:
    """The record of LARGE, made in a fresh interpreter on threads OpenBLAS threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-c", RUN_ONE, str(TOOL), LARGE, "1"], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_large_csv_run_gives_the_recorded_files():
    """theory_large seed=1 loads a 10,000-row CSV twice through the plain
    parse, with its midpoint re-read and helper thread, and writes
    theory.csv through _io's table kernel. Its file hashes are recorded,
    its numbers are not (about 270 KB). It runs in a fresh interpreter on
    one BLAS thread, the tool's pin."""
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    reason = output_digests.skip_reason(pinned)
    if reason:
        pytest.skip(reason)
    lines = output_digests.differences(pinned["runs"][LARGE], large_run(1))
    assert not lines, f"{LARGE} differs from {PINNED_FILE.name}:\n" + "\n".join(lines)


def test_large_csv_run_does_not_depend_on_the_blas_thread_count():
    """The fit and the closed form of a 10,000 x 21 design give the same bits
    on one and on two OpenBLAS threads, because glm forms each weighted Gram
    matrix that a BLAS call reduces over the points as S'S, a syrk. The
    digests are compared, as the files record the run's directory."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread whatever the setting")
    assert large_run(1)["digest"] == large_run(2)["digest"]


def test_another_platform_is_a_skip_reason():
    here = output_digests.environment()
    assert output_digests.skip_reason(here) is None
    reason = output_digests.skip_reason({**here, "numpy": "0.0"})
    assert "numpy 0.0" in reason and f"numpy {here['numpy']}" in reason
    reason = output_digests.skip_reason({**here, "cpu_simd": ["X86_V2"]})
    assert "cpu_simd ['X86_V2']" in reason
    assert "blas None" in output_digests.skip_reason(
        {key: value for key, value in here.items() if key != "blas"})
    assert output_digests.skip_reason({**here, "blas_pin": {"OPENBLAS_NUM_THREADS": "2"}}) is None


def test_the_file_records_the_blas_pin():
    pinned = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    assert pinned["blas_pin"] == output_digests.BLAS_PIN
    assert all(value == "1" for value in output_digests.BLAS_PIN.values())


def test_a_difference_names_the_file_and_the_largest_numeric_difference():
    expected = {"exit": [0], "files": {"a.csv": "1", "b.json": "2", "c.csv": "3"},
                "numbers": {"a.csv": "1 2.5 -3", "b.json": "7"}}
    actual = {"exit": [1], "files": {"a.csv": "4", "b.json": "2", "c.csv": "5"},
              "numbers": {"a.csv": "1 2.5000001 -3.5", "b.json": "7", "c.csv": "0"}}
    assert output_digests.differences(expected, actual) == [
        "exit codes [0] -> [1]",
        "a.csv: largest numeric difference 0.5 (number 3 of 3: -3.0 -> -3.5)",
        "c.csv: differs (its numbers are not recorded)"]
