"""Print one SHA-256 per command-line run, to check that a change leaves outputs alone.

    python tools/output_digests.py [--seeds 1,2,3] [--write FILE | --check FILE]

Run from the root of a source checkout; the package comes from its src/. The
runs are one pass of every benchmark workload of perfbench/workloads.py at each
seed, desk `trials --seed 5` of each experiment, and every other command at
seed 5 on a 12-point CSV made with numpy's own generator. Each run writes into a
fresh temporary directory outside the checkout, by labelregret.cli.dispatch in
this process, with BLAS pinned to one thread as in perfbench/run.py. Its digest
covers the exit codes, stdout and every file the run writes (paths relative
to the run's output directory), after the run's directory is replaced by
TOKEN, so that the input and output paths the outputs record do not matter.
Equal digests at two revisions mean byte-identical outputs.

--write FILE also records, in JSON, the Python and numpy versions,
platform.machine(), numpy's BLAS build and the SIMD extensions numpy found on
the CPU, and for each run its digest, its exit codes, the SHA-256 of stdout
and of each file, and for the PINNED runs the numbers in each of those texts.
--check FILE runs the seeds that FILE records and compares: it names each run
and file that differ and, where FILE holds the numbers, the largest
difference between them. It exits 1 on a difference, and 2, without running,
when the versions, the machine, the BLAS build or the SIMD extensions differ
from FILE's, because the outputs depend on numpy's and the BLAS's rounding. A
versioned change to the outputs rewrites FILE with --write.
tests/test_output_digests.py re-runs the PINNED runs against tests/output_digests.json,
and theory_large seed=1, whose numbers are not recorded, in a fresh interpreter
against its file hashes.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import labelregret.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOKEN = b"<RUN>"
EXPERIMENTS = ("theory_vs_actual", "selective", "active")
# The runs whose numbers --write records, and which the tests re-run: about
# 0.2 s together, through every command, the label streams, the ridge rung,
# the tie rule and the trials summary. The large-CSV paths (the plain parse,
# its midpoint re-read and helper thread, and the table kernel) are checked
# by the tests' run of theory_large seed=1, against its file hashes alone.
PINNED = ("mc_trials seed=1", "enum_gray seed=1", "mc_separable seed=1", "commands seed=5")
STDOUT = "(stdout)"
# A number as the package writes it, in JSON or CSV, and not part of a word.
NUMBER = re.compile(
    rb"(?<![\w.])-?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|Infinity|NaN|inf|nan)(?![\w.])")


def run_lines(argvs) -> tuple[list, str]:
    """Exit codes and captured stdout of dispatching each argument list in turn."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        codes = [cli.dispatch(argv) for argv in argvs]
    return codes, sink.getvalue()


def outputs(run_dir: Path, stdout: str) -> dict:
    """stdout and every file of run_dir/out by relative path, with run_dir masked."""
    mask = str(run_dir).encode()
    out = run_dir / "out"
    texts = {STDOUT: stdout.encode()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        texts[path.relative_to(out).as_posix()] = path.read_bytes()
    return {name: text.replace(mask, TOKEN) for name, text in texts.items()}


def digest(run_dir: Path, codes, stdout: str) -> str:
    """SHA-256 of one run in run_dir, whose output directory is run_dir/out."""
    return _digest(codes, outputs(run_dir, stdout))


def _digest(codes, texts: dict) -> str:
    h = hashlib.sha256()
    h.update(f"exit {codes}\n".encode())
    for name, text in texts.items():
        if name != STDOUT:
            h.update(b"\0" + name.encode() + b"\0")
        h.update(text)
    return h.hexdigest()


def record(run_dir: Path, codes, stdout: str) -> dict:
    """One run's digest, exit codes, and the SHA-256 and numbers of each text."""
    texts = outputs(run_dir, stdout)
    return {"digest": _digest(codes, texts), "exit": codes,
            "files": {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()},
            "numbers": {name: b" ".join(NUMBER.findall(text)).decode()
                        for name, text in texts.items()}}


def differences(expected: dict, actual: dict) -> list:
    """One line for each way the record actual differs from expected; actual
    holds its numbers."""
    lines = [] if expected["exit"] == actual["exit"] else [
        f"exit codes {expected['exit']} -> {actual['exit']}"]
    known = expected.get("numbers", {})
    for name in sorted(expected["files"].keys() | actual["files"].keys()):
        old, new = expected["files"].get(name), actual["files"].get(name)
        if old != new:
            change = ("missing" if new is None else "new" if old is None
                      else _largest_difference(known.get(name), actual["numbers"][name]))
            lines.append(f"{name}: {change}")
    return lines


def _largest_difference(old, new) -> str:
    if old is None:
        return "differs (its numbers are not recorded)"
    a, b = (np.array(text.split(), dtype=float) for text in (old, new))
    if a.size != b.size:
        return f"differs, {a.size} -> {b.size} numbers"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return "differs in its text, not in its numbers"
    gap = np.nan_to_num(np.abs(a - b), nan=np.inf)
    i = int(np.argmax(np.where(same, 0.0, gap)))
    return (f"largest numeric difference {gap[i]:.3g} "
            f"(number {i + 1} of {a.size}: {a[i].item()!r} -> {b[i].item()!r})")


def environment() -> dict:
    """What the outputs' rounding depends on, as --write records it: the
    versions, the machine, and the BLAS build and the CPU's SIMD extensions
    as perfbench/run.py records them. An OpenBLAS built with DYNAMIC_ARCH picks
    its kernels by the CPU, so one machine name can round two ways."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_simd": np.__config__.CONFIG["SIMD Extensions"]["found"]}


def skip_reason(pinned: dict):
    """Why outputs recorded as pinned cannot be compared here, or None."""
    here = environment()
    if all(pinned.get(key) == here[key] for key in here):
        return None
    return ("outputs recorded on " + ", ".join(f"{k} {pinned.get(k)}" for k in here)
            + "; this is " + ", ".join(f"{k} {v}" for k, v in here.items()))


def workload_lines(name: str, seed: int, run_dir: Path) -> list:
    """The workload's inputs, made under run_dir/inputs, and one pass's command lines."""
    (run_dir / "inputs").mkdir(parents=True)
    return WORKLOADS[name](seed, str(run_dir / "inputs")).passes(str(run_dir / "out"))


def trials_lines(experiment: str, run_dir: Path) -> list:
    return [["trials", "--experiment", experiment, "--profile", "desk", "--seed", "5",
             "--out", str(run_dir / "out")]]


def command_lines(run_dir: Path) -> list:
    """Each command but trials at seed 5, on a 12-point, 2-feature CSV made in
    run_dir/inputs, with selective, active and true-regret on its semisynth."""
    (run_dir / "inputs").mkdir(parents=True)
    gen = np.random.default_rng(5)
    x = gen.standard_normal((12, 2))
    y = gen.random(12) < 1.0 / (1.0 + np.exp(x @ [-1.0, 0.5]))
    data = run_dir / "inputs" / "data.csv"
    data.write_text("x0,x1,label\n" + "".join(f"{a!r},{b!r},{int(c)}\n"
                                              for (a, b), c in zip(x.tolist(), y.tolist())))
    semisynth = str(run_dir / "out" / "semisynth")
    lines = [["fit", "--data", str(data)], ["theory", "--data", str(data)],
             ["regret", "--data", str(data), "--k", "30"], ["enumerate", "--data", str(data)],
             ["semisynth", "--data", str(data)],
             ["true-regret", "--semisynth", semisynth, "--k", "30"],
             ["selective", "--semisynth", semisynth, "--k", "30"],
             ["active", "--semisynth", semisynth, "--k", "30", "--n-batches", "3"]]
    return [[*line, "--seed", "5", "--out", str(run_dir / "out" / line[0])] for line in lines]


def runs(seeds):
    """(label, function of a run directory returning the run's command lines)."""
    for name in WORKLOADS:
        for seed in seeds:
            yield f"{name} seed={seed}", functools.partial(workload_lines, name, seed)
    for experiment in EXPERIMENTS:
        yield f"trials {experiment} desk seed=5", functools.partial(trials_lines, experiment)
    yield "commands seed=5", command_lines


def run_records(seeds, labels=None):
    """(label, record) of each run at seeds, or of those in labels."""
    top = Path(tempfile.mkdtemp(prefix="output-digests-"))
    try:
        for i, (label, lines) in enumerate(runs(seeds)):
            if labels is None or label in labels:
                run_dir = top / f"run{i}"
                run_dir.mkdir()
                codes, stdout = run_lines(lines(run_dir))
                yield label, record(run_dir, codes, stdout)
    finally:
        shutil.rmtree(top, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated workload seeds (default 1,2,3)")
    to_file = parser.add_mutually_exclusive_group()
    to_file.add_argument("--write", metavar="FILE", help="record the runs in FILE")
    to_file.add_argument("--check", metavar="FILE",
                         help="compare the runs with FILE, at the seeds it records")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            pinned = json.load(fh)
        reason = skip_reason(pinned)
        if reason:
            print(f"not checked: {reason}")
            return 2
        seeds = pinned["seeds"]
    recorded, differ = {}, False
    for label, run in run_records(seeds):
        failed = f"  exit codes {run['exit']}" if any(run["exit"]) else ""
        print(f"{run['digest']}  {label}{failed}", flush=True)
        if args.check:
            expected = pinned["runs"].get(label)
            lines = ["not recorded"] if expected is None else differences(expected, run)
            differ |= bool(lines)
            for line in lines:
                print(f"    {label}: {line}", flush=True)
        if label not in PINNED:
            del run["numbers"]
        recorded[label] = run
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump({**environment(), "seeds": seeds, "runs": recorded}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
