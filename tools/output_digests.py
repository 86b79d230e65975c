"""Print one SHA-256 per command-line run, to check that a change leaves outputs alone.

    python tools/output_digests.py [--seeds 1,2,3]

Run from the root of a source checkout; the package comes from its src/. The
runs are one pass of every benchmark workload of perfbench/workloads.py at each
seed, and desk `trials --seed 5` of each experiment. Each run writes into a
fresh temporary directory outside the checkout, by labelregret.cli.dispatch in
this process, with BLAS pinned to one thread as in perfbench/run.py. Its digest
covers the exit codes, stdout and every file the run writes (paths relative
to the run's output directory), after the run's directory is replaced by
TOKEN, so that the input and output paths the outputs record do not matter.
Equal digests at two revisions mean byte-identical outputs.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import labelregret.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOKEN = b"<RUN>"
EXPERIMENTS = ("theory_vs_actual", "selective", "active")


def run_lines(argvs) -> tuple[list, str]:
    """Exit codes and captured stdout of dispatching each argument list in turn."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        codes = [cli.dispatch(argv) for argv in argvs]
    return codes, sink.getvalue()


def digest(run_dir: Path, codes, stdout: str) -> str:
    """SHA-256 of one run in run_dir, whose output directory is run_dir/out."""
    h = hashlib.sha256()
    mask = str(run_dir).encode()
    h.update(f"exit {codes}\n".encode())
    h.update(stdout.encode().replace(mask, TOKEN))
    out = run_dir / "out"
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(b"\0" + path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes().replace(mask, TOKEN))
    return h.hexdigest()


def workload_lines(name: str, seed: int, run_dir: Path) -> list:
    """The workload's inputs, made under run_dir/inputs, and one pass's command lines."""
    (run_dir / "inputs").mkdir(parents=True)
    return WORKLOADS[name](seed, str(run_dir / "inputs")).passes(str(run_dir / "out"))


def trials_lines(experiment: str, run_dir: Path) -> list:
    return [["trials", "--experiment", experiment, "--profile", "desk", "--seed", "5",
             "--out", str(run_dir / "out")]]


def runs(seeds):
    """(label, function of a run directory returning the run's command lines)."""
    for name in WORKLOADS:
        for seed in seeds:
            yield f"{name} seed={seed}", functools.partial(workload_lines, name, seed)
    for experiment in EXPERIMENTS:
        yield f"trials {experiment} desk seed=5", functools.partial(trials_lines, experiment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated workload seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    top = Path(tempfile.mkdtemp(prefix="output-digests-"))
    try:
        for i, (label, lines) in enumerate(runs(seeds)):
            run_dir = top / f"run{i}"
            run_dir.mkdir()
            codes, stdout = run_lines(lines(run_dir))
            failed = f"  exit codes {codes}" if any(codes) else ""
            print(f"{digest(run_dir, codes, stdout)}  {label}{failed}", flush=True)
    finally:
        shutil.rmtree(top, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
