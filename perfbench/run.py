"""Layered benchmark of the labelregret command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are made from
--seed, then its CLI calls (labelregret.cli.dispatch, in this process, one
worker) are repeated for --seconds and every output is checked. The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate, and the metrics are the
per-layer ones. The line before it is the run record (machine,
versions, BLAS pin, commit, seeds, sample counts, raw pass times).

Times are reported in reference seconds. On a shared 2-vCPU machine the
speed of the moment drifts by 20-40% over minutes, for every program alike,
so a fixed reference that uses no labelregret code is timed before and after
every measurement, and each measurement counts as its time times the
reference's nominal time over the mean of the two reference times around
it. For a pass the reference is a computation in this process
(reference_seconds); for set-up it is a fresh interpreter importing
standard-library modules. A measurement then reads the same on a slow and
on a fast machine phase, while a change to the package moves it as it moves
the raw time.
"""

import os

# BLAS is pinned to one thread before numpy loads; the pin is recorded.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 3
REFERENCE_S = 0.03  # nominal time of reference_seconds()
IMPORT_SNIPPET = f"import sys; sys.path.insert(0, {str(SRC)!r}); import labelregret.cli"
REFERENCE_IMPORT = ("import argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart, "
                    "http.server, json, logging, pathlib, typing, unittest, xml.dom.minidom")
REFERENCE_IMPORT_S = 0.18  # nominal time of a fresh interpreter running REFERENCE_IMPORT


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def interpreter_seconds(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import labelregret.cli, and the
    reference import timed before and after each.

    The in-process import that precedes this has already written the
    bytecode caches, which a user's repeated invocations also find.
    """
    times, reference = [], [interpreter_seconds(REFERENCE_IMPORT)]
    for _ in range(SETUP_REPEATS):
        times.append(interpreter_seconds(IMPORT_SNIPPET))
        reference.append(interpreter_seconds(REFERENCE_IMPORT))
    return times, reference


def in_reference_seconds(times, reference, nominal: float) -> list[float]:
    """Each time scaled by nominal over the mean of the reference times around it."""
    return [nominal * t / (0.5 * (before + after))
            for t, before, after in zip(times, reference, reference[1:])]


class _Reference:
    """Fixed inputs of reference_seconds(), made once."""

    gen = np.random.default_rng(0)
    small_x = gen.standard_normal((50, 2))
    small_y = (gen.random(50) < 0.5).astype(float)
    csv_text = "\n".join(",".join(map(repr, row))
                         for row in gen.standard_normal((400, 20)).tolist())
    tall_x = gen.standard_normal((4000, 20))


def reference_seconds() -> float:
    """Seconds for a fixed computation of the kinds of work the workloads do.

    Small Newton solves (as in a refit), float parsing of CSV text (as in
    load_csv) and a Gram matrix (as in the Hessian); no labelregret code runs.
    """
    r = _Reference
    start = time.perf_counter()
    for _ in range(60):
        theta = np.zeros(2)
        for _ in range(6):
            p = 0.5 * (1.0 + np.tanh(0.5 * (r.small_x @ theta)))
            hessian = r.small_x.T @ (r.small_x * (p * (1.0 - p))[:, None]) + 1e-3 * np.eye(2)
            theta += np.linalg.solve(hessian, r.small_x.T @ (r.small_y - p))
    for _ in range(3):
        [[float(v) for v in line.split(",")] for line in r.csv_text.split("\n")]
    for _ in range(5):
        r.tall_x.T @ r.tall_x
    return time.perf_counter() - start


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload and counts CLI invocations and failures."""

    def __init__(self, workload, cli, out_dir: Path):
        self.workload, self.cli, self.out_dir = workload, cli, out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self):
        """Wall time of one pass, or None when an invocation failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        ok = True
        sink = io.StringIO()
        start = time.perf_counter()
        for argv in self.workload.passes(str(self.out_dir)):
            self.attempted += 1
            try:
                with contextlib.redirect_stdout(sink):
                    code = self.cli.dispatch(argv)
            except Exception as exc:  # a traceback is a failed invocation, not a crash
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                self.failed += 1
                ok = False
                self.problems.append(f"{argv[0]} exited with {code}")
        wall = time.perf_counter() - start
        return wall if ok else None

    def checked_pass(self, expected_digest: str):
        """Wall time of one pass whose output matches the checked pass, else None."""
        wall = self.one_pass()
        if wall is not None and digest(self.out_dir) != expected_digest:
            self.failed += 1
            self.problems.append("a pass wrote output different from the checked pass")
            return None
        return wall

    @staticmethod
    def repeat(seconds: float, measure) -> list:
        """Results of measure() repeated for `seconds` (at least MIN_PASSES times).

        Stops at the first None, which marks a failed pass and an incorrect run.
        """
        results = []
        start = time.perf_counter()
        while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
            result = measure()
            if result is None:
                break
            results.append(result)
        return results


def machine_record():
    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_simd": np.__config__.CONFIG["SIMD Extensions"]["found"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
    }


def layer_metrics(per_pass: list[dict], pairs: list[tuple[float, float]]):
    """Per-layer values of the fastest traced pass (the one trace.wall_s reports).

    Only the fit-time percentiles pool every traced pass. The tracing cost is
    the median over adjacent (untraced, traced) pass pairs, so both sides of
    each ratio see the same phase of the machine.
    """
    traced = [t for _, t in pairs]
    fastest = int(np.argmin(traced))
    stats, counters = per_pass[fastest]["stats"], per_pass[fastest]["counters"]
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
    fit = "glm.fit_logistic"
    fit_us = np.concatenate([p["durations"][fit] for p in per_pass]) * 1e6
    out[f"{fit}.p50_us"] = float(np.percentile(fit_us, 50)) if fit_us.size else 0.0
    out[f"{fit}.p99_us"] = float(np.percentile(fit_us, 99)) if fit_us.size else 0.0
    out[f"{fit}.failed"] = stats[fit]["failed"]
    out[f"{fit}.failed_s"] = stats[fit]["failed_s"]
    for counter in ("glm.fit_logistic.newton_steps", "dataset.load_csv.rows",
                    "io.atomic_write_text.bytes", "regret.refits",
                    "regret.fallback_refits"):
        out[counter] = counters.get(counter, 0.0)
    refits = out["regret.refits"]
    out["regret.fallback_share"] = out["regret.fallback_refits"] / refits if refits else 0.0
    fits = out[f"{fit}.calls"]
    out["regret.fit_yield"] = refits / fits if fits else 0.0
    out["trace.wall_s"] = traced[fastest]
    out["trace.overhead_frac"] = float(statistics.median(t / u for u, t in pairs)) - 1.0
    layers = sum(s["self_s"] for name, s in stats.items() if name != "cli.dispatch")
    out["trace.attributed_frac"] = layers / traced[fastest]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "labelregret" / "cli.py").is_file():
        print(f"no labelregret sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, str(SRC))
    import labelregret.cli as cli

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return run(args, cli, work, end_to_end, per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, work: Path, end_to_end: dict, per_layer: dict) -> int:
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, str(work / "inputs"))
    setup, setup_reference = measure_setup()
    runner = Runner(workload, cli, work / "out")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": workload.inputs, **machine_record(),
              "setup_samples_s": setup, "setup_reference_s": setup_reference}
    metrics = {}
    # The first pass is untimed: its output is checked against the oracle and
    # every timed pass must reproduce it byte for byte.
    if runner.one_pass() is not None:
        try:
            out = workload.read(str(runner.out_dir))
            problems = workload.check(out)
            for label, damaged in workload.corruptions(out).items():
                if not workload.check(damaged):
                    problems.append(f"check accepted a corrupted output ({label})")
            refits = workload.refits(out)
        except Exception as exc:  # unreadable output fails the run, it does not crash it
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        runner.problems.extend(problems)
        runner.failed += bool(problems)
    if runner.failed == 0 and args.trace == 0:
        expected = digest(runner.out_dir)
        reference = [reference_seconds()]

        def referenced_pass():
            wall = runner.checked_pass(expected)
            if wall is not None:
                reference.append(reference_seconds())
            return wall

        walls = runner.repeat(args.seconds, referenced_pass)
        record.update(pass_wall_s=walls, reference_s=reference)
        if runner.failed == 0:
            wall = float(statistics.median(in_reference_seconds(walls, reference, REFERENCE_S)))
            values = {
                "wall_s": wall,
                "refits_per_s": refits / wall,
                "setup_s": float(statistics.median(
                    in_reference_seconds(setup, setup_reference, REFERENCE_IMPORT_S))),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in end_to_end.items()}
    elif runner.failed == 0:
        expected = digest(runner.out_dir)
        tracer = Tracer()
        per_pass, rows = [], []

        def traced_pass():
            tracer.install()
            try:
                wall = runner.checked_pass(expected)
            finally:
                tracer.uninstall()
            if wall is not None:
                per_pass.append(tracer.pass_stats())
                rows.extend(tracer.span_rows(len(per_pass) - 1))
            tracer.reset()
            return wall

        def pair():
            """(untraced, traced) wall times of two adjacent passes; the order alternates."""
            walls = {}
            for traced in ((True, False) if len(per_pass) % 2 else (False, True)):
                walls[traced] = traced_pass() if traced else runner.checked_pass(expected)
                if walls[traced] is None:
                    return None
            return walls[False], walls[True]

        pairs = runner.repeat(args.seconds, pair)
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("pass,span,parent,name,start,end,failed\n"
                              + "\n".join(rows) + "\n")
        record.update(pass_wall_s=[u for u, _ in pairs],
                      traced_pass_wall_s=[t for _, t in pairs],
                      spans=str(spans_path.relative_to(ROOT)))
        if runner.failed == 0:  # per_pass lines up with pairs only when no pass failed
            values = layer_metrics(per_pass, pairs)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in per_layer.items()}

    correct = runner.failed == 0
    record["problems"] = runner.problems
    record["run_s"] = time.perf_counter() - started
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
