"""Run every workload of BENCHMARK.json and print each metric by name and unit.

    python3 perfbench/report.py [--seeds 1,2,3] [--write FILE]

Each seed gets one untraced run per workload of run_seconds, each in a fresh
process; the first seed also gets one traced run. The table shows, for every
end-to-end metric, the median over seeds, the quartile spread as a share of
the median and the metric's bound; a spread above its bound is marked
UNRESOLVED, since that metric cannot then tell a regression of the bound's
size from noise, and the exit code is 1. --write stores the results, the run
records and each workload's per-layer share of the traced wall time as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["record"]}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_shares(per_layer: dict) -> dict:
    """Self time of each wrapped function as a share of the traced pass wall time."""
    wall = per_layer["trace.wall_s"]["value"]
    return {name[:-len(".self_s")]: m["value"] / wall
            for name, m in per_layer.items() if name.endswith(".self_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--write", default=None, help="JSON file for the results")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, unresolved = {}, []
    print(f"{'workload':<14} {'metric':<14} {'median':>14} {'unit':<6} "
          f"{'spread':>7} {'bound':>6}  runs", flush=True)
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = run_once(name, seeds[0], seconds, 1)
        broken = [r for r in runs + [traced] if not r["result"]["correct"]]
        for r in broken:
            print(f"{name:<14} seed {r['record']['seed']} trace {r['record']['trace']} "
                  f"incorrect: {r['record']['problems']}", flush=True)
        if broken:
            results[name] = {"correct": False, "records": [r["record"] for r in broken]}
            continue
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            end_to_end[metric] = {"unit": runs[0]["result"]["metrics"][metric]["unit"],
                                  "bound": bound, **spread(values)}
            s = end_to_end[metric]
            s["resolved"] = s["spread"] <= bound
            if not s["resolved"]:
                unresolved.append(f"{name} {metric}")
            print(f"{name:<14} {metric:<14} {s['median']:>14.6g} {s['unit']:<6} "
                  f"{s['spread']:>7.4f} {bound:>6}  {len(values)}"
                  f"{'' if s['resolved'] else '  UNRESOLVED'}", flush=True)
        all_runs = runs + [traced]
        results[name] = {
            "correct": all(r["result"]["correct"] for r in all_runs),
            "attempted": sum(r["result"]["attempted"] for r in all_runs),
            "failed": sum(r["result"]["failed"] for r in all_runs),
            "seeds": seeds,
            "end_to_end": end_to_end,
            "per_layer": traced["result"]["metrics"],
            "layer_share_of_wall": layer_shares(traced["result"]["metrics"]),
            "records": [r["record"] for r in all_runs],
        }
        print(f"{name:<14} correct={results[name]['correct']} "
              f"failed={results[name]['failed']}/{results[name]['attempted']} "
              f"trace.overhead_frac="
              f"{traced['result']['metrics']['trace.overhead_frac']['value']:.4f}",
              flush=True)
    if args.write:
        payload = {"run_seconds": seconds, "unresolved": unresolved, "workloads": results}
        Path(args.write).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if unresolved:
        print("spread above bound: " + ", ".join(unresolved), flush=True)
    return 0 if all(r["correct"] for r in results.values()) and not unresolved else 1


if __name__ == "__main__":
    sys.exit(main())
