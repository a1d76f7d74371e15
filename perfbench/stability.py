"""Repeat the benchmark to measure its own run-to-run spread.

    python3 perfbench/stability.py --runs 10
    python3 perfbench/stability.py --runs 5 --workloads oracle_grid

Runs each workload --runs times (at least 10 for a verdict) for the
run_seconds of BENCHMARK.json, run i with seed i, workloads interleaved so
that slow drift of the machine hits all of them alike. For every end-to-end
metric it reports the median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and the regression bound the spread supports:
three times the spread, rounded up to 0.01, at least 0.05. A metric whose
spread is above a third of its bound in BENCHMARK.json is named unsteady,
and one whose spread is above that bound itself is named over its bound;
either makes the exit code 1. With --trajectory the summary, stamped like
every record, is appended as one JSON line to that file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def supported_bound(spread: float) -> float | None:
    """The smallest bound at least three times the spread; None if above MAX_BOUND."""
    bound = max(MIN_BOUND, math.ceil(300 * spread - 1e-9) / 100)
    return bound if bound <= MAX_BOUND else None


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "supported_bound": supported_bound(spread),
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: a correctness check failed")
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--trajectory", type=Path, help="append the summary to this JSONL file")
    parser.add_argument("--label", default="", help="free text stored with the trajectory entry")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {w: {} for w in args.workloads}
    for index in range(args.runs):
        for workload in args.workloads:
            result = run_once(workload, index + 1, seconds)
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print(f"run {index + 1}/{args.runs} {workload}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary, unsteady = {}, []
    for workload, metrics in samples.items():
        summary[workload] = {}
        print(f"{workload} ({args.runs} runs of {seconds} s, seeds 1..{args.runs})")
        for name, values in metrics.items():
            d = describe(values)
            d["fixed_bound"] = bounds[name]
            summary[workload][name] = d
            verdict = "steady"
            if d["spread"] > bounds[name]:
                verdict = "OVER ITS BOUND"
            elif d["spread"] > bounds[name] / 3:
                verdict = "UNSTEADY (spread above a third of its bound)"
            d["verdict"] = verdict
            if verdict != "steady":
                unsteady.append(f"{workload}/{name}")
            print(f"  {name:12s} median {d['median']:12.6g}  q1 {d['q1']:12.6g}  q3 {d['q3']:12.6g}  "
                  f"spread {d['spread']:.4f}  supports {d['supported_bound']}  fixed {bounds[name]}  {verdict}")
    if args.runs < 10:
        print(f"note: {args.runs} runs per workload; a verdict needs at least 10")
    if unsteady:
        print("unsteady: " + ", ".join(unsteady))

    if args.trajectory:
        sys.path[:0] = [str(HERE)]
        sys.path.insert(0, str(ROOT / "src"))
        from run import stamp

        entry = stamp(",".join(args.workloads), 1, seconds, 0)
        entry.update(label=args.label, runs=args.runs, metrics=summary)
        with open(args.trajectory, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
