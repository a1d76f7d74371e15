"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload oracle_grid --seed 1 --seconds 30 --trace 0

Runs the workload as a closed loop with one client: the next op starts when
the previous one has finished, in whole cycles of its strata, until
--seconds have passed. Every op's output is checked outside its timing.
Prints each metric by name and unit, one stamped record line, and last a
JSON line {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every check passed.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run that
records spans around every call into the package and reports the per-layer
metrics (see summarize.py); its timings are never used as end-to-end
numbers. Everything is written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 15
PAIRED_OPS = 2

# name -> unit of the end-to-end metrics, in BENCHMARK.json order
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package() -> None:
    """Import the package from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "aoi_secrecy" / "__init__.py").is_file():
        raise ImportError(f"no aoi_secrecy package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import aoi_secrecy

    if Path(aoi_secrecy.__file__).resolve().parent != (src / "aoi_secrecy").resolve():
        raise ImportError(f"aoi_secrecy imported from {aoi_secrecy.__file__}, not {src}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The latency at the highest percentile with at least 10 samples beyond
    it: (value, percentile, samples beyond). With 10 or fewer samples it is
    the maximum, with fewer than 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from workloads import nproc

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Runs ops, times them and counts attempts and failures."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, workload, index: int, kind: str = "own", tracer=None) -> float:
        """One timed op plus its check; returns its wall seconds. Only
        "own" ops count toward the latency and CPU figures."""
        tracer = self.tracer if tracer is None else tracer
        item = workload.item(index)
        cycle = index // len(workload.cycle)
        with tracer.span("op", workload=workload.name, kind=kind, index=index, cycle=cycle) as root:
            op_id = tracer.current()
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                result = workload.run(item, tracer)
                error = None
            except Exception:
                result, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
        errors = [error] if error else []
        if result is not None:
            with tracer.span("check", parent=op_id):
                try:
                    errors += workload.check(item, result, tracer)
                    if tracer.enabled and not errors:
                        workload.trace_extra(item, result, tracer, root)
                except Exception:
                    errors.append(traceback.format_exc())
        self.attempted += 1
        if kind == "own":
            self.latencies.append(elapsed)
            self.cpu += cpu
        if errors:
            root["failed"] = True
            self.failed += 1
            self.errors += errors
        return elapsed

    def cycles(self, workload, seconds: float, between=None) -> None:
        """Whole cycles of the workload's strata until `seconds` have passed.
        between(share of `seconds` elapsed), if given, runs after every
        cycle but the last, outside the timed ops."""
        index = 0
        start = time.perf_counter()
        while True:
            for _ in workload.cycle:
                self.op(workload, index)
                index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return
            if between is not None:
                between(elapsed / seconds)

    def paired_overhead(self, workload) -> dict[str, float]:
        """Wall time of the first PAIRED_OPS ops run both untraced and
        traced, alternating which goes first."""
        from tracing import NULL

        totals = {True: 0.0, False: 0.0}
        for index in range(PAIRED_OPS):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                tracer = self.tracer if traced else NULL
                totals[traced] += self.op(workload, index, kind="paired", tracer=tracer)
        return {"trace.traced_ms": 1e3 * totals[True], "trace.untraced_ms": 1e3 * totals[False]}


class SetupTimer:
    """Times SETUP_PROCESSES fresh interpreters, each from its start to the
    point where the workload's first op would start. The samples are spread
    over the run, taken between cycles, so that the median averages the
    machine's drift over the run instead of catching one moment of it."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--setup-only"]
        self.samples: list[float] = []

    def sample_until(self, share: float) -> None:
        """Take samples until round(share * SETUP_PROCESSES) are taken."""
        while len(self.samples) < round(min(share, 1.0) * SETUP_PROCESSES):
            start = time.perf_counter()
            child = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True)
            try:
                line = child.stdout.readline()
                self.samples.append(time.perf_counter() - start)
                child.stdout.read()
            finally:
                child.stdout.close()
                code = child.wait(timeout=60)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"setup process {self.argv} failed with exit code {code}")

    def median(self) -> float:
        self.sample_until(1.0)
        return statistics.median(self.samples)


def end_to_end(loop: Loop, setup_s: float) -> tuple[dict, str]:
    n = len(loop.latencies)
    value, percentile, beyond = tail(loop.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(loop.latencies),
        "op_p50_ms": 1e3 * statistics.median(loop.latencies),
        "op_tail_ms": 1e3 * value,
        "op_cpu_ms": 1e3 * loop.cpu / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"p{percentile:.1f} of {n} ops, {beyond} beyond"
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    try:
        load_package()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload](ROOT, args.seed)
    except (ImportError, OSError) as err:
        print(f"error: cannot set up the benchmark: {err}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload.close()
        print("ready", flush=True)
        return 0

    from tracing import NULL, Tracer

    tracer = Tracer() if args.trace else NULL
    loop = Loop(tracer)
    setup = None if args.trace else SetupTimer(args.workload, args.seed)
    try:
        loop.cycles(workload, args.seconds, None if setup is None else setup.sample_until)
        loop.errors += workload.finish()
        if args.trace:
            tracer.values.update(loop.paired_overhead(workload))
            for name, other in WORKLOADS.items():
                if name != args.workload:
                    reference = other(ROOT, args.seed)
                    try:
                        loop.op(reference, reference.reference_index, kind="reference")
                    finally:
                        reference.close()
    finally:
        workload.close()
    correct = loop.failed == 0 and not loop.errors
    for error in loop.errors:
        print(error, file=sys.stderr)

    record = stamp(args.workload, args.seed, args.seconds, args.trace)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    attempted = loop.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        from probes import run_probes
        from summarize import layer_metrics, report

        tracer.values.update(run_probes(ROOT, args.seed))
        dump_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        dump = tracer.dump(str(dump_path), record)
        layers = layer_metrics(dump)
        print(report(dump, layers))
        print(f"spans: {dump_path.relative_to(ROOT)}")
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in layers.items()}
    else:
        values, tail_note = end_to_end(loop, setup.median())
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
        for name, m in metrics.items():
            note = f"  ({tail_note})" if name == "op_tail_ms" else ""
            print(f"  {name:12s} {m['value']:14.6g} {m['unit']}{note}")
        print(f"  {'failed_ratio':12s} {loop.failed / attempted:14.6g} ratio  ({loop.failed}/{attempted} ops)")
        record["op_tail"] = tail_note
    record.update(correct=correct, attempted=attempted, failed=loop.failed, metrics=metrics)
    with open(out_dir / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
