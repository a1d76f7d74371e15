"""Turn a traced run's span dump into per-layer metrics.

    python3 perfbench/summarize.py .perfbench/spans-oracle_grid-seed1.json

Each metric comes from the spans of the workload's own ops when there are
any, and otherwise from the one reference op of the workload that reaches
that layer, which every traced run also executes; the source is reported
with the value. Every ratio is printed with its base. The report also gives
each layer's self time (span duration minus the part its child spans cover)
and the tracing overhead measured on paired traced and untraced ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

LAYERS = ("model", "analytics", "oracle", "simulate", "sweeps", "cli")
RUNS = ("fig1", "fig2", "optimize", "compare")
# run -> the sweeps runner cli.main calls for it
_RUNNER = {
    "fig1": "run_fig1_sweep",
    "fig2": "run_fig2_sweep",
    "optimize": "run_optimize",
    "compare": "run_compare",
}

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "oracle.build_ms": "ms",
    "oracle.steady_state_ms": "ms",
    "oracle.metrics_ms": "ms",
    "oracle.iterations": "count",
    "oracle.ns_per_cell_iteration": "ns",
    "oracle.apply_us_n400": "us",
    "oracle.apply_bytes_computed": "bytes",
    "oracle.residual_max": "L1",
    "oracle.truncation_max": "states",
    "oracle.failed": "count",
    "simulate.replication_ms": "ms",
    "simulate.ns_per_slot": "ns",
    "simulate.rng_floor_ns_per_slot": "ns",
    "simulate.aggregate_ms": "ms",
    "simulate.thread_efficiency": "ratio",
    "simulate.peak_traced_mb": "MB",
    "simulate.slots": "count",
    "simulate.ci_miss": "count",
    "analytics.objective_us": "us",
    "analytics.closed_form_point_us": "us",
    "analytics.stationary_block_ms": "ms",
    **{f"sweeps.run_ms.{run}": "ms" for run in RUNS},
    "sweeps.write_csv_ms": "ms",
    "sweeps.rows": "count",
    "sweeps.csv_bytes": "bytes",
    **{f"cli.main_ms.{run}": "ms" for run in RUNS},
    **{f"cli.self_ms.{run}": "ms" for run in RUNS},
    "cli.import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children running on several threads may overlap each other; only the
    part of the parent's interval they cover is subtracted, once.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = duration(span) - covered
    return result


class Summary:
    """Span queries over one dump, preferring the workload's own ops."""

    def __init__(self, dump: dict) -> None:
        self.meta = dump["meta"]
        self.values = dump["values"]
        self.spans = dump["spans"]
        roots = {s["id"]: s for s in self.spans if s["name"] == "op"}
        self.kind = {op: root["attrs"]["kind"] for op, root in roots.items()}
        self.roots = roots

    def named(self, name: str, **match) -> tuple[list[dict], str]:
        """Spans called `name` whose attrs match: own ops first, else reference ops."""
        found = {"own": [], "reference": []}
        for span in self.spans:
            if span["name"] != name or any(span["attrs"].get(k) != v for k, v in match.items()):
                continue
            kind = self.kind.get(span["op"])
            if kind in found:
                found[kind].append(span)
        if found["own"]:
            return found["own"], "own"
        return found["reference"], "reference"

    def ops_of(self, workload: str) -> tuple[list[dict], str]:
        """Root spans of `workload`'s ops: own ops first, else its reference op."""
        for kind in ("own", "reference"):
            roots = [r for r in self.roots.values()
                     if r["attrs"]["kind"] == kind and r["attrs"]["workload"] == workload]
            if roots:
                return roots, kind
        return [], "reference"

    def first_cycle(self, spans: list[dict]) -> list[dict]:
        """The spans of ops in the first cycle of the workload's strata,
        which every run completes, however fast: a sum over them counts
        the same work in every run."""
        return [x for x in spans if self.roots[x["op"]]["attrs"]["cycle"] == 0]

    def layer_self_seconds(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer over the own ops, and their summed wall time."""
        own = {op for op, kind in self.kind.items() if kind == "own"}
        selfs = self_times(self.spans)
        by_id = {span["id"]: span for span in self.spans}

        def timed(span):  # inside the op root, not on its check path
            while span["parent"] is not None:
                if span["name"] == "check":
                    return False
                span = by_id[span["parent"]]
            return True

        per_layer = dict.fromkeys(LAYERS + ("benchmark",), 0.0)
        for span in self.spans:
            if span["op"] not in own or not timed(span):
                continue
            layer = span["name"].split(".")[0]
            per_layer[layer if layer in per_layer else "benchmark"] += selfs[span["id"]]
        wall = sum(duration(self.roots[op]) for op in own)
        return per_layer, wall


def _median_ms(spans: list[dict]) -> float:
    return 1e3 * statistics.median(duration(s) for s in spans)


def per_op_ms(spans: list[dict]) -> list[float]:
    """Milliseconds summed per op, one entry per op id."""
    totals = defaultdict(float)
    for span in spans:
        totals[span["op"]] += 1e3 * duration(span)
    return list(totals.values())


def layer_metrics(dump: dict) -> dict[str, dict]:
    """name -> {"value", "unit", "source", "base"} for every per-layer metric."""
    s = Summary(dump)
    out: dict[str, dict] = {}

    def put(name, value, source, base=""):
        out[name] = {"value": float(value), "unit": UNITS[name], "source": source, "base": base}

    # oracle
    builds, src = s.named("oracle.build_truncated_chain")
    put("oracle.build_ms", _median_ms(builds), src, f"median of {len(builds)} builds")
    solves, src = s.named("oracle.steady_state")
    put("oracle.steady_state_ms", _median_ms(solves), src, f"median of {len(solves)} solves")
    metrics, src = s.named("oracle.oracle_metrics")
    put("oracle.metrics_ms", _median_ms(metrics), src, f"median of {len(metrics)} calls (gap_pmf_array loop)")
    first = s.first_cycle(solves)
    iterations = sum(x["attrs"]["iterations"] for x in first)
    cells = sum(x["attrs"]["iterations"] * x["attrs"]["n"] ** 2 for x in solves)
    put("oracle.iterations", iterations, src, f"summed over the {len(first)} solves of the first cycle")
    solve_seconds = sum(duration(x) for x in solves)
    put("oracle.ns_per_cell_iteration", 1e9 * solve_seconds / cells, src,
        f"{solve_seconds:.3f} s solve time / {cells:.4g} cell-iterations")
    put("oracle.apply_us_n400", s.values["oracle.apply_us_n400"], "probe", "median of 5 x 100 applies")
    put("oracle.apply_bytes_computed", s.values["oracle.apply_bytes_computed"], "probe",
        "computed from the array operations of one apply at N=400")
    put("oracle.residual_max", max(x["attrs"]["residual"] for x in solves), src, f"max over {len(solves)} solves")
    put("oracle.truncation_max", max(x["attrs"]["n"] for x in solves), src, f"max over {len(solves)} solves")
    oracle_ops, src = s.ops_of("oracle_grid")
    failed = sum(1 for r in oracle_ops if r["attrs"].get("failed"))
    put("oracle.failed", failed, src, f"of {len(oracle_ops)} oracle ops")

    # simulate
    serial, src = s.named("simulate.run_replication", serial=True)
    put("simulate.replication_ms", _median_ms(serial), src, f"median of {len(serial)} serial replications")
    slots = sum(x["attrs"]["slots"] for x in serial)
    serial_seconds = sum(duration(x) for x in serial)
    put("simulate.ns_per_slot", 1e9 * serial_seconds / slots, src,
        f"{serial_seconds:.3f} s / {slots} slots, serial")
    put("simulate.rng_floor_ns_per_slot", s.values["simulate.rng_floor_ns_per_slot"], "probe",
        "median of 5 draws of the same uniforms alone")
    aggregates, src = s.named("simulate.aggregate")
    put("simulate.aggregate_ms", _median_ms(aggregates), src, f"median of {len(aggregates)} calls")
    mc_ops = {x["op"]: x for x in serial}
    serial_equivalent = sum(duration(x) * x["attrs"]["replications"] for x in serial)
    busy = sum(duration(s.roots[op]) * x["attrs"]["workers"] for op, x in mc_ops.items())
    put("simulate.thread_efficiency", serial_equivalent / busy, src,
        f"{serial_equivalent:.3f} s serial replication time / {busy:.3f} s estimate wall x workers")
    put("simulate.peak_traced_mb", s.values["simulate.peak_traced_mb"], "probe",
        "one default replication under tracemalloc")
    sim_ops, src = s.ops_of("mc_replications")
    sim_ops = s.first_cycle(sim_ops)
    put("simulate.slots", sum(r["attrs"].get("slots", 0) for r in sim_ops), src,
        f"observed slots over the {len(sim_ops)} estimate ops of the first cycle")
    put("simulate.ci_miss", sum(r["attrs"].get("ci_miss", 0) for r in sim_ops), src,
        f"mean CIs missing the closed form, of the {len(sim_ops)} points of the first cycle")

    # analytics
    put("analytics.objective_us", s.values["analytics.objective_us"], "probe", "median of 5 x 2000 calls")
    put("analytics.closed_form_point_us", s.values["analytics.closed_form_point_us"], "probe",
        "mean + outage, median of 5 x 2000 calls")
    blocks, src = s.named("analytics.stationary_block")
    put("analytics.stationary_block_ms", _median_ms(blocks), src, f"median of {len(blocks)} check-path calls")

    # sweeps and cli: runner and write_csv spans nest inside cli.main
    writes, src = s.named("sweeps.write_csv")
    put("sweeps.write_csv_ms", statistics.median(per_op_ms(writes)), src, "four CSVs per pass, median over passes")
    first = [w for w in writes if w["op"] == writes[0]["op"]]
    put("sweeps.rows", sum(w["attrs"]["rows"] for w in first), src, "rows of the four tables in one pass")
    put("sweeps.csv_bytes", sum(w["attrs"]["bytes"] for w in first), src, "bytes of the four CSVs in one pass")
    selfs = self_times(s.spans)
    for run in RUNS:
        runner, src = s.named(f"sweeps.{_RUNNER[run]}", run=run)
        put(f"sweeps.run_ms.{run}", _median_ms(runner), src,
            f"median of {len(runner)} runner calls, CSV write included")
        mains, src = s.named("cli.main", run=run)
        put(f"cli.main_ms.{run}", _median_ms(mains), src, f"median of {len(mains)} cli.main calls")
        put(f"cli.self_ms.{run}", 1e3 * statistics.median(selfs[m["id"]] for m in mains), src,
            f"cli.main - runner, median of {len(mains)} calls")
    put("cli.import_ms", s.values["cli.import_ms"], "probe", "median of 3 fresh interpreters")

    traced, untraced = s.values["trace.traced_ms"], s.values["trace.untraced_ms"]
    put("trace.overhead_ratio", traced / untraced - 1.0, "paired",
        f"{traced:.1f} ms traced vs {untraced:.1f} ms untraced over the same ops")
    return out


def report(dump: dict, metrics: dict[str, dict]) -> str:
    """Readable per-layer table with sources and bases, and layer self times."""
    lines = [f"per-layer metrics, workload {dump['meta']['workload']} seed {dump['meta']['seed']}"]
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} [{m['source']}] {m['base']}")
    per_layer, wall = Summary(dump).layer_self_seconds()
    lines.append(f"self time per layer over the own ops (base: {wall:.3f} s op wall; "
                 "threads overlap, so shares may sum above 1)")
    for layer, seconds in per_layer.items():
        share = seconds / wall if wall else 0.0
        lines.append(f"  {layer:10s} {seconds:10.3f} s  {share:7.3f} of op wall")
    lines.append("  model      has no spans of its own: it is measured through oracle.build_ms "
                 "and the simulate numbers")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        dump = json.load(handle)
    print(report(dump, layer_metrics(dump)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
