"""Tests of the benchmark itself, run apart from the package's own suite:

    python3 -m pytest -q perfbench/tests

The tiny runs start run.py with --seconds 0, which runs one cycle of the
workload's strata. Each correctness check is fed a deliberately wrong
output and must fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import stability
import summarize
import workloads
from aoi_secrecy import simulate, sweeps
from tracing import NULL, Tracer
from workloads import CliPass, CliSession, McItem, McReplications, OracleGrid, OracleResult, Point

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if not trace:
        assert "failed_ratio" in done.stdout


def test_directory_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "oracle_grid", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ---------------------------------------------------------------------------
# correctness checks reject wrong outputs


def test_oracle_check_rejects_perturbed_block_shifted_mean_and_residual():
    grid = OracleGrid(ROOT, 1)
    point = Point("fast", 0.8, 0.7, 0.9)
    result = grid.run(point)
    assert grid.check(point, result) == []
    (state,) = result.solves

    pi = state.pi.copy()
    pi[2, 3] += 1e-8
    errors = grid.check(point, OracleResult((replace(state, pi=pi),), result.report))
    assert len(errors) == 1 and "block" in errors[0]

    shifted = replace(result.report, average_secrecy_age=result.report.average_secrecy_age + 2e-6)
    errors = grid.check(point, OracleResult(result.solves, shifted))
    assert len(errors) == 1 and "mean" in errors[0]

    errors = grid.check(point, OracleResult((replace(state, residual=1e-11),), result.report))
    assert len(errors) == 1 and "residual" in errors[0]


def test_adaptive_points_resolve_at_the_same_truncation_for_every_seed():
    for seed in (5, 6):
        grid = OracleGrid(ROOT, seed)
        point = grid.item(grid.reference_index)
        assert point.stratum == "adaptive"
        result = grid.run(point)
        assert [s.chain.truncation for s in result.solves] == [400, 408]
        assert grid.check(point, result) == []


def test_mc_check_rejects_shifted_mean():
    point = Point("medium", 0.5, 0.5, 0.5)
    config = simulate.SimConfig(horizon=20_000, burn_in=100, replications=8, base_seed=11)
    item = McItem(point, config)
    estimate = simulate.estimate(point.params, point.policy, config)

    honest = McReplications(ROOT, 1)
    for _ in range(4):
        assert honest.check(item, estimate) == []
    assert honest.finish() == []

    shifted = replace(estimate, mean_secrecy_age=estimate.mean_secrecy_age + 10 * estimate.mean_halfwidth)
    wrong = McReplications(ROOT, 1)
    for _ in range(4):
        assert wrong.check(item, shifted) == []
    assert wrong.finish() and "covered 0/4" in wrong.finish()[0]

    short = replace(estimate, slots_observed=estimate.slots_observed - 1)
    assert McReplications(ROOT, 1).check(item, short)


def test_cli_check_rejects_nonzero_exit_missing_verdict_and_changed_bytes():
    runs = ("fig1", "fig2", "optimize", "compare")
    csv = {run: f"{run}\n".encode() for run in runs}
    good = CliPass(
        exit_codes=dict.fromkeys(runs, 0),
        stdout={"optimize": "optimize: PASS\n", "compare": "compare: PASS over 4 points\n"},
        csv=csv,
    )
    assert workloads.cli_errors(good, csv) == []
    failed = replace(good, exit_codes={**good.exit_codes, "compare": 1})
    assert workloads.cli_errors(failed, csv) == ["compare: exit code 1"]
    no_verdict = replace(good, stdout={**good.stdout, "optimize": "optimize: FAIL\n"})
    assert workloads.cli_errors(no_verdict, csv) == ["optimize: no PASS verdict"]
    changed = replace(good, csv={**csv, "fig2": b"other\n"})
    assert workloads.cli_errors(changed, csv) == ["fig2: CSV bytes differ from the first pass"]


def test_workers_are_capped_at_nproc_without_starting_threads(monkeypatch):
    before = threading.active_count()
    for cpus, expected in ((1, 1), (2, 2), (64, 2)):
        monkeypatch.setattr(workloads, "nproc", lambda cpus=cpus: cpus)
        assert McReplications(ROOT, 1).workers == expected
        session = CliSession(ROOT, 1)
        try:
            compare = session.argv["compare"]
            assert compare[compare.index("--workers") + 1] == str(expected)
            # the shipped config asks for 4 workers; the flag overrides it
            config = sweeps.load_config(str(ROOT / "configs" / "compare_quick.ini"))
            assert config["workers"] == 4
            spec = sweeps.make_spec("compare", config, workers=int(compare[compare.index("--workers") + 1]))
            assert spec.workers == expected <= cpus
        finally:
            session.close()
    assert threading.active_count() == before


def test_traced_sweeps_nests_runner_spans_and_restores_the_package():
    runners, write_csv = dict(sweeps.RUNNERS), sweeps.write_csv
    session = CliSession(ROOT, 1)
    tracer = Tracer()
    try:
        argv = {"fig1": session.argv["fig1"]}
        with tracer.span("op", workload="cli_session", kind="own"):
            result = session.run(argv, tracer)
    finally:
        session.close()
    assert result.exit_codes == {"fig1": 0}
    assert sweeps.RUNNERS == runners and sweeps.write_csv is write_csv
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["sweeps.run_fig1_sweep"]["parent"] == by_name["cli.main"]["id"]
    assert by_name["sweeps.write_csv"]["parent"] == by_name["sweeps.run_fig1_sweep"]["id"]
    assert by_name["sweeps.write_csv"]["attrs"]["rows"] > 0


def test_null_tracer_records_nothing():
    with NULL.span("op") as attrs:
        attrs["x"] = 1
    assert NULL.current() is None and not NULL.enabled


# ---------------------------------------------------------------------------
# statistics


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(x) for x in range(40, 0, -1)])
    assert (value, percentile, beyond) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        {"id": 1, "parent": None, "op": 1, "name": "op", "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": 2, "parent": 1, "op": 1, "name": "a", "start": 1.0, "end": 4.0, "attrs": {}},
        {"id": 3, "parent": 1, "op": 1, "name": "b", "start": 2.0, "end": 6.0, "attrs": {}},
        {"id": 4, "parent": 1, "op": 1, "name": "c", "start": 8.0, "end": 12.0, "attrs": {}},
    ]
    selfs = summarize.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_supported_bound_and_unsteady_metrics():
    assert stability.supported_bound(0.01) == 0.05
    assert stability.supported_bound(0.02) == 0.06
    assert stability.supported_bound(0.08) == 0.24
    assert stability.supported_bound(0.09) is None
    d = stability.describe([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert d["median"] == 5.5 and d["q1"] == 2.75 and d["q3"] == 8.25
    assert np.isclose(d["spread"], 1.0)
    assert d["supported_bound"] is None


def test_counts_cover_only_the_first_cycle():
    def span(id_, parent, op, name, cycle=None):
        attrs = {"kind": "own", "workload": "oracle_grid", "cycle": cycle} if name == "op" else {}
        return {"id": id_, "parent": parent, "op": op, "name": name, "start": 0.0, "end": 1.0, "attrs": attrs}

    spans = [span(1, None, 1, "op", cycle=0), span(2, 1, 1, "oracle.steady_state"),
             span(3, None, 3, "op", cycle=1), span(4, 3, 3, "oracle.steady_state")]
    s = summarize.Summary({"meta": {}, "values": {}, "spans": spans})
    solves, _ = s.named("oracle.steady_state")
    assert [x["id"] for x in s.first_cycle(solves)] == [2]
