"""Register of planted defects in the verdict and bound layer, and its runner.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

Each mutant is one string replacement in one file of the repository: the
old text, which must occur there exactly once, the new text, and the tests
that should kill it. A mutant that no test can kill, because it changes no
reported number, carries the reason instead.

The runner copies the repository to a temporary directory, checks there
that every named test passes on the unchanged code, then applies one mutant
at a time and runs its tests with pytest -x, each run stopped after
TIMEOUT_S seconds. It prints a killed/survived table (markdown) and exits 1
if a mutant survives without a stated reason, if a named test fails on the
unchanged code or if pytest errors; it exits 2, before any run, if an old
text does not occur exactly once. It is not part of the test suite: one
full pass runs pytest once per mutant.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

SWEEPS = "src/aoi_secrecy/sweeps.py"
SIMULATE = "src/aoi_secrecy/simulate.py"
COMPARE = "tests/test_cli.py::TestCompareCommand"
OPTIMIZE = "tests/test_cli.py::TestOptimizeCommand"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it, for a mutant that changes no result


MUTANTS = (
    # compare's verdict: coverage tallies, the summary and the exit code
    Mutant("mean_covers_always", SWEEPS,
           "mean_covers = int(abs(mc.average_secrecy_age - ref.average_secrecy_age) <= mc.mean_halfwidth)",
           "mean_covers = 1",
           (f"{COMPARE}::test_mean_far_outside_the_interval_fails",)),
    Mutant("outage_covers_always", SWEEPS,
           "out_covers = int(abs(mc.outage_probability - ref.outage_probability) <= mc.outage_halfwidth)",
           "out_covers = 1",
           (f"{COMPARE}::test_outage_counted_in_every_slot_still_catches_an_error",)),
    Mutant("outage_tally_reads_mean_column", SWEEPS,
           'column = _COMPARE_HEADER.index(f"{label}_ci_covers")',
           'column = _COMPARE_HEADER.index("mean_ci_covers")',
           (f"{COMPARE}::test_outage_counted_in_every_slot_still_catches_an_error",)),
    Mutant("coverage_at_or_below_fails", SWEEPS,
           "if fraction < MC_COVERAGE_MIN:", "if fraction <= MC_COVERAGE_MIN:",
           ("tests/test_cli.py::test_golden_bytes", f"{COMPARE}::test_coverage_judged_at_its_threshold")),
    Mutant("coverage_rule_halved", SWEEPS,
           "if fraction < MC_COVERAGE_MIN:", "if fraction < MC_COVERAGE_MIN / 2:",
           (f"{COMPARE}::test_coverage_judged_at_its_threshold",)),
    Mutant("monte_carlo_judged_at_q0", SWEEPS,
           "if mc is not None and math.isfinite(ref.average_secrecy_age):", "if mc is not None:",
           (f"{COMPARE}::test_monte_carlo_not_judged_where_the_eavesdropper_never_resets",)),
    Mutant("outage_allowance_doubled", SWEEPS,
           "allowed = TOL_PROB + orc.outage_error_bound", "allowed = 2 * (TOL_PROB + orc.outage_error_bound)",
           (f"{COMPARE}::test_outage_check_at_its_allowance",)),
    Mutant("compare_detail_dropped", SWEEPS,
           'detail = f" over {len(rows)} points (convention={spec.convention.value})"', 'detail = ""',
           (f"{COMPARE}::test_strict_run_passes",)),
    Mutant("exit_code_always_0", SWEEPS,
           "SweepResult(header, rows, summary, 1 if failures else 0)", "SweepResult(header, rows, summary, 0)",
           (f"{COMPARE}::test_outage_counted_in_every_slot_still_catches_an_error",)),
    Mutant("failures_left_out_of_summary", SWEEPS,
           'summary = "\\n".join([*lines, *failures, ', 'summary = "\\n".join([*lines, ',
           (f"{COMPARE}::test_outage_counted_in_every_slot_still_catches_an_error",)),
    Mutant("verdict_always_pass", SWEEPS,
           'verdict = "FAIL" if failures else "PASS"', 'verdict = "PASS"',
           (f"{COMPARE}::test_mean_far_outside_the_interval_fails",)),
    Mutant("reports_reversed", SWEEPS,
           "return _ordered_map(evaluate, range(len(points)), spec.workers)",
           "return _ordered_map(evaluate, range(len(points)), spec.workers)[::-1]",
           ("tests/test_acceptance.py::test_criterion_6_figure_sweeps",)),
    Mutant("mean_tolerance_doubled", SWEEPS,
           "if mean_diff > TOL_MEAN:", "if mean_diff > 2 * TOL_MEAN:",
           (f"{COMPARE}::test_mean_check_at_its_tolerance",)),
    # the bounds and interval widths those checks allow
    Mutant("outage_bound_doubled", "src/aoi_secrecy/oracle.py",
           "return (1.0 - chain.reset_rate_e) ** chain.truncation",
           "return 2 * (1.0 - chain.reset_rate_e) ** chain.truncation",
           ("tests/test_oracle.py::TestTruncationBounds",)),
    Mutant("mean_bound_doubled", "src/aoi_secrecy/oracle.py",
           "return (1.0 - r_e) ** chain.truncation / r_e", "return 2 * (1.0 - r_e) ** chain.truncation / r_e",
           ("tests/test_oracle.py::TestOracleMetrics",)),
    Mutant("interval_doubled", SIMULATE,
           "return center, _Z95 * spread", "return center, 2 * _Z95 * spread",
           ("tests/test_simulate.py::TestAggregation", "tests/test_cli.py::test_golden_bytes")),
    Mutant("clopper_pearson_doubled", SIMULATE,
           "out_hw = 1.0 - 0.025 ** (1.0 / slots)", "out_hw = 2 * (1.0 - 0.025 ** (1.0 / slots))",
           ("tests/test_simulate.py",)),
    # optimize's verdict
    Mutant("optimize_gap_check_off", SWEEPS,
           "if gap > step + 1e-12:", "if False:",
           (f"{OPTIMIZE}::test_planted_optimum_error_fails",)),
    Mutant("optimize_gap_at_10_steps", SWEEPS,
           "if gap > step + 1e-12:", "if gap > 10 * step + 1e-12:",
           (f"{OPTIMIZE}::test_gap_check_at_one_step",)),
    Mutant("optimize_failures_dropped", SWEEPS,
           "return _judged(spec, header, rows, lines, failures)", "return _judged(spec, header, rows, lines, [])",
           (f"{OPTIMIZE}::test_planted_optimum_error_fails",)),
    Mutant("optimize_p_probe_always_invariant", SWEEPS,
           "invariant = int(len(set(argmaxes)) == 1)", "invariant = 1",
           (f"{OPTIMIZE}::test_argmax_moving_with_p_fails",)),
    # refusals of input no route can evaluate
    Mutant("ratio_check_off", SWEEPS,
           "if not all(r > 0 for r in self.ratio_values):", "if False:",
           ("tests/test_cli.py::TestErrorPaths::test_bad_grid_value",)),
    Mutant("json_top_level_check_off", SWEEPS,
           "if not isinstance(top, tuple):", "if False:",
           ("tests/test_cli.py::TestConfigLoading::test_default_section_and_repeats_refused",)),
    Mutant("json_section_check_off", SWEEPS,
           "if not isinstance(body, tuple):", "if False:",
           ("tests/test_cli.py::TestConfigLoading::test_default_section_and_repeats_refused",)),
    Mutant("stationary_block_n_check_off", "src/aoi_secrecy/analytics.py",
           "if n < 1:", "if False:",
           ("tests/test_analytics.py::TestStationaryPi::test_block_matches_scalar",)),
    Mutant("optimal_ptx_q_check_off", "src/aoi_secrecy/analytics.py",
           "if not 0.0 <= q <= 1.0:", "if False:",
           ("tests/test_analytics.py::TestObjectiveAndOptimizer::test_optimum_refuses_q_outside_unit_interval",)),
    Mutant("empty_out_check_off", "src/aoi_secrecy/cli.py",
           "if not path:", "if False:",
           ("tests/test_cli.py::TestFig1Command::test_empty_out_refused_before_any_leg",)),
    Mutant("pool_not_capped", SIMULATE,
           "workers = min(workers, len(items), _usable_cpus())", "workers = min(workers, len(items))",
           ("tests/test_cli.py::TestDeterminism::test_pool_capped_at_usable_cpus",)),
    # the Monte Carlo reduction behind every interval compare judges
    Mutant("front_sentinel_above_thresholds", SIMULATE,
           "u = np.full(size + 2, -1.0)", "u = np.full(size + 2, 1.0)",
           ("tests/test_simulate.py",)),
    Mutant("back_sentinel_above_thresholds", SIMULATE,
           "u[m + 1] = -1.0", "u[m + 1] = 1.0",
           ("tests/test_simulate.py",)),
    Mutant("carried_mark_held_one_slot_more", SIMULATE,
           "int(marks[0]) * (int(marks[1]) - 1)", "int(marks[0]) * int(marks[1])",
           ("tests/test_simulate.py",)),
    Mutant("event_before_block_counted_from_0", SIMULATE,
           "np.maximum(past, 1)", "np.maximum(past, 0)",
           ("tests/test_simulate.py",)),
    Mutant("event_carry_off_by_one", SIMULATE,
           "last_e, last_r = int(events[-2]) - m, int(resets[-2]) - m",
           "last_e, last_r = int(events[-2]) - m + 1, int(resets[-2]) - m",
           ("tests/test_simulate.py",)),
    Mutant("reset_carry_off_by_one", SIMULATE,
           "last_e, last_r = int(events[-2]) - m, int(resets[-2]) - m",
           "last_e, last_r = int(events[-2]) - m, int(resets[-2]) - m + 1",
           ("tests/test_simulate.py",)),
    Mutant("outage_search_from_k", SIMULATE,
           "resets[long] + (within + 1)", "resets[long] + within",
           ("tests/test_simulate.py",)),
    Mutant("carried_product_in_int64_dot", SIMULATE,
           "int(marks[0]) * (int(marks[1]) - 1) + int(np.dot(marks[1:-1], gaps[1:]))",
           "int(np.dot(marks[:-1], gaps)) + int(marks[0]) * (int(marks[0]) - 1)",
           ("tests/test_simulate.py",)),
    Mutant("start_mark_0", SIMULATE,
           "last_e = last_r = 1", "last_e = last_r = 0",
           ("tests/test_simulate.py",),
           equivalent="slot 0's own sentinel puts position 1 in both lists, so a start mark of 0 or 1 "
                      "is held over no slot and opens a cycle of at most one slot"),
    Mutant("long_cycle_from_k", SIMULATE,
           "np.flatnonzero(cycles > within + 1)", "np.flatnonzero(cycles > within)",
           ("tests/test_simulate.py",),
           equivalent="a cycle of exactly k + 1 slots holds no slot over k: its search lands on the "
                      "cycle's own end"),
)


def _copy(target: Path) -> Path:
    tree = target / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", "*.egg-info"))
    return tree


def _pytest(tree: Path, tests: tuple[str, ...]) -> str:
    """'passed', 'failed', 'timeout' or 'error (exit N)' for one pytest -x run in tree."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        code = subprocess.run(command, cwd=tree, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(code, f"error (exit {code})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    stale = [m for m in chosen if (ROOT / m.path).read_text().count(m.old) != 1]
    for mutant in stale:
        print(f"{mutant.name}: its old text does not occur exactly once in {mutant.path}", file=sys.stderr)
    if stale:
        return 2
    rows, unexplained = [], 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = _copy(Path(scratch))
        baseline = _pytest(tree, tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if baseline != "passed":
            print(f"the named tests do not pass on the unchanged code: {baseline}", file=sys.stderr)
            return 1
        for mutant in chosen:
            source = tree / mutant.path
            original = source.read_text()
            source.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                outcome = _pytest(tree, mutant.tests)
            finally:
                source.write_text(original)
            result = {"failed": "killed", "timeout": "killed (timeout)", "passed": "survived"}.get(outcome, outcome)
            if result == "survived" and mutant.equivalent:
                result = f"survived, equivalent: {mutant.equivalent}"
            elif not result.startswith("killed"):
                unexplained += 1
            rows.append((mutant.name, mutant.path, result, " ".join(mutant.tests), time.perf_counter() - start))
            print(f"{mutant.name}: {result}", file=sys.stderr)
    print("| mutant | file | result | tests run (-x) | s |")
    print("|---|---|---|---|---|")
    for name, path, result, tests, seconds in rows:
        print(f"| {name} | {path} | {result} | {tests} | {seconds:.1f} |")
    killed = sum(row[2].startswith("killed") for row in rows)
    print(f"\n{killed} of {len(rows)} killed, {len(rows) - killed - unexplained} equivalent, "
          f"{unexplained} unexplained")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
