"""The three benchmark workloads: inputs, the timed op, and its checks.

Each workload draws its op inputs from the seed inside fixed strata that
repeat in a fixed cycle, so every seed gives the same mix of cheap and
expensive ops and only the points inside each stratum change.

- oracle_grid: one (p, q, p_tx) point through the truncated-chain oracle,
  with an adaptive re-solve when N = 400 cannot bound the mean error.
- mc_replications: one simulate.estimate call at the default horizon.
- cli_session: one in-process pass of cli.main over fig1, fig2, optimize
  and compare, as a user runs them.

The checks use the acceptance suite's tolerances unchanged: 1e-9 entrywise
on the stationary block, 1e-6 on the mean, 0.75 confidence-interval
coverage. They run outside the timed op.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from aoi_secrecy import analytics, cli, oracle, simulate, sweeps
from aoi_secrecy.model import ChannelParams, Policy

from tracing import NULL

# acceptance criteria 1-2 and the compare default, unchanged
BLOCK_TOL = 1e-9
MEAN_TOL = 1e-6
MC_COVERAGE_MIN = 0.75

ORACLE_N = 400
ORACLE_TOL = 1e-12
RESOLVE_MEAN_BOUND = 1e-7
BLOCK_CORNER = 40

MC_HORIZON = 10**6
MC_BURN_IN = 10**4
MC_REPLICATIONS = 16
MC_WORKERS = 2

CLI_WORKERS = 2
CLOSED_FORM_RUNS = ("fig1", "fig2", "optimize")


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


def cap_workers(requested: int) -> int:
    """Thread count actually used: never more than the CPUs available."""
    return max(1, min(requested, nproc()))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class Point:
    stratum: str
    p: float
    q: float
    p_tx: float

    @property
    def params(self) -> ChannelParams:
        return ChannelParams(p=self.p, q=self.q)

    @property
    def policy(self) -> Policy:
        return Policy(p_tx=self.p_tx)


def _draw(stratum: str, box: tuple, rng: np.random.Generator) -> Point:
    p, q, p_tx = (float(rng.uniform(low, high)) for low, high in box)
    return Point(stratum, p, q, p_tx)


class Workload:
    """What run.py needs of a workload. Ops are numbered; item(index) is the
    op's input, drawn from the seed in stratum cycle[index % len(cycle)]."""

    name: str
    cycle: tuple
    reference_index: int  # the op a traced run of another workload runs once

    def item(self, index: int):
        raise NotImplementedError

    def run(self, item, tracer=NULL):
        """The timed op."""
        raise NotImplementedError

    def check(self, item, result, tracer=NULL) -> list[str]:
        """Errors in one op's output; runs outside the timing."""
        raise NotImplementedError

    def trace_extra(self, item, result, tracer, root: dict) -> None:
        """Traced runs only: extra measurements after a checked op."""

    def finish(self) -> list[str]:
        """Errors found only over the whole run."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# oracle_grid

# (p, q, p_tx) boxes. fast and medium converge in tens to a hundred-odd
# sweeps, slow always takes N = 400 sweeps. adaptive needs N = 400 and then
# a re-solve at N = 408: its eavesdropper reset rate r_e = p_tx q is fixed
# (p and q vary, p_tx = r_e / q), so the re-solve truncation is the same for
# every seed. Two measured reasons: the full low-q, low-p_tx corner reaches
# N = 1000 at 5 s a point, too few of which fit in one run to give a steady
# tail; and the cost of a sweep depends on the sequence of array sizes the
# process has allocated (on a 2-core Xeon test VM, re-solves in a band of
# N = 417..444 took either about 0.3 s or about 0.7 s, by N and by history),
# so varying N per seed made the tail two-humped across seeds. adaptive
# appears twice per cycle so the tail percentile falls inside it.
ORACLE_STRATA = {
    "fast": ((0.6, 0.9), (0.5, 0.9), (0.7, 1.0)),
    "medium": ((0.3, 0.6), (0.3, 0.5), (0.4, 0.7)),
    "slow": ((0.1, 0.2), (0.2, 0.3), (0.25, 0.35)),
}
ADAPTIVE_P = (0.3, 0.8)
ADAPTIVE_Q = (0.15, 0.20)
ADAPTIVE_RESET = 0.046  # N = 400 leaves a mean bound of 1.4e-7; re-solve at N = 408
ORACLE_CYCLE = ("fast", "medium", "slow", "adaptive", "adaptive")


@dataclass(frozen=True)
class OracleResult:
    solves: tuple  # SteadyState per solve, N = 400 first
    report: object  # SecrecyReport of the last solve


class OracleGrid(Workload):
    name = "oracle_grid"
    cycle = ORACLE_CYCLE
    reference_index = 3  # the first adaptive point

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed

    def item(self, index: int) -> Point:
        stratum = self.cycle[index % len(self.cycle)]
        rng = _rng(self.seed, index)
        if stratum != "adaptive":
            return _draw(stratum, ORACLE_STRATA[stratum], rng)
        p = float(rng.uniform(*ADAPTIVE_P))
        q = float(rng.uniform(*ADAPTIVE_Q))
        return Point(stratum, p, q, ADAPTIVE_RESET / q)

    def run(self, point: Point, tracer=NULL) -> OracleResult:
        params, policy = point.params, point.policy

        def solve(n: int):
            with tracer.span("oracle.build_truncated_chain", n=n):
                chain = oracle.build_truncated_chain(params, policy, n)
            with tracer.span("oracle.steady_state", n=n) as attrs:
                state = oracle.steady_state(chain, tol=ORACLE_TOL)
                attrs.update(iterations=state.iterations, residual=state.residual)
            with tracer.span("oracle.oracle_metrics", n=n):
                return state, oracle.oracle_metrics(state)

        state, report = solve(ORACLE_N)
        if report.mean_error_bound <= RESOLVE_MEAN_BOUND:
            return OracleResult((state,), report)
        n = oracle.truncation_for_mean_tol(params, policy, RESOLVE_MEAN_BOUND)
        resolved, report = solve(n)
        return OracleResult((state, resolved), report)

    def check(self, point: Point, result: OracleResult, tracer=NULL) -> list[str]:
        errors = []
        for state in result.solves:
            if not state.residual <= ORACLE_TOL:
                errors.append(f"{point}: residual {state.residual:.3e} > {ORACLE_TOL:g}")
        final = result.solves[-1]
        with tracer.span("analytics.stationary_block", n=BLOCK_CORNER):
            block = analytics.stationary_block(point.params, point.policy, BLOCK_CORNER)
        deviation = float(np.max(np.abs(final.pi[:BLOCK_CORNER, :BLOCK_CORNER] - block)))
        if not deviation <= BLOCK_TOL:
            errors.append(f"{point}: {BLOCK_CORNER}x{BLOCK_CORNER} block off by {deviation:.3e}")
        mean_cf = analytics.average_secrecy_age(point.params, point.policy)
        mean_gap = abs(result.report.average_secrecy_age - mean_cf)
        if not mean_gap <= MEAN_TOL:
            errors.append(f"{point}: mean off the closed form by {mean_gap:.3e}")
        return errors


# ---------------------------------------------------------------------------
# mc_replications

# reset rate p_tx (p + q - pq): about 0.9 (fast), 0.37 (medium), 0.05 (slow)
MC_STRATA = {
    "fast": ((0.7, 0.9), (0.7, 0.9), (0.9, 1.0)),
    "medium": ((0.4, 0.6), (0.4, 0.6), (0.4, 0.6)),
    "slow": ((0.1, 0.15), (0.1, 0.15), (0.2, 0.25)),
}
MC_CYCLE = ("fast", "medium", "slow")


@dataclass(frozen=True)
class McItem:
    point: Point
    config: simulate.SimConfig


class McReplications(Workload):
    name = "mc_replications"
    cycle = MC_CYCLE
    reference_index = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.seed = seed
        self.workers = cap_workers(MC_WORKERS)
        self.covered = 0
        self.checked = 0

    def item(self, index: int) -> McItem:
        stratum = self.cycle[index % len(self.cycle)]
        rng = _rng(self.seed, index)
        point = _draw(stratum, MC_STRATA[stratum], rng)
        config = simulate.SimConfig(
            horizon=MC_HORIZON,
            burn_in=MC_BURN_IN,
            replications=MC_REPLICATIONS,
            base_seed=int(rng.integers(2**63)),
        )
        return McItem(point, config)

    def run(self, item: McItem, tracer=NULL):
        params, policy, config = item.point.params, item.point.policy, item.config
        if not tracer.enabled:
            return simulate.estimate(params, policy, config, workers=self.workers)
        # The traced op splits estimate into its two public steps, run on a
        # pool of the same size, so each replication gets its own span.
        op = tracer.current()

        def replicate(index: int):
            with tracer.span("simulate.run_replication", parent=op, replication=index):
                return simulate.run_replication(params, policy, config, index)

        indices = range(config.replications)
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                stats = list(pool.map(replicate, indices))
        else:
            stats = [replicate(index) for index in indices]
        with tracer.span("simulate.aggregate"):
            return simulate.aggregate(stats)

    def check(self, item: McItem, estimate, tracer=NULL) -> list[str]:
        config = item.config
        expected_slots = config.replications * config.horizon
        if estimate.replications != config.replications or estimate.slots_observed != expected_slots:
            return [f"{item.point}: {estimate.replications} replications / "
                    f"{estimate.slots_observed} slots, expected {expected_slots}"]
        if not (math.isfinite(estimate.mean_secrecy_age) and estimate.mean_halfwidth):
            return [f"{item.point}: no finite mean with a confidence interval"]
        self.checked += 1
        self.covered += int(covers(item, estimate))
        return []

    def trace_extra(self, item: McItem, estimate, tracer, root: dict) -> None:
        root.update(slots=estimate.slots_observed, ci_miss=int(not covers(item, estimate)))
        # one replication alone on this thread: the serial cost that
        # thread efficiency and ns per slot are measured against
        with tracer.span(
            "simulate.run_replication",
            serial=True,
            replications=item.config.replications,
            workers=self.workers,
            slots=item.config.burn_in + item.config.horizon,
        ):
            simulate.run_replication(item.point.params, item.point.policy, item.config, 0)

    def finish(self) -> list[str]:
        # the compare rule: mean CIs cover the closed form on >= 0.75 of points
        if self.checked and self.covered / self.checked < MC_COVERAGE_MIN:
            return [f"mean CI covered {self.covered}/{self.checked} points, below {MC_COVERAGE_MIN:g}"]
        return []


def covers(item: McItem, estimate) -> bool:
    reference = analytics.average_secrecy_age(item.point.params, item.point.policy)
    return abs(estimate.mean_secrecy_age - reference) <= estimate.mean_halfwidth


# ---------------------------------------------------------------------------
# cli_session


@dataclass(frozen=True)
class CliPass:
    exit_codes: dict  # run -> cli.main return value
    stdout: dict  # run -> printed summary
    csv: dict  # run -> output CSV bytes


class CliSession(Workload):
    name = "cli_session"
    cycle = ("session",)
    reference_index = 0

    def __init__(self, root: Path, seed: int) -> None:
        scratch = root / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        configs = root / "configs"
        for name in ("fig2_paper.json", "compare_quick.ini"):
            if not (configs / name).is_file():
                raise FileNotFoundError(configs / name)
        self.argv = {
            "fig1": ["fig1"],
            "fig2": ["fig2", "--config", str(configs / "fig2_paper.json")],
            "optimize": ["optimize", "--step", "1e-4"],
            # the config's own seed, as a user runs it: with other seeds the
            # quick config's 4-point CI-coverage test fails by chance (seeds
            # 9 and 12 of 1..12 cover 2/4 points)
            "compare": [
                "compare", "--config", str(configs / "compare_quick.ini"),
                "--workers", str(cap_workers(CLI_WORKERS)),
            ],
        }
        for run, argv in self.argv.items():
            argv += ["--out", str(self.out / f"{run}.csv")]
        self.first: dict | None = None

    def item(self, index: int) -> dict:
        return self.argv

    def run(self, argv: dict, tracer=NULL) -> CliPass:
        codes, printed = {}, {}
        with traced_sweeps(tracer):
            for run, args in argv.items():
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), tracer.span("cli.main", run=run):
                    codes[run] = cli.main(args)
                printed[run] = buffer.getvalue()
        return CliPass(codes, printed, {})  # CSVs are read by check, untimed

    def check(self, argv: dict, result: CliPass, tracer=NULL) -> list[str]:
        written = {run: (self.out / f"{run}.csv").read_bytes() for run in self.argv}
        result = replace(result, csv=written)
        if self.first is None:
            self.first = result.csv
        return cli_errors(result, self.first)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


@contextlib.contextmanager
def traced_sweeps(tracer):
    """While tracing, wrap the sweeps runners and write_csv that cli.main
    looks up at call time, so their spans nest inside the cli.main span and
    cli self time is cli.main minus the runner it drives."""
    if not tracer.enabled:
        yield
        return
    runners, write_csv = dict(sweeps.RUNNERS), sweeps.write_csv

    def wrap(run, runner):
        def traced(spec):
            with tracer.span(f"sweeps.{runner.__name__}", run=run):
                return runner(spec)
        return traced

    def traced_write(path, header, rows):
        with tracer.span("sweeps.write_csv", rows=len(rows)) as attrs:
            write_csv(path, header, rows)
        attrs["bytes"] = os.path.getsize(path)

    sweeps.RUNNERS.update({run: wrap(run, runner) for run, runner in runners.items()})
    sweeps.write_csv = traced_write
    try:
        yield
    finally:
        sweeps.RUNNERS.update(runners)
        sweeps.write_csv = write_csv


def cli_errors(result: CliPass, first: dict) -> list[str]:
    """Every run exits 0, compare and optimize print PASS, and the
    closed-form-only CSVs are byte-identical to the first pass."""
    errors = [f"{run}: exit code {code}" for run, code in result.exit_codes.items() if code != 0]
    for run in ("optimize", "compare"):
        if f"{run}: PASS" not in result.stdout.get(run, ""):
            errors.append(f"{run}: no PASS verdict")
    for run in CLOSED_FORM_RUNS:
        if result.csv.get(run) != first.get(run):
            errors.append(f"{run}: CSV bytes differ from the first pass")
    return errors


WORKLOADS = {w.name: w for w in (OracleGrid, McReplications, CliSession)}
