"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so a full run always shows seven verdict lines:

    [criterion 1] PASS ...
    ...
    [criterion 7] PASS ...

The oracle solutions for the 243-point parameter grid are shared between
criteria 1 and 2 through a module fixture; its wall time is charged to
criterion 1, whose runtime budget covers building the grid oracle.
"""

import csv
import time
from itertools import product

import numpy as np
import pytest

from aoi_secrecy.analytics import (
    OutageConvention,
    average_secrecy_age,
    objective,
    optimal_ptx,
    outage_probability,
    secrecy_gap_pmf,
    stationary_block,
)
from aoi_secrecy.cli import main
from aoi_secrecy.model import ChannelParams, Policy, SecrecyThreshold
from aoi_secrecy.oracle import (
    build_truncated_chain,
    oracle_metrics,
    steady_state,
    truncation_for_mean_tol,
)
from aoi_secrecy.simulate import SimConfig, estimate

SUITE_SEED = 20260816

GRID_P = tuple(round(0.1 * k, 1) for k in range(1, 10))
GRID_Q = tuple(round(0.1 * k, 1) for k in range(1, 10))
GRID_PTX = (0.2, 0.5, 1.0)
GRID_POINTS = tuple((p, q, ptx) for ptx in GRID_PTX for q in GRID_Q for p in GRID_P)

ORACLE_TRUNCATION = 400
BLOCK = 40


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def point_seed(namespace, index):
    seq = np.random.SeedSequence(entropy=SUITE_SEED, spawn_key=(namespace, index))
    return int(seq.generate_state(1, np.uint64)[0])


@pytest.fixture(scope="module")
def grid_solutions():
    """N=400 steady states over the full grid: 40x40 corner block, mean, and
    the truncation bound on the mean, plus the total solve time."""
    t0 = time.perf_counter()
    solutions = {}
    for p, q, ptx in GRID_POINTS:
        chain = build_truncated_chain(ChannelParams(p, q), Policy(ptx), ORACLE_TRUNCATION)
        state = steady_state(chain, tol=1e-12)
        report = oracle_metrics(state)
        solutions[(p, q, ptx)] = (
            state.pi[:BLOCK, :BLOCK].copy(),
            report.average_secrecy_age,
            report.mean_error_bound,
        )
    return solutions, time.perf_counter() - t0


def test_criterion_1_stationary_distribution(grid_solutions, capsys):
    """Closed-form joint law vs the truncated-chain oracle, entrywise."""
    solutions, solve_seconds = grid_solutions
    t0 = time.perf_counter()
    worst = 0.0
    worst_point = None
    for (p, q, ptx), (block, _, _) in solutions.items():
        closed = stationary_block(ChannelParams(p, q), Policy(ptx), BLOCK)
        diff = float(np.max(np.abs(closed - block)))
        if diff > worst:
            worst, worst_point = diff, (p, q, ptx)
    elapsed = solve_seconds + (time.perf_counter() - t0)
    ok = worst <= 1e-9 and elapsed < 120.0
    announce(
        capsys,
        f"[criterion 1] {'PASS' if ok else 'FAIL'} max entry |closed - oracle| = {worst:.3e} "
        f"(at {worst_point}) over {len(solutions)} grid points, {BLOCK}x{BLOCK} block, "
        f"elapsed {elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_criterion_2_average_secrecy_age(grid_solutions, capsys):
    """Mean: closed form vs oracle within 1e-6 everywhere; vs Monte Carlo the
    95% CI must cover the closed form in at least 30 of 32 sampled points."""
    solutions, _ = grid_solutions
    worst = 0.0
    resolved = 0
    for (p, q, ptx), (_, oracle_mean, bound) in solutions.items():
        params, policy = ChannelParams(p, q), Policy(ptx)
        if bound > 1e-7:
            # N=400 cannot certify 1e-6 here; re-solve at the size that can
            needed = truncation_for_mean_tol(params, policy, 1e-7)
            state = steady_state(build_truncated_chain(params, policy, needed), tol=1e-12)
            oracle_mean = oracle_metrics(state).average_secrecy_age
            resolved += 1
        diff = abs(average_secrecy_age(params, policy) - oracle_mean)
        worst = max(worst, diff)
    oracle_ok = worst <= 1e-6

    picks = np.round(np.linspace(0, len(GRID_POINTS) - 1, 32)).astype(int)
    assert len(set(picks.tolist())) == 32
    covered = 0
    for rank, index in enumerate(picks):
        p, q, ptx = GRID_POINTS[index]
        config = SimConfig(base_seed=point_seed(2, rank))  # 32 x 10^6 observed slots
        est = estimate(ChannelParams(p, q), Policy(ptx), config)
        closed = average_secrecy_age(ChannelParams(p, q), Policy(ptx))
        if abs(est.mean_secrecy_age - closed) <= est.mean_halfwidth:
            covered += 1
    mc_ok = covered >= 30
    ok = oracle_ok and mc_ok
    announce(
        capsys,
        f"[criterion 2] {'PASS' if ok else 'FAIL'} max |closed - oracle| mean = {worst:.3e} "
        f"({resolved} points re-solved adaptively); MC CI covered {covered}/32 points",
    )
    assert oracle_ok
    assert mc_ok


def test_criterion_3_outage_event_adjudication(capsys):
    """Monte Carlo frequencies of the event {secrecy age <= eta_th} side with
    the strict-exponent closed form and sit exactly one pmf step above the
    printed form, for eta_th in {1, 3, 5, 10}."""
    params, policy = ChannelParams(0.8, 0.2), Policy(0.5)
    config = SimConfig(base_seed=point_seed(3, 0))
    details = []
    ok = True
    for eta in (1, 3, 5, 10):
        # the same replications each time, counted for this event
        est = estimate(params, policy, config, event=eta)
        thr = SecrecyThreshold(eta)
        strict = outage_probability(params, policy, thr, OutageConvention.STRICT_DEFINITION)
        printed = outage_probability(params, policy, thr, OutageConvention.PAPER_PRINTED)
        step = secrecy_gap_pmf(eta, params, policy)
        hw = est.outage_halfwidth
        strict_hit = abs(est.outage_estimate - strict) <= hw
        offset_hit = abs((est.outage_estimate - printed) - step) <= hw
        ok = ok and strict_hit and offset_hit
        details.append(f"eta={eta}: mc-strict={est.outage_estimate - strict:+.2e} "
                       f"mc-printed-pmf={(est.outage_estimate - printed) - step:+.2e} hw={hw:.2e}")
        assert strict_hit, f"eta={eta}: MC {est.outage_estimate} vs strict {strict}, hw {hw}"
        assert offset_hit, f"eta={eta}: MC-printed offset {est.outage_estimate - printed} vs pmf {step}, hw {hw}"
    announce(capsys, f"[criterion 3] {'PASS' if ok else 'FAIL'} {'; '.join(details)}")


def test_criterion_4_policy_monotonicity(capsys):
    """Mean strictly decreasing and outage non-decreasing along a p_tx grid,
    plus the tiny-eavesdropper outage bound."""
    params = ChannelParams(0.8, 0.2)
    grid = [round(0.05 * k, 2) for k in range(1, 21)]
    means = [average_secrecy_age(params, Policy(x)) for x in grid]
    mean_ok = all(a > b for a, b in zip(means, means[1:]))
    outage_ok = True
    for conv in OutageConvention:
        vals = [outage_probability(params, Policy(x), SecrecyThreshold(5), conv) for x in grid]
        outage_ok = outage_ok and all(a <= b for a, b in zip(vals, vals[1:]))
    tiny = outage_probability(
        ChannelParams(0.8, 1e-6), Policy(1.0), SecrecyThreshold(10),
        OutageConvention.STRICT_DEFINITION,
    )
    tiny_ok = tiny < 2e-5
    ok = mean_ok and outage_ok and tiny_ok
    announce(
        capsys,
        f"[criterion 4] {'PASS' if ok else 'FAIL'} mean strictly decreasing and outage "
        f"non-decreasing over {len(grid)} p_tx values; outage(q=1e-6, eta=10) = {tiny:.3e} < 2e-5",
    )
    assert mean_ok
    assert outage_ok
    assert tiny_ok


def test_criterion_5_optimal_transmit_probability(capsys):
    """Fine grid argmax agrees with the closed-form maximizer under both
    conventions and does not depend on p."""
    step = 1e-3
    grid = np.minimum(np.arange(1, int(round(1 / step)) + 1) * step, 1.0)
    worst_gap = 0.0
    invariant_ok = True
    formula_ok = True
    for q, eta in product((0.1, 0.2, 0.3, 0.5), (2, 4, 5, 8)):
        thr = SecrecyThreshold(eta)
        for conv, expected in (
            (OutageConvention.PAPER_PRINTED, min(1.0 / (q * eta), 1.0)),
            (OutageConvention.STRICT_DEFINITION, min(1.0 / (q * (eta + 1)), 1.0)),
        ):
            formula_ok = formula_ok and abs(optimal_ptx(q, thr, conv) - expected) < 1e-12
            argmaxes = []
            for p in (0.3, 0.8):
                params = ChannelParams(p, q)
                values = [objective(params, Policy(float(x)), thr, conv) for x in grid]
                argmaxes.append(float(grid[int(np.argmax(values))]))
            invariant_ok = invariant_ok and argmaxes[0] == argmaxes[1]
            worst_gap = max(worst_gap, abs(argmaxes[0] - expected))
    gap_ok = worst_gap <= step + 1e-12
    ok = formula_ok and invariant_ok and gap_ok
    announce(
        capsys,
        f"[criterion 5] {'PASS' if ok else 'FAIL'} grid argmax within {worst_gap:.4g} "
        f"of the closed form over 16 (q, eta) pairs x 2 conventions; "
        f"argmax p-invariant: {invariant_ok}",
    )
    assert formula_ok
    assert gap_ok
    assert invariant_ok


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_criterion_6_figure_sweeps(tmp_path, capsys):
    """Qualitative shape of both figure tables, checked on the emitted CSV."""
    fig1_path = tmp_path / "fig1.csv"
    assert main(["fig1", "--out", str(fig1_path)]) == 0
    rows = read_rows(fig1_path)

    by_curve: dict[tuple, list] = {}
    by_ratio: dict[tuple, list] = {}
    for row in rows:
        q, ptx = float(row["q"]), float(row["p_tx"])
        ratio = float(row["ratio"])
        mean = float(row["avg_secrecy_age_closed_form"])
        by_curve.setdefault((q, ptx), []).append((ratio, mean))
        by_ratio.setdefault((ratio, ptx), []).append((q, mean))
    ratio_ok = all(
        all(a[1] < b[1] for a, b in zip(vals, vals[1:]))
        for vals in (sorted(v) for v in by_curve.values())
    )
    q_ok = all(
        all(a[1] > b[1] for a, b in zip(vals, vals[1:]))
        for vals in (sorted(v) for v in by_ratio.values())
        if len(vals) > 1
    )
    # exact inverse proportionality in p_tx, up to 9-digit CSV rounding
    pairs = 0
    prop_ok = True
    lookup = {(float(r["q"]), float(r["ratio"]), float(r["p_tx"])): float(r["avg_secrecy_age_closed_form"]) for r in rows}
    for (q, ratio, ptx), mean in lookup.items():
        if ptx == 0.5 and (q, ratio, 1.0) in lookup:
            pairs += 1
            prop_ok = prop_ok and mean == pytest.approx(2.0 * lookup[(q, ratio, 1.0)], rel=1e-7)
    fig1_ok = ratio_ok and q_ok and prop_ok and pairs > 0

    fig2_path = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(fig2_path), "--convention", "paper"]) == 0
    rows = read_rows(fig2_path)
    curves: dict[tuple, list] = {}
    stars: dict[tuple, float] = {}
    for row in rows:
        key = (float(row["q"]), int(row["eta_th"]))
        if row["starred"] == "1":
            stars[key] = float(row["p_tx"])
        else:
            curves.setdefault(key, []).append(
                (float(row["p_tx"]), float(row["objective_closed_form"]))
            )
    unimodal_ok = True
    for key, pts in curves.items():
        values = [v for _, v in sorted(pts)]
        falling = False
        for a, b in zip(values, values[1:]):
            if b < a:
                falling = True
            elif falling and b > a:
                unimodal_ok = False
    shift_ok = True
    for q in (0.2, 0.4):
        shift_ok = shift_ok and stars[(q, 10)] < stars[(q, 5)]
    for eta in (5, 10):
        shift_ok = shift_ok and stars[(0.4, eta)] < stars[(0.2, eta)]
    fig2_ok = unimodal_ok and shift_ok

    ok = fig1_ok and fig2_ok
    announce(
        capsys,
        f"[criterion 6] {'PASS' if ok else 'FAIL'} fig1: mean increasing in ratio ({ratio_ok}), "
        f"decreasing in q ({q_ok}), 1/p_tx proportional over {pairs} pairs ({prop_ok}); "
        f"fig2: curves unimodal ({unimodal_ok}), starred optima shift left ({shift_ok})",
    )
    assert fig1_ok
    assert fig2_ok


def test_criterion_7_byte_identical_comparison(tmp_path, capsys):
    """Identical seeds give byte-identical compare CSVs at any worker count."""
    base_args = [
        "compare", "--p", "0.8", "--q", "0.2,0.5", "--ptx", "0.5,1.0", "--eta", "5",
        "--horizon", "50000", "--replications", "4",
        "--seed", "42",
    ]
    outputs = []
    codes = []
    for tag, workers in (("w1", "1"), ("w4", "4"), ("w4_again", "4")):
        out = tmp_path / f"compare_{tag}.csv"
        codes.append(main([*base_args, "--out", str(out), "--workers", workers]))
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and codes[0] == codes[1] == codes[2]
    announce(
        capsys,
        f"[criterion 7] {'PASS' if ok else 'FAIL'} three runs (workers 1, 4, 4) produced "
        f"{'identical' if identical else 'DIFFERENT'} bytes over {len(outputs[0])} bytes of CSV",
    )
    assert identical
    assert codes[0] == codes[1] == codes[2]
