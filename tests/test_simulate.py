"""Monte Carlo engine: exactness on degenerate chains, bit-level determinism,
agreement with the scalar walk, and statistical agreement with closed forms.

Statistical assertions use pinned seeds and tolerances set from the normal
approximation, wide enough to be stable but tight enough to catch a broken
sampler.
"""

import tracemalloc

import numpy as np
import pytest

from aoi_secrecy.analytics import (
    OutageConvention,
    average_secrecy_age,
    outage_event,
    outage_probability,
    secrecy_gap_pmf,
)
from aoi_secrecy.model import AgeState, ChannelParams, Policy, SecrecyThreshold, sample_slot, secrecy_age
from aoi_secrecy.simulate import (
    MAX_SLOTS,
    SimConfig,
    _walk,
    aggregate,
    estimate,
    run_replication,
)

P = ChannelParams(0.8, 0.2)
HALF = Policy(0.5)
ALWAYS = Policy(1.0)

PINNED_SEED = 20260816


@pytest.fixture(scope="module")
def pinned_run():
    config = SimConfig(
        horizon=200_000,
        burn_in=2_000,
        replications=8,
        base_seed=PINNED_SEED,
    )
    stats = [run_replication(P, ALWAYS, config, r) for r in range(config.replications)]
    return config, stats


class TestSimConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0)
        with pytest.raises(ValueError):
            SimConfig(burn_in=-1)
        with pytest.raises(ValueError):
            SimConfig(horizon=100, burn_in=100)
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        with pytest.raises(ValueError):
            SimConfig(base_seed=-1)
        with pytest.raises(ValueError):
            SimConfig(base_seed=2**64)

    def test_slot_bound(self):
        # a replication holds its whole trajectory, under 28 bytes per slot
        SimConfig(horizon=MAX_SLOTS - 10, burn_in=10)
        with pytest.raises(ValueError, match=f"= {MAX_SLOTS + 1} slots exceeds the per-replication bound {MAX_SLOTS}"):
            SimConfig(horizon=MAX_SLOTS, burn_in=1)
        with pytest.raises(ValueError, match="exceeds the per-replication bound"):
            SimConfig(horizon=2**62)

    def test_replication_memory_per_slot(self):
        # the figure stated beside MAX_SLOTS: at most 28 traced bytes per slot
        config = SimConfig(horizon=10**6, burn_in=10**3, base_seed=4)
        run_replication(P, HALF, config, 0)
        tracemalloc.start()
        try:
            run_replication(P, HALF, config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (config.burn_in + config.horizon) <= 28


class TestDegenerateChains:
    def test_both_links_certain_gap_never_opens(self):
        config = SimConfig(horizon=5_000, burn_in=0, replications=2, base_seed=3)
        est = estimate(ChannelParams(1.0, 1.0), Policy(0.7), config)
        assert est.mean_secrecy_age == 0.0
        assert est.mean_halfwidth == 0.0

    def test_outage_certain_when_gap_never_opens(self):
        config = SimConfig(horizon=5_000, burn_in=0, replications=2, base_seed=3)
        est = estimate(ChannelParams(1.0, 1.0), Policy(0.7), config, event=4)
        assert est.outage_estimate == 1.0
        assert est.outage_halfwidth == 0.0
        assert est.outage_event == 4

    def test_deaf_eavesdropper_gap_is_deterministic_ramp(self):
        # p = 1, q = 0, p_tx = 1: the receiver resets every slot, the
        # eavesdropper never does, so gap(t) = t exactly
        params = ChannelParams(1.0, 0.0)
        stats = run_replication(params, ALWAYS, SimConfig(horizon=101, burn_in=0, base_seed=1), 0)
        assert stats.mean_secrecy_age == 50.0
        stats = run_replication(params, ALWAYS, SimConfig(horizon=101, burn_in=10, base_seed=1), 0)
        assert stats.mean_secrecy_age == 60.0


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        config = SimConfig(horizon=20_000, burn_in=500, replications=4, base_seed=99)
        first = estimate(P, HALF, config, event=3)
        second = estimate(P, HALF, config, event=3)
        assert first == second

    def test_worker_count_invisible(self):
        config = SimConfig(horizon=20_000, burn_in=500, replications=6, base_seed=99)
        serial = estimate(P, HALF, config, event=3, workers=1)
        threaded = estimate(P, HALF, config, event=3, workers=4)
        assert serial == threaded

    def test_replications_use_distinct_streams(self):
        config = SimConfig(horizon=10_000, burn_in=0, replications=2, base_seed=5)
        a = run_replication(P, HALF, config, 0)
        b = run_replication(P, HALF, config, 1)
        assert not np.array_equal(a.gap_hist, b.gap_hist)

    def test_matches_scalar_walk_slot_by_slot(self):
        # the vectorized walk and a scalar sample_slot walk driven by the
        # same stream must visit identical states
        params, policy, seed, rep = ChannelParams(0.6, 0.3), Policy(0.8), 1234, 2
        config = SimConfig(horizon=300, burn_in=50, base_seed=seed)
        n_states = 350
        last_d, last_e = _walk(params, policy, config, rep)
        assert len(last_d) == len(last_e) == n_states
        assert last_d[0] == last_e[0] == 0
        ages_d = np.arange(n_states) - last_d + 1
        ages_e = np.arange(n_states) - last_e + 1
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        state = AgeState(1, 1)
        observed = []
        for t in range(n_states):
            if t > 0:
                state = sample_slot(state, params, policy, rng)
            assert (ages_d[t], ages_e[t]) == (state.delta_d, state.delta_e)
            if t >= config.burn_in:
                observed.append(secrecy_age(state))
        # the replication's histogram is that of the scalar walk's window
        assert np.array_equal(run_replication(params, policy, config, rep).gap_hist, np.bincount(observed))


class TestStatisticalAgreement:
    def test_mean_within_interval_of_closed_form(self, pinned_run):
        _, stats = pinned_run
        est = aggregate(stats, event=5)
        closed = average_secrecy_age(P, ALWAYS)
        # 3 standard errors = (3 / 1.96) * halfwidth
        assert abs(est.mean_secrecy_age - closed) <= 1.6 * est.mean_halfwidth

    def test_outage_within_interval_of_strict_form(self, pinned_run):
        _, stats = pinned_run
        est = aggregate(stats, event=5)
        closed = outage_probability(P, ALWAYS, SecrecyThreshold(5), OutageConvention.STRICT_DEFINITION)
        assert abs(est.outage_estimate - closed) <= 1.6 * est.outage_halfwidth

    def test_corner_state_frequency(self, pinned_run):
        # occupancy of (1, 1) estimates p_tx * p * q = 0.16 at p_tx = 1
        config, stats = pinned_run
        total = sum(s.slots_observed for s in stats)
        hits = 0
        slots = np.arange(config.burn_in, config.burn_in + config.horizon)
        for r in range(config.replications):
            last_d, last_e = _walk(P, ALWAYS, config, r)
            # both ages are 1 exactly where both sides reset in this slot
            hits += np.count_nonzero((last_d[config.burn_in :] == slots) & (last_e[config.burn_in :] == slots))
        freq = hits / total
        target = 1.0 * 0.8 * 0.2
        sigma = (target * (1 - target) / total) ** 0.5
        assert abs(freq - target) < 4.0 * sigma

    def test_empirical_gap_pmf_tracks_closed_pmf(self, pinned_run):
        _, stats = pinned_run
        total = sum(s.slots_observed for s in stats)
        pooled = np.zeros(max(len(s.gap_hist) for s in stats), dtype=np.int64)
        for s in stats:
            pooled[: len(s.gap_hist)] += s.gap_hist
        for d in range(1, 16):
            target = secrecy_gap_pmf(d, P, ALWAYS)
            sigma = (target * (1 - target) / total) ** 0.5
            assert abs(pooled[d] / total - target) < 5.0 * sigma

    def test_halfwidth_shrinks_like_root_replications(self):
        # doubling replications should shrink the CI by about 1/sqrt(2);
        # generous window, the ratio itself is noisy at these sizes
        base = SimConfig(horizon=40_000, burn_in=1_000, replications=8, base_seed=7)
        doubled = SimConfig(horizon=40_000, burn_in=1_000, replications=16, base_seed=7)
        hw8 = estimate(P, HALF, base).mean_halfwidth
        hw16 = estimate(P, HALF, doubled).mean_halfwidth
        ratio = hw16 / hw8
        assert 0.7071 * 0.8 <= ratio <= 0.7071 * 1.2


class TestAggregation:
    def test_single_replication_has_no_interval(self):
        config = SimConfig(horizon=5_000, burn_in=100, replications=1, base_seed=11)
        est = estimate(P, HALF, config, event=2)
        assert est.mean_halfwidth is None
        assert est.outage_halfwidth is None
        assert est.replications == 1

    def test_no_threshold_no_outage_fields(self):
        est = estimate(P, HALF, SimConfig(horizon=2_000, burn_in=0, replications=2, base_seed=1))
        assert est.outage_estimate is None
        assert est.outage_halfwidth is None
        assert est.outage_event is None

    def test_convention_shifts_the_event(self):
        config = SimConfig(horizon=2_000, burn_in=0, replications=2, base_seed=1)
        thr = SecrecyThreshold(5)
        strict = estimate(P, HALF, config, outage_event(thr, OutageConvention.STRICT_DEFINITION))
        printed = estimate(P, HALF, config, outage_event(thr, OutageConvention.PAPER_PRINTED))
        assert strict.outage_event == 5
        assert printed.outage_event == 4
        assert printed.outage_estimate <= strict.outage_estimate

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_negative_event_rejected(self):
        stats = run_replication(P, HALF, SimConfig(horizon=100, burn_in=0, base_seed=0), 0)
        with pytest.raises(ValueError):
            stats.outage_at(-1)
