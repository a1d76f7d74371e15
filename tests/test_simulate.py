"""Monte Carlo engine: pinned histogram digests of the walk and the
replication's counts against them, exactness on degenerate chains,
bit-level determinism, invariance to the block size, agreement with the
scalar walk, and statistical agreement with closed forms. The scalar walk
and the expansion of the walk's event and reset lists into per-slot ages
are references kept in reference.py.

Statistical assertions use pinned seeds and tolerances set from the normal
approximation, wide enough to be stable but tight enough to catch a broken
sampler.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoi_secrecy import simulate
from aoi_secrecy.analytics import (
    OutageConvention,
    average_secrecy_age,
    outage_event,
    outage_probability,
    secrecy_gap_pmf,
)
from aoi_secrecy.model import (
    AgeState,
    ChannelParams,
    Policy,
    SecrecyThreshold,
    sample_slot,
    secrecy_age,
)
from aoi_secrecy.simulate import (
    DEFAULT_REPLICATIONS,
    MAX_ESTIMATE_SLOTS,
    SimConfig,
    _events,
    _held_sum,
    aggregate,
    estimate,
    run_replication,
)

from reference import block_ages, scalar_window_ages, trajectory, window_hist

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
    stats = [run_replication(P, ALWAYS, config, r, event=5) for r in range(config.replications)]
    return config, stats


# sha256 (first 16 hex digits) of the dtype string and bytes of the int64
# window_hist of replication 3 of ChannelParams(p, q), Policy(p_tx),
# SimConfig(horizon, burn_in, base_seed=77), with its trailing zeros trimmed
# so that it ends at the largest gap seen, keyed (point, burn_in, horizon).
# The strata:
# p, q in {0, 1} at p_tx = 1, a sparse (p_tx 0.05), a medium (p_tx 0.5) and
# a dense (p_tx 1) interior point, a receiver-only-heavy one (receiver-only
# probability 0.81) and an interior q = 0 one, whose gap grows without bound;
# burn-in 0, inside the first 2**15-slot block and past it;
# horizons below, equal to and not a multiple of 2**15 slots. Any rewrite of
# the walk must keep every histogram, and the replication's age sum and
# counts are checked against it.
GOLDEN_POINTS = {
    "p0q0": (0.0, 0.0, 1.0),
    "p0q1": (0.0, 1.0, 1.0),
    "p1q0": (1.0, 0.0, 1.0),
    "p1q1": (1.0, 1.0, 1.0),
    "sparse": (0.6, 0.3, 0.05),
    "dense": (0.6, 0.3, 1.0),
    "rxheavy": (0.9, 0.1, 1.0),
    "q0": (0.5, 0.0, 1.0),
    "medium": (0.5, 0.5, 0.5),
}
GAP_HIST_DIGESTS = {
    ("p0q0", 0, 1000): "d6c7f10a5b7c9759",
    ("p0q0", 0, 32768): "9334e22f1e538b0f",
    ("p0q0", 0, 100003): "076c7a5ae2f009fb",
    ("p0q0", 500, 1000): "d6c7f10a5b7c9759",
    ("p0q0", 500, 32768): "9334e22f1e538b0f",
    ("p0q0", 500, 100003): "076c7a5ae2f009fb",
    ("p0q0", 40000, 100003): "076c7a5ae2f009fb",
    ("p0q1", 0, 1000): "d6c7f10a5b7c9759",
    ("p0q1", 0, 32768): "9334e22f1e538b0f",
    ("p0q1", 0, 100003): "076c7a5ae2f009fb",
    ("p0q1", 500, 1000): "d6c7f10a5b7c9759",
    ("p0q1", 500, 32768): "9334e22f1e538b0f",
    ("p0q1", 500, 100003): "076c7a5ae2f009fb",
    ("p0q1", 40000, 100003): "076c7a5ae2f009fb",
    ("p1q0", 0, 1000): "1c7d8df31f3b8cb4",
    ("p1q0", 0, 32768): "d864e0e8055d912a",
    ("p1q0", 0, 100003): "0cb65929dc769954",
    ("p1q0", 500, 1000): "a21e365eb5ecc5a7",
    ("p1q0", 500, 32768): "e4572d5f2889c753",
    ("p1q0", 500, 100003): "465323d76db64f8f",
    ("p1q0", 40000, 100003): "b2d6427b25aa8275",
    ("p1q1", 0, 1000): "d6c7f10a5b7c9759",
    ("p1q1", 0, 32768): "9334e22f1e538b0f",
    ("p1q1", 0, 100003): "076c7a5ae2f009fb",
    ("p1q1", 500, 1000): "d6c7f10a5b7c9759",
    ("p1q1", 500, 32768): "9334e22f1e538b0f",
    ("p1q1", 500, 100003): "076c7a5ae2f009fb",
    ("p1q1", 40000, 100003): "076c7a5ae2f009fb",
    ("sparse", 0, 1000): "2c0e9897af7998c1",
    ("sparse", 0, 32768): "f977ccfde3c547e0",
    ("sparse", 0, 100003): "f0681141d5aea2e9",
    ("sparse", 500, 1000): "bd67e53350c3587d",
    ("sparse", 500, 32768): "21a07d8c2a6d73c4",
    ("sparse", 500, 100003): "c024d58b962a92ab",
    ("sparse", 40000, 100003): "e5a8adc5372d16f2",
    ("dense", 0, 1000): "231220f485419998",
    ("dense", 0, 32768): "2020759c553d9980",
    ("dense", 0, 100003): "f885a0c101050834",
    ("dense", 500, 1000): "907a64856c73b519",
    ("dense", 500, 32768): "13b2483d5855d5d0",
    ("dense", 500, 100003): "12cc496f1ac3269f",
    ("dense", 40000, 100003): "cad7c430b9ae3db0",
    ("rxheavy", 0, 1000): "c3b7cc1339a3e487",
    ("rxheavy", 0, 32768): "a625ea282007ac4b",
    ("rxheavy", 0, 100003): "3736e7459010a90f",
    ("rxheavy", 500, 1000): "597546f9ce1e007d",
    ("rxheavy", 500, 32768): "1ddfb8f8b8b5657b",
    ("rxheavy", 500, 100003): "aca81b43636ab596",
    ("rxheavy", 40000, 100003): "f1cfc6df6d681e40",
    ("q0", 0, 1000): "046a4efd113e3117",
    ("q0", 0, 32768): "01d56e082db9163f",
    ("q0", 0, 100003): "aadb91b6222dc9ac",
    ("q0", 500, 1000): "9d6982b4fe6c3c00",
    ("q0", 500, 32768): "7c9dc33924ecb3d3",
    ("q0", 500, 100003): "f902485bb61ee618",
    ("q0", 40000, 100003): "1a6035e4d3c25da9",
    ("medium", 0, 1000): "3b977ceced438fa9",
    ("medium", 0, 32768): "01d51f0190bd0067",
    ("medium", 0, 100003): "64cb80e47b207cba",
    ("medium", 500, 1000): "ee7e14db4de8afd7",
    ("medium", 500, 32768): "ec06654be51c7397",
    ("medium", 500, 100003): "132c9b6d88e22cdc",
    ("medium", 40000, 100003): "fe6e1f101a17f328",
}


def hist_digest(hist: np.ndarray) -> str:
    return hashlib.sha256(hist.dtype.str.encode() + hist.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name, burn_in, horizon", sorted(GAP_HIST_DIGESTS), ids=str)
def test_gap_hist_golden(name, burn_in, horizon):
    params, policy = ChannelParams(*GOLDEN_POINTS[name][:2]), Policy(GOLDEN_POINTS[name][2])
    config = SimConfig(horizon=horizon, burn_in=burn_in, base_seed=77)
    hist = window_hist(params, policy, config, 3)
    assert hist.dtype == np.int64
    assert len(hist) == burn_in + horizon
    assert hist.sum() == horizon
    trimmed = np.trim_zeros(hist, "b")
    assert hist_digest(trimmed) == GAP_HIST_DIGESTS[name, burn_in, horizon]
    # the replication's exact age sum, and its counts at event 0, halfway to
    # the largest gap seen and at the largest age a window can hold
    for event in (0, len(trimmed) // 2, burn_in + horizon - 1):
        stats = run_replication(params, policy, config, 3, event=event)
        assert stats.age_sum == np.arange(len(hist)) @ hist
        assert (stats.event, stats.outage_slots) == (event, hist[: event + 1].sum())


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
        # a pure time bound on an estimate's slots, replications * (burn_in +
        # horizon): a replication's memory is fixed and its int64 slot
        # indices do not overflow, so one replication may take the lot
        SimConfig(horizon=2 * 10**8, burn_in=10, replications=1)
        SimConfig(horizon=MAX_ESTIMATE_SLOTS - 10, burn_in=10, replications=1)
        SimConfig(horizon=10**8 - 10, burn_in=10, replications=DEFAULT_REPLICATIONS)
        SimConfig(horizon=10**6, burn_in=10**4, replications=MAX_ESTIMATE_SLOTS // (10**6 + 10**4))
        message = rf"= 33 \* {10**8} = {33 * 10**8} slots exceeds the per-estimate bound {MAX_ESTIMATE_SLOTS}"
        with pytest.raises(ValueError, match=rf"replications \* \(burn_in \+ horizon\) {message}"):
            SimConfig(horizon=10**8 - 10, burn_in=10, replications=33)
        # the burn-in is named only where there is one
        with pytest.raises(ValueError, match=rf"replications \* horizon {message}"):
            SimConfig(horizon=10**8, burn_in=0, replications=33)
        with pytest.raises(ValueError, match="exceeds the per-estimate bound"):
            SimConfig(horizon=MAX_ESTIMATE_SLOTS, burn_in=1, replications=1)
        with pytest.raises(ValueError, match="exceeds the per-estimate bound"):
            SimConfig(horizon=2**62)
        with pytest.raises(ValueError, match=rf"= {2**70} \* 1010000 = {2**70 * 1010000} slots exceeds the per-estimate"):
            SimConfig(replications=2**70)

    def test_replication_memory_flat_in_horizon(self, traced_peak):
        # a replication streams through fixed-size blocks and keeps one
        # count: its traced peak (about 0.8 MB at (0.8, 0.2, 0.5), 1.5 MB at
        # (0.9, 0.9, 1.0), where nearly every slot is an event and a block's
        # two slot lists are nearly full-sized) does not grow with the
        # horizon, also where the gap grows without bound (q = 0) or nearly
        # so (q = 1e-6), nor with the event
        cases = [(P, HALF, (10**5, 10**6), 10), (ChannelParams(0.9, 0.9), ALWAYS, (10**5, 10**6), 10)]
        cases += [(ChannelParams(0.5, q), ALWAYS, (10**6, 4 * 10**6), 10) for q in (0.0, 1e-6)]
        cases += [(ChannelParams(0.5, 0.0), ALWAYS, (10**6,), 10**12)]
        for params, policy, horizons, event in cases:
            for horizon in horizons:
                config = SimConfig(horizon=horizon, burn_in=10**3, base_seed=4)
                run_replication(params, policy, config, 0, event=event)
                _, peak = traced_peak(lambda: run_replication(params, policy, config, 0, event=event))
                assert peak <= 2 * 2**20, (params, policy, horizon, event)


class TestDegenerateChains:
    def test_both_links_certain_gap_never_opens(self):
        config = SimConfig(horizon=5_000, burn_in=0, replications=2, base_seed=3)
        est = estimate(ChannelParams(1.0, 1.0), Policy(0.7), config)
        assert est.mean_secrecy_age == 0.0
        assert est.mean_halfwidth == 0.0

    def test_outage_certain_when_gap_never_opens(self):
        # every slot counted: the half-width is the 95% Clopper-Pearson one
        # of 10**4 successes in 10**4 pooled slots, not 0
        config = SimConfig(horizon=5_000, burn_in=0, replications=2, base_seed=3)
        est = estimate(ChannelParams(1.0, 1.0), Policy(0.7), config, event=4)
        assert est.outage_estimate == 1.0
        assert est.outage_halfwidth == 1.0 - 0.025 ** (1.0 / 10_000)
        assert 3.6e-4 < est.outage_halfwidth < 3.7e-4
        assert est.outage_event == 4

    def test_outage_never_counted_has_binomial_width(self):
        # q = 0 at p_tx = 1, p = 1: the secrecy age is the slot index, so no
        # window slot is within event 4 past the burn-in
        config = SimConfig(horizon=1_000, burn_in=10, replications=3, base_seed=3)
        est = estimate(ChannelParams(1.0, 0.0), ALWAYS, config, event=4)
        assert est.outage_estimate == 0.0
        assert est.outage_halfwidth == 1.0 - 0.025 ** (1.0 / 3_000)

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
        a = run_replication(P, HALF, config, 0, event=3)
        b = run_replication(P, HALF, config, 1, event=3)
        assert a.age_sum != b.age_sum
        assert a.outage_slots != b.outage_slots

    def test_matches_scalar_walk_slot_by_slot(self):
        # the events of the vectorized walk and a scalar sample_slot walk
        # driven by the same stream must give identical secrecy ages
        params, policy, seed, rep = ChannelParams(0.6, 0.3), Policy(0.8), 1234, 2
        config = SimConfig(horizon=300, burn_in=50, base_seed=seed)
        n_states = 350
        ages = trajectory(params, policy, config, rep)
        assert len(ages) == n_states
        assert ages[0] == 0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)))
        state = AgeState(1, 1)
        observed = []
        for t in range(n_states):
            if t > 0:
                state = sample_slot(state, params, policy, rng)
            assert ages[t] == secrecy_age(state)
            if t >= config.burn_in:
                observed.append(secrecy_age(state))
        # the replication's age sum and counts are those of the scalar
        # walk's window, at events below and above its largest age
        for event in (0, 3, 399):
            stats = run_replication(params, policy, config, rep, event=event)
            assert stats.age_sum == sum(observed)
            assert stats.outage_slots == sum(age <= event for age in observed)

    def test_matches_scalar_walk_across_blocks(self, monkeypatch):
        # the same 350 states when the walk is cut into blocks of 7 slots
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        self.test_matches_scalar_walk_slot_by_slot()

    # burn-ins ending before, on and after the edge of a 7-slot block
    @pytest.mark.parametrize("burn_in", [0, 6, 7, 8])
    def test_walk_yields_only_the_window(self, monkeypatch, burn_in):
        # the first block starts at the burn-in's end with the age in force
        # there, and the blocks hold the window's ages and nothing before it
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        params, policy = ChannelParams(0.6, 0.3), Policy(0.8)
        config = SimConfig(horizon=30, burn_in=burn_in, base_seed=8)
        blocks = list(_events(params, policy, config, 1))
        window = np.concatenate([block_ages(block) for block in blocks]).tolist()
        assert [block[0] for block in blocks] == list(range(burn_in, burn_in + 30, 7))
        assert window == scalar_window_ages(params, policy, config, 1)

    def test_walk_counts_in_int64(self):
        # slot lists, the marks carried across blocks included, are int64, so
        # no admitted slot count, up to MAX_ESTIMATE_SLOTS > 2**31 in one
        # replication, can overflow them
        config = SimConfig(horizon=100, burn_in=10, base_seed=8)
        for _, events, resets in _events(ChannelParams(0.6, 0.3), Policy(0.8), config, 1):
            assert events.dtype == resets.dtype == np.int64
            # each list opens with its carried mark and closes at the block's end
            assert resets[0] <= events[0] <= 1 and events[-1] == resets[-1]
        assert MAX_ESTIMATE_SLOTS > 2**31

    def test_held_sum_carried_at_full_scale(self):
        # a mark carried in from MAX_ESTIMATE_SLOTS slots before a full
        # block: its product with the first gap passes int64, so the held
        # sum must keep it out of the integer dot
        m = simulate._CHUNK
        marks = np.array([-MAX_ESTIMATE_SLOTS, *range(3, m + 1, 5), m + 1], dtype=np.int64)
        got, gaps = _held_sum(marks, np.empty(m + 1, dtype=np.int64))
        exact = [int(v) for v in marks]
        inner, last, want = set(exact[1:-1]), exact[0], 0
        for position in range(1, m + 1):
            last = position if position in inner else last
            want += last
        assert got == want
        assert gaps.tolist() == [b - a for a, b in zip(exact, exact[1:])]
        assert abs(exact[0] * (exact[1] - exact[0])) > np.iinfo(np.int64).max

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("params, policy", [
        (ChannelParams(0.6, 0.3), Policy(1.0)),
        (ChannelParams(0.6, 0.3), Policy(0.05)),
        # q = 0: the gap grows without bound; p = 0: it never opens
        (ChannelParams(0.7, 0.0), Policy(0.5)),
        (ChannelParams(0.0, 0.4), Policy(0.5)),
        # nearly every slot an event (c3 = 0.99): most runs are one slot
        (ChannelParams(0.9, 0.9), Policy(1.0)),
    ])
    # burn-ins ending before, on and after the edges of 7-slot blocks
    @pytest.mark.parametrize("burn_in", [0, 6, 7, 8, 13, 14, 15])
    def test_block_size_invisible(self, monkeypatch, params, policy, chunk, burn_in):
        config = SimConfig(horizon=1_003, burn_in=burn_in, base_seed=8)
        observed = np.array(scalar_window_ages(params, policy, config, 1))
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        # events drawn across the window's ages, and the largest it can hold
        events = np.random.default_rng(burn_in).integers(0, max(observed) + 2, size=3).tolist()
        for event in events + [config.burn_in + config.horizon - 1]:
            got = run_replication(params, policy, config, 1, event=event)
            assert got.age_sum == observed.sum()
            assert got.outage_slots == np.count_nonzero(observed <= event)

    @given(
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        p_tx=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
        horizon=st.integers(1, 400),
        burn_frac=st.floats(0.0, 1.0, exclude_max=True),
        chunk=st.sampled_from([1, 7, 64]),
        event=st.integers(0, 10) | st.integers(0, 800),
    )
    # event probabilities c3 = 0.72 and 0.99 (nearly every slot an event),
    # and a point where the age grows without bound
    @example(p=0.6, q=0.3, p_tx=1.0, horizon=400, burn_frac=0.3, chunk=7, event=7)
    @example(p=0.9, q=0.9, p_tx=1.0, horizon=400, burn_frac=0.3, chunk=7, event=7)
    @example(p=0.5, q=0.0, p_tx=1.0, horizon=400, burn_frac=0.0, chunk=64, event=7)
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_walk_histogram(self, p, q, p_tx, horizon, burn_frac, chunk, event):
        params, policy = ChannelParams(p, q), Policy(p_tx)
        config = SimConfig(horizon=horizon, burn_in=int(burn_frac * horizon), base_seed=21)
        observed = scalar_window_ages(params, policy, config, 0)
        # the count at the drawn event and at the largest age a window can hold
        for k in (event, config.burn_in + horizon - 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "_CHUNK", chunk)
                got = run_replication(params, policy, config, 0, event=k)
            assert got.age_sum == sum(observed)
            assert got.outage_slots == sum(age <= k for age in observed)

    @given(
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        q=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        p_tx=st.sampled_from([1.0]) | st.floats(1e-3, 1.0),
        chunk=st.sampled_from([1, 7]),
        horizon_frac=st.floats(0.0, 1.0, exclude_max=True),
        burn_frac=st.floats(0.0, 1.0, exclude_max=True),
        # a window walks at most 41 slots: events of 0, within its ages and
        # past every one
        event=st.just(0) | st.integers(1, 40) | st.integers(41, 10**10),
    )
    # q = 0: one eavesdropper cycle from slot 0 on, carried through every
    # block; c3 = 0.99 with a sparse eavesdropper (c2 = 0.09): long cycles
    # dense with events
    @example(p=0.5, q=0.0, p_tx=1.0, chunk=1, horizon_frac=0.9, burn_frac=0.5, event=1)
    @example(p=0.99, q=0.09, p_tx=1.0, chunk=7, horizon_frac=0.9, burn_frac=0.3, event=3)
    @settings(max_examples=200, deadline=None)
    def test_window_sums_match_scalar_walk(self, p, q, p_tx, chunk, horizon_frac, burn_frac, event):
        # the two held sums and the long-cycle count against the scalar walk
        # on horizons of up to three blocks, so that state is carried across
        # blocks, blocks hold no event and cycles start blocks before they end
        params, policy = ChannelParams(p, q), Policy(p_tx)
        horizon = 1 + int(horizon_frac * 3 * chunk)
        config = SimConfig(horizon=horizon, burn_in=int(burn_frac * horizon), base_seed=13)
        observed = scalar_window_ages(params, policy, config, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK", chunk)
            got = run_replication(params, policy, config, 2, event=event)
        assert got.age_sum == sum(observed)
        assert got.outage_slots == sum(age <= event for age in observed)


class TestStatisticalAgreement:
    def test_mean_within_interval_of_closed_form(self, pinned_run):
        _, stats = pinned_run
        est = aggregate(stats)
        closed = average_secrecy_age(P, ALWAYS)
        # 3 standard errors = (3 / 1.96) * halfwidth
        assert abs(est.mean_secrecy_age - closed) <= 1.6 * est.mean_halfwidth

    def test_outage_within_interval_of_strict_form(self, pinned_run):
        _, stats = pinned_run
        est = aggregate(stats)
        assert est.outage_event == 5
        closed = outage_probability(P, ALWAYS, SecrecyThreshold(5), OutageConvention.STRICT_DEFINITION)
        assert abs(est.outage_estimate - closed) <= 1.6 * est.outage_halfwidth

    def test_event_frequencies(self, pinned_run):
        # at p_tx = 1 a slot is an event with probability 1 - (1 - p)(1 - q)
        # = 0.84, and an event sets the age to 0 exactly where it resets the
        # eavesdropper, with probability q = 0.2
        config, stats = pinned_run
        total = sum(s.slots_observed for s in stats)
        events = zero_ages = 0
        for r in range(config.replications):
            # the walk yields the observation window's blocks alone
            for block in _events(P, ALWAYS, config, r):
                # less the carried mark and the block's end
                events += len(block[1]) - 2
                zero_ages += len(block[2]) - 2
        for hits, target in ((events, 0.84), (zero_ages, 0.2)):
            sigma = (target * (1 - target) / total) ** 0.5
            assert abs(hits / total - target) < 4.0 * sigma

    def test_empirical_gap_pmf_tracks_closed_pmf(self, pinned_run):
        config, stats = pinned_run
        total = sum(s.slots_observed for s in stats)
        pooled = sum(window_hist(P, ALWAYS, config, r) for r in range(config.replications))
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
        config = SimConfig(horizon=100, burn_in=0, replications=2, base_seed=0)
        for event in (-1, -(10**12)):
            with pytest.raises(ValueError, match=f"event index must be >= 0, got {event}"):
                run_replication(P, HALF, config, 0, event=event)
            with pytest.raises(ValueError, match=f"event index must be >= 0, got {event}"):
                estimate(P, HALF, config, event=event)

    def test_event_out_of_range_refused_before_any_work(self, monkeypatch):
        # with no upper bound on the event, only a negative one is out of
        # range; it is refused by a replication and by estimate before the walk
        monkeypatch.setattr(simulate, "_events", lambda *a: pytest.fail("the walk ran"))
        config = SimConfig(horizon=100, burn_in=0, replications=3, base_seed=0)
        with pytest.raises(ValueError, match="event index must be >= 0, got -1"):
            run_replication(P, HALF, config, 0, event=-1)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="event index must be >= 0, got -1"):
                estimate(P, HALF, config, event=-1, workers=workers)

    def test_mixed_events_refused(self):
        # aggregate reads the event the replications were counted for, and
        # refuses replications counted for different ones
        config = SimConfig(horizon=2_000, burn_in=0, replications=2, base_seed=1)
        five = [run_replication(P, HALF, config, r, event=5) for r in range(2)]
        assert aggregate(five).outage_event == 5
        assert aggregate(five).outage_estimate < 1.0
        for other in (6, None):
            with pytest.raises(ValueError, match="replications counted for different events"):
                aggregate([five[0], run_replication(P, HALF, config, 1, event=other)])
        # an event past every age the window holds counts every slot, with
        # the Clopper-Pearson half-width of the 4000 pooled slots, also one
        # past int64
        for event in (10**12, 2**70):
            far = estimate(P, HALF, config, event=event)
            assert (far.outage_event, far.outage_estimate) == (event, 1.0)
            assert far.outage_halfwidth == 1.0 - 0.025 ** (1.0 / 4_000)

    def test_mean_only_run_keeps_no_counts(self):
        config = SimConfig(horizon=2_000, burn_in=100, replications=2, base_seed=1)
        for r in range(2):
            bare = run_replication(P, HALF, config, r)
            counted = run_replication(P, HALF, config, r, event=5)
            assert (bare.event, bare.outage_slots) == (None, None)
            assert bare.age_sum == counted.age_sum
            assert bare.mean_secrecy_age == counted.mean_secrecy_age
        assert estimate(P, HALF, config).mean_secrecy_age == estimate(P, HALF, config, event=5).mean_secrecy_age
