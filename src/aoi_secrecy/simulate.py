"""Seeded Monte Carlo engine for the slot-level system.

Each replication walks the exact one-slot law from state (1, 1) using one
uniform draw per slot (the same thresholds sample_slot uses, so a scalar
walk with the same stream has the same secrecy ages), streamed in blocks
of _CHUNK slots, and reduces the observation window to its exact age sum
and the counts of ages 0..event, the largest outage event the caller will
read. The secrecy age changes only at reset events, so each block is
reduced over its events alone, with the age each sets held for the run to
the next. A replication's memory is about 1.1-1.6 MB whatever its horizon
(the more, the more of its slots are events), plus 16 B per counted age.
Replications are aggregated into normal-approximation confidence
intervals across replication means.

Seeding is stateless: replication r of base seed s draws from
SeedSequence(entropy=s, spawn_key=(r,)), so any execution order or degree
of parallelism yields bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import ChannelParams, Policy, slot_thresholds

DEFAULT_HORIZON = 10**6
DEFAULT_BURN_IN = 10**4
DEFAULT_REPLICATIONS = 32

# most slots (burn_in + horizon) one replication may simulate, a pure time
# bound (memory streams through fixed-size blocks): on a quiet 2-vCPU
# machine 10**8 slots take about 1.2 s where most slots are reset events
# (p = q = 0.9, p_tx = 1) and 0.35 s where few are (p_tx = 0.05), twice that
# under load. It must stay below 2**31 so the walk's int32 slots cannot overflow
MAX_SLOTS = 10**8
# largest event a replication counts ages up to: each counted age takes 16 B
# (int64 counts and a block's float64 ones), 3.2 MB here, and at most about
# doubles a replication's time (2 vCPUs, numpy 2.4.6); the paper's eta is single-digit
MAX_EVENT = 2 * 10**5

# slots per block of the streamed walk: its buffers and event arrays (about
# 1.1 MB, 1.6 MB where every slot is an event) stay in cache, and one
# replication's memory does not grow with its horizon
_CHUNK = 1 << 15

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimConfig:
    """Replication geometry and seeding.

    A replication simulates burn_in + horizon states starting at (1, 1) and
    keeps statistics over the last `horizon` of them (the initial state
    counts as the first observed state when burn_in = 0).
    """

    horizon: int = DEFAULT_HORIZON
    burn_in: int = DEFAULT_BURN_IN
    replications: int = DEFAULT_REPLICATIONS
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not (isinstance(self.burn_in, int) and self.burn_in >= 0):
            raise ValueError(f"burn_in must be an integer >= 0, got {self.burn_in!r}")
        if self.burn_in >= self.horizon:
            raise ValueError(f"burn_in {self.burn_in} must be smaller than horizon {self.horizon}")
        if not (isinstance(self.replications, int) and self.replications >= 1):
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")
        if not (isinstance(self.base_seed, int) and 0 <= self.base_seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.base_seed!r}")
        slots = self.burn_in + self.horizon
        if slots > MAX_SLOTS:
            raise ValueError(f"burn_in + horizon = {slots} slots exceeds the per-replication bound {MAX_SLOTS}")


@dataclass(frozen=True)
class ReplicationStats:
    """Sufficient statistics of one replication's observation window: the
    exact sum of its secrecy ages and gap_hist[k], its slots with secrecy age
    exactly k (0 for nonpositive gaps) for k = 0..event (none without one)."""

    slots_observed: int
    age_sum: int
    gap_hist: np.ndarray

    @property
    def mean_secrecy_age(self) -> float:
        return float(self.age_sum) / self.slots_observed

    def outage_at(self, k: int) -> float:
        """Observed frequency of {secrecy age <= k}, for k = 0..event."""
        if not 0 <= k < len(self.gap_hist):
            raise ValueError(f"event index {k} outside the counted ages 0..{len(self.gap_hist) - 1}")
        return float(self.gap_hist[: k + 1].sum()) / self.slots_observed


@dataclass(frozen=True)
class SimEstimate:
    """Aggregated estimates with 95% half-widths (None when replications = 1)."""

    mean_secrecy_age: float
    mean_halfwidth: Optional[float]
    outage_estimate: Optional[float]
    outage_halfwidth: Optional[float]
    outage_event: Optional[int]
    slots_observed: int = 0
    replications: int = 0


def _events(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The replication's trajectory, burn-in included, as successive blocks
    of at most _CHUNK slots, each reduced to its events: (slots, ages).

    Slot t >= 1 consumes the t-th uniform u of the replication's stream,
    drawn block by block, with the thresholds sample_slot uses; the start
    state (1, 1) is a reset of both sides at slot 0. The secrecy age changes
    only at an event, u < c3: an eavesdropper reset (u < c2) sets it to 0, a
    receiver-only reset to the slots since the last eavesdropper reset.
    slots[0] is the block's first slot, slots[1:-1] are its events and
    slots[-1] is one past its last slot; ages[i] is the secrecy age from
    slot slots[i] up to slots[i + 1]. The arrays are int32 (MAX_SLOTS <
    2**31) views of buffers that are reused and rewritten: a block is valid
    only until the next one is drawn.
    """
    n_slots = config.burn_in + config.horizon
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,))
    rng = np.random.default_rng(seq)
    _, c2, c3 = slot_thresholds(params, policy)
    size = min(_CHUNK, n_slots)
    u = np.zeros(size)
    below = np.empty(size, dtype=bool)
    slots = np.empty(size + 2, dtype=np.int32)
    ages = np.empty(size + 1, dtype=np.int32)
    last_e = 0  # slot of the last eavesdropper reset
    age = 0  # the secrecy age set by the last event
    for first in range(0, n_slots, size):
        m = min(size, n_slots - first)
        # slot 0 draws nothing: u[0] stays 0, so it is at most an event that
        # sets the age to 0 and leaves the last eavesdropper reset at 0
        rng.random(out=u[int(first == 0) : m])
        block = u[:m]
        events = np.flatnonzero(np.less(block, c3, out=below[:m]))
        n = len(events) + 1
        s, a = slots[: n + 1], ages[:n]
        s[0], s[n] = first, first + m
        np.add(events, first, out=s[1:n])
        # an event's slot where it resets the eavesdropper, else 0; the
        # running max, started from the last reset so far, is the last
        # eavesdropper reset at or before each event
        np.multiply(s[1:n], np.less(block, c2, out=below[:m])[events], out=a[1:])
        a[0] = last_e
        np.maximum.accumulate(a, out=a)
        last_e = int(a[-1])
        np.subtract(s[:n], a, out=a)
        a[0] = age
        age = int(a[-1])
        yield s, a


def run_replication(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int, event: int | None = None
) -> ReplicationStats:
    """Simulate one replication and reduce its observation window to its age
    sum and, given an event, the counts of ages 0..event, block by block over
    the events of _events: the age an event sets holds for the run of slots
    up to the next, so one dot product and one bincount of the ages weighted
    by their runs (clipped to the window) count a block."""
    if event is not None and not 0 <= event <= MAX_EVENT:
        raise ValueError(f"event index must be >= 0 and at most {MAX_EVENT}, got {event}")
    cap = 0 if event is None else event + 1
    size = min(_CHUNK, config.burn_in + config.horizon) + 1
    run_buf, clip_buf = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.intp)
    age_sum, hist = 0, np.zeros(cap, dtype=np.int64)
    for slots, ages in _events(params, policy, config, replication_index):
        lo = max(config.burn_in, int(slots[0]))  # the block's first observed slot
        if lo >= slots[-1]:
            continue
        # keep the age in force at slot lo and the ones after it, its run
        # counted from lo (the buffer is rewritten for the next block)
        k = int(np.searchsorted(slots, lo, side="right")) - 1
        slots, ages = slots[k:], ages[k:]
        slots[0] = lo
        runs = np.subtract(slots[1:], slots[:-1], out=run_buf[: len(ages)])
        # an integer dot is exact (and numpy keeps it off BLAS)
        age_sum += int(np.dot(ages, runs))
        if cap:
            # ages above the event share the dropped last bin; weighted counts
            # are float64 sums of whole runs, so exact
            clipped = np.minimum(ages, cap, out=clip_buf[: len(ages)])
            np.add(hist, np.bincount(clipped, weights=runs, minlength=cap + 1)[:cap], out=hist, casting="unsafe")
    return ReplicationStats(slots_observed=config.horizon, age_sum=age_sum, gap_hist=hist)


def _ci(values: Sequence[float]) -> tuple[float, Optional[float]]:
    arr = np.asarray(values, dtype=float)
    center = float(arr.mean())
    if arr.size < 2:
        return center, None
    spread = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return center, _Z95 * spread


def aggregate(stats: Sequence[ReplicationStats], event: int | None = None) -> SimEstimate:
    """Combine replications into across-replication CIs."""
    if not stats:
        raise ValueError("no replications to aggregate")
    mean, mean_hw = _ci([s.mean_secrecy_age for s in stats])
    out_prob: Optional[float] = None
    out_hw: Optional[float] = None
    if event is not None:
        out_prob, out_hw = _ci([s.outage_at(event) for s in stats])
    return SimEstimate(
        mean_secrecy_age=mean,
        mean_halfwidth=mean_hw,
        outage_estimate=out_prob,
        outage_halfwidth=out_hw,
        outage_event=event,
        slots_observed=sum(s.slots_observed for s in stats),
        replications=len(stats),
    )


def estimate(
    params: ChannelParams,
    policy: Policy,
    config: SimConfig,
    event: int | None = None,
    workers: int = 1,
) -> SimEstimate:
    """Run all replications (optionally on a thread pool) and aggregate, with
    the outage frequency of {secrecy age <= event} when an event is given.

    Results are identical for every worker count: each replication owns a
    stateless stream and the reduction runs in replication order.
    """
    indices = range(config.replications)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(lambda r: run_replication(params, policy, config, r, event), indices))
    else:
        stats = [run_replication(params, policy, config, r, event) for r in indices]
    return aggregate(stats, event)
