"""Seeded Monte Carlo engine for the slot-level system.

Each replication walks the exact one-slot law from state (1, 1) using one
uniform draw per slot (the same thresholds sample_slot uses, so a scalar
walk with the same stream has the same secrecy ages), streamed in blocks
of _CHUNK slots broken at the burn-in's end, and reduces the observation
window to its exact age sum and, for the one outage event its caller
reads, the number of slots whose secrecy age is at most that event. The
secrecy age changes only at reset events, so each window block is reduced
over its events alone, with the age each sets held for the run to the
next. Slots and ages are counted in int64, so no admitted horizon
overflows them, and a replication's memory is about 1.1-1.6 MB whatever
its horizon and its event (the more, the more of its slots are events).
Replications are aggregated into normal-approximation
confidence intervals across replication means.

Seeding is stateless: replication r of base seed s draws from
SeedSequence(entropy=s, spawn_key=(r,)), so any execution order or degree
of parallelism yields bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from .model import ChannelParams, Policy, slot_thresholds

DEFAULT_HORIZON = 10**6
DEFAULT_BURN_IN = 10**4
DEFAULT_REPLICATIONS = 32

# most slots replications * (burn_in + horizon) one estimate may simulate, a
# pure time bound (memory streams through fixed-size blocks): on a quiet
# 2-vCPU machine about 40 s where most slots are reset events (p = q = 0.9,
# p_tx = 1) and 11 s where few are (p_tx = 0.05)
MAX_ESTIMATE_SLOTS = 3_200_000_000

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
        if self.replications * slots > MAX_ESTIMATE_SLOTS:
            sizes = f"{self.replications} * {slots} = {self.replications * slots}"
            bound = f"the per-estimate bound {MAX_ESTIMATE_SLOTS}"
            raise ValueError(f"replications * (burn_in + horizon) = {sizes} slots exceeds {bound}")


@dataclass(frozen=True)
class ReplicationStats:
    """Sufficient statistics of one replication's observation window: the
    exact sum of its secrecy ages and, for the event it ran for, outage_slots,
    its slots with secrecy age at most that event (0 for nonpositive gaps;
    both None without an event)."""

    slots_observed: int
    age_sum: int
    event: Optional[int] = None
    outage_slots: Optional[int] = None

    @property
    def mean_secrecy_age(self) -> float:
        return float(self.age_sum) / self.slots_observed


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
    """The replication's observation window as successive blocks of at most
    _CHUNK slots, each reduced to its events: (slots, ages). Burn-in blocks
    are walked but not yielded: the first yielded starts at slot burn_in.

    Slot t >= 1 consumes the t-th uniform u of the replication's stream,
    drawn block by block, with the thresholds sample_slot uses; the start
    state (1, 1) is a reset of both sides at slot 0. The secrecy age changes
    only at an event, u < c3: an eavesdropper reset (u < c2) sets it to 0, a
    receiver-only reset to the slots since the last eavesdropper reset.
    slots[0] is the block's first slot, slots[1:-1] are its events and
    slots[-1] is one past its last slot; ages[i] is the secrecy age from
    slot slots[i] up to slots[i + 1]. The arrays are int64 views of buffers
    that are reused and rewritten: a block is valid only until the next one
    is drawn.
    """
    n_slots = config.burn_in + config.horizon
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,))
    rng = np.random.default_rng(seq)
    _, c2, c3 = slot_thresholds(params, policy)
    size = min(_CHUNK, n_slots)
    u = np.zeros(size)
    below = np.empty(size, dtype=bool)
    slots = np.empty(size + 2, dtype=np.int64)
    ages = np.empty(size + 1, dtype=np.int64)
    last_e = 0  # slot of the last eavesdropper reset
    age = 0  # the secrecy age set by the last event
    starts = [*range(0, config.burn_in, size), *range(config.burn_in, n_slots, size), n_slots]
    for first, stop in zip(starts, starts[1:]):
        m = stop - first
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
        if first >= config.burn_in:
            yield s, a


def run_replication(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int, event: int | None = None
) -> ReplicationStats:
    """Simulate one replication and reduce its observation window to its age
    sum and, given an event, its slots with secrecy age at most the event,
    block by block over the events of _events: the age an event sets holds
    for the run of slots up to the next, so one dot product of the ages and
    their runs sums a block, and the runs of the ages within the event
    count it."""
    if event is not None and event < 0:
        raise ValueError(f"event index must be >= 0, got {event}")
    run_buf = np.empty(min(_CHUNK, config.burn_in + config.horizon) + 1, dtype=np.int64)
    age_sum = outage_slots = 0
    for slots, ages in _events(params, policy, config, replication_index):
        runs = np.subtract(slots[1:], slots[:-1], out=run_buf[: len(ages)])
        # integer sums are exact (and numpy keeps the dot off BLAS)
        age_sum += int(np.dot(ages, runs))
        if event is not None:
            outage_slots += int(runs.sum(where=ages <= event))
    return ReplicationStats(config.horizon, age_sum, event, None if event is None else outage_slots)


def _ci(values: Sequence[float]) -> tuple[float, Optional[float]]:
    arr = np.asarray(values, dtype=float)
    center = float(arr.mean())
    if arr.size < 2:
        return center, None
    spread = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return center, _Z95 * spread


def aggregate(stats: Sequence[ReplicationStats]) -> SimEstimate:
    """Combine replications into across-replication CIs, with the outage
    frequency of the event they were all counted for (if any)."""
    if not stats:
        raise ValueError("no replications to aggregate")
    events = {s.event for s in stats}
    if len(events) > 1:
        raise ValueError(f"replications counted for different events: {sorted(events, key=str)}")
    (event,) = events
    slots = sum(s.slots_observed for s in stats)
    mean, mean_hw = _ci([s.mean_secrecy_age for s in stats])
    out_prob: Optional[float] = None
    out_hw: Optional[float] = None
    if event is not None:
        out_prob, out_hw = _ci([s.outage_slots / s.slots_observed for s in stats])
        if out_hw is not None and sum(s.outage_slots for s in stats) in (0, slots):
            # 0 or all of n pooled slots counted: the two-sided 95% Clopper-
            # Pearson half-width of n independent slots, too narrow by up to
            # about the run length, as the secrecy age holds over runs of slots
            out_hw = 1.0 - 0.025 ** (1.0 / slots)
    return SimEstimate(
        mean_secrecy_age=mean,
        mean_halfwidth=mean_hw,
        outage_estimate=out_prob,
        outage_halfwidth=out_hw,
        outage_event=event,
        slots_observed=slots,
        replications=len(stats),
    )


def _ordered_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """[fn(item) for item in items], on a pool of `workers` threads when
    there is more than one of each; results come back in items order."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    run = partial(run_replication, params, policy, config, event=event)
    return aggregate(_ordered_map(run, range(config.replications), workers))
