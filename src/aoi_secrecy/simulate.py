"""Seeded Monte Carlo engine for the slot-level system.

Each replication walks the exact one-slot law from state (1, 1) using one
uniform draw per slot (the thresholds sample_slot uses, so a scalar walk
with the same stream has the same secrecy ages), streamed in blocks of
_CHUNK slots broken at the burn-in's end. It reduces its observation
window to its exact age sum and, for the one outage event its caller
reads, its slots with secrecy age at most that event. The secrecy age at
a slot is the slot of the last event (any reset) minus that of the last
eavesdropper reset, so a block reduces to two slot lists, each opening
with its mark carried in and closing at the block's end: its age sum is
the difference of their held sums, and its slots past the event lie in
the eavesdropper cycles (the gaps of the reset list) longer than event + 1
slots. Slots and ages are int64, so no admitted horizon overflows them,
and a replication's memory is about 0.6-1.5 MB (the more, the more of its
slots are events) whatever its horizon. Replications are aggregated into
normal-approximation confidence intervals across replication means.

Seeding is stateless: replication r of base seed s draws from
SeedSequence(entropy=s, spawn_key=(r,)), so any execution order or degree
of parallelism yields bit-identical results.
"""

from __future__ import annotations

import math
import os
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
# pure time bound (memory streams through fixed-size blocks): on one thread
# of a 2-vCPU machine about 25 s where most slots are reset events (p = q =
# 0.9, p_tx = 1), 15 s where few are (p_tx = 0.05), and up to 40 s counting
# an outage where most eavesdropper cycles are longer than event + 1 slots
# (p = 0.9, q = 0.1, p_tx = 1, event 0)
MAX_ESTIMATE_SLOTS = 3_200_000_000

# slots per block of the streamed walk, whose buffers hold _CHUNK + 2 draws
# (the block's and two sentinels): they and the slot lists (about 0.6 MB,
# 1.5 MB where nearly every slot is an event) stay in cache, and one
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
            walked = "(burn_in + horizon)" if self.burn_in else "horizon"
            raise ValueError(f"replications * {walked} = {sizes} slots exceeds {bound}")


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
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The replication's observation window as successive blocks of at most
    _CHUNK slots, each reduced to its events and eavesdropper resets:
    (first, events, resets). Burn-in blocks are walked but not yielded: the
    first yielded starts at slot burn_in.

    Slot t >= 1 consumes the t-th uniform u of the replication's stream,
    drawn block by block, with the thresholds sample_slot uses; the start
    state (1, 1) is a reset of both sides at slot 0. A block of m slots,
    first .. first + m - 1, sits at positions 1 .. m of its draw buffer,
    between two sentinel draws below every threshold at 0 and m + 1. Its
    events (any reset, u < c3) and its resets (eavesdropper resets, u < c2)
    are int64 arrays of the positions below each threshold, so each list
    ends with m + 1, the block's end, and starts with the position of the
    last mark before the block (<= 1), written over the front sentinel.
    """
    n_slots = config.burn_in + config.horizon
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,))
    rng = np.random.default_rng(seq)
    _, c2, c3 = slot_thresholds(params, policy)
    size = min(_CHUNK, n_slots)
    u = np.full(size + 2, -1.0)
    below = np.empty(size + 2, dtype=bool)
    last_e = last_r = 1  # positions of the last event and eavesdropper reset
    starts = [*range(0, config.burn_in, size), *range(config.burn_in, n_slots, size), n_slots]
    for first, stop in zip(starts, starts[1:]):
        m = stop - first
        u[m + 1] = -1.0
        # slot 0 draws nothing: its sentinel makes it a reset of both
        # sides, which the start state is
        rng.random(out=u[1 + int(first == 0) : m + 1])
        events = np.flatnonzero(np.less(u[: m + 2], c3, out=below[: m + 2]))
        resets = np.flatnonzero(np.less(u[: m + 2], c2, out=below[: m + 2]))
        events[0], resets[0] = last_e, last_r
        if first >= config.burn_in:
            yield first, events, resets
        last_e, last_r = int(events[-2]) - m, int(resets[-2]) - m


def _held_sum(marks: np.ndarray, scratch: np.ndarray) -> tuple[int, np.ndarray]:
    """Sum over positions 1 .. m of the last mark at or before each, for
    marks carried in at marks[0] and ending at marks[-1] = m + 1: marks[0] *
    (marks[1] - 1) + sum marks[i] * (marks[i + 1] - marks[i]) for i >= 1.
    Also returns the gaps between marks, written into scratch."""
    gaps = np.subtract(marks[1:], marks[:-1], out=scratch[: len(marks) - 1])
    # integer sums are exact (and numpy keeps the dot off BLAS); the carried
    # term stays a Python int, as marks[0] * gaps[0] can pass int64
    return int(marks[0]) * (int(marks[1]) - 1) + int(np.dot(marks[1:-1], gaps[1:])), gaps


def run_replication(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int, event: int | None = None
) -> ReplicationStats:
    """Simulate one replication and reduce its observation window, block by
    block over the lists of _events, to its age sum (the events' held sum
    minus the resets') and, given an event, its slots with secrecy age at
    most the event. In an eavesdropper cycle [r, r') the age exceeds event
    from the first event after r + event up to r'. Every cycle of a block,
    carried in or running past its end too, is a gap of its reset list, and
    an event before the block counts from the block's start."""
    if event is not None and event < 0:
        raise ValueError(f"event index must be >= 0, got {event}")
    n_slots = config.burn_in + config.horizon
    scratch = np.empty(min(_CHUNK, n_slots) + 1, dtype=np.int64)
    # no secrecy age of the walk reaches n_slots, so a later event counts the
    # same slots, and slot arithmetic with it stays in int64
    within = None if event is None else min(event, n_slots)
    age_sum = over = 0
    for _, events, resets in _events(params, policy, config, replication_index):
        held_events, _ = _held_sum(events, scratch)
        held_resets, cycles = _held_sum(resets, scratch)
        age_sum += held_events - held_resets
        if within is not None:
            # a cycle ends at a reset, itself an event, or at the block's
            # end, so each long one has an event past its start + event
            long = np.flatnonzero(cycles > within + 1)
            past = events[np.searchsorted(events, resets[long] + (within + 1))]
            over += int(resets[long + 1].sum()) - int(np.maximum(past, 1).sum())
    return ReplicationStats(config.horizon, age_sum, event, None if event is None else config.horizon - over)


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


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is not exposed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """[fn(item) for item in items], on a pool of `workers` threads, at most
    one per item and per usable CPU, when that is more than one; results come
    back in items order."""
    workers = min(workers, len(items), _usable_cpus())
    if workers > 1:
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
