"""Seeded Monte Carlo engine for the slot-level system.

Each replication walks the exact one-slot law from state (1, 1) using one
uniform draw per slot (the same thresholds sample_slot uses, so a scalar
walk with the same stream visits the same states). It tracks the slot of the
last reset on each side, whose difference is the secrecy age, and reduces
the observation window to a gap histogram. The walk streams through blocks
of _CHUNK slots, so a replication's memory is about 1 MB whatever its
horizon, besides the histogram (one entry per gap up to the largest seen).
Replications are aggregated into normal-approximation confidence intervals
across replication means.

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

# most slots (burn_in + horizon) one replication may simulate. Memory does not
# bound it (a replication streams through fixed-size blocks); time does, at
# 1-2 s for 10**8 slots on a 2-vCPU machine. It must stay below 2**31
# so the int32 slot indices of the walk cannot overflow
MAX_SLOTS = 10**8

# slots per block of the streamed walk: its buffers (about 1 MB) stay in
# cache, and one replication's memory does not grow with its horizon
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
    """Sufficient statistics of one replication's observation window.

    gap_hist[k] counts observed slots with secrecy age exactly k, so
    gap_hist[0] is the mass of nonpositive gaps and the histogram alone
    determines the mean and any threshold frequency.
    """

    slots_observed: int
    gap_hist: np.ndarray

    @property
    def mean_secrecy_age(self) -> float:
        ks = np.arange(len(self.gap_hist))
        return float(ks @ self.gap_hist) / self.slots_observed

    def outage_at(self, k: int) -> float:
        """Observed frequency of {secrecy age <= k}."""
        if k < 0:
            raise ValueError("event index must be >= 0")
        above = self.gap_hist[k + 1 :].sum() if k + 1 < len(self.gap_hist) else 0
        return float(self.slots_observed - above) / self.slots_observed


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


def _walk(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The replication's trajectory, burn-in included, as successive blocks
    (first_slot, last_d, last_e) of at most _CHUNK slots.

    last_d[i] and last_e[i] are the slots of the most recent reset on each
    side at or before slot first_slot + i, the start state (1, 1) acting as a
    reset of both at slot 0, so the ages are t - last + 1 and the secrecy age
    is max(last_d - last_e, 0). Slot t >= 1 consumes the t-th uniform of the
    replication's stream, drawn block by block. The arrays are int32
    (MAX_SLOTS < 2**31) and their buffers are reused: a block is valid only
    until the next one is drawn.
    """
    n_slots = config.burn_in + config.horizon
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,))
    rng = np.random.default_rng(seq)
    c1, c2, c3 = slot_thresholds(params, policy)
    size = min(_CHUNK, n_slots)
    u = np.zeros(size)
    last_d, last_e = np.zeros((2, size), dtype=np.int32)
    for first in range(0, n_slots, size):
        m = min(size, n_slots - first)
        # slot 0 draws nothing: as slot number 0 its last-reset slots are 0
        # whatever u[0] holds
        rng.random(out=u[int(first == 0) : m])
        block = u[:m]
        d_reset = (block < c1) | ((block >= c2) & (block < c3))
        e_reset = block < c2
        slots = np.arange(first, first + m, dtype=np.int32)
        # slot t where that side resets, else 0; the running max is the last
        # reset, carried in through element 0 from the previous (full) block,
        # or 0 before the first
        for last, reset in ((last_d, d_reset), (last_e, e_reset)):
            carried = last[-1]
            np.multiply(slots, reset, out=last[:m])
            last[0] = max(last[0], carried)
            np.maximum.accumulate(last[:m], out=last[:m])
        yield first, last_d[:m], last_e[:m]


def run_replication(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int
) -> ReplicationStats:
    """Simulate one replication and reduce its observation window to a gap
    histogram, block by block, so memory does not grow with the horizon."""
    hist = np.zeros(1, dtype=np.int64)
    top = 1  # the largest gap + 1; hist beyond it is spare capacity
    buf = np.empty(min(_CHUNK, config.burn_in + config.horizon), dtype=np.int32)
    for first, last_d, last_e in _walk(params, policy, config, replication_index):
        skip = max(config.burn_in - first, 0)
        if skip >= len(last_d):
            continue
        last_d, last_e = last_d[skip:], last_e[skip:]
        # every gap in the block is at least last_d[0] - last_e[-1], since
        # last-reset slots never decrease; counting from there keeps the
        # counts block-sized where the gap grows without bound (q = 0)
        low = max(int(last_d[0]) - int(last_e[-1]), 0)
        # the gap max(last_d - last_e, 0) is last_d - min(last_d, last_e)
        gap = np.minimum(last_d, last_e, out=buf[: len(last_d)])
        np.subtract(last_d, gap, out=gap)
        np.subtract(gap, low, out=gap)
        counts = np.bincount(gap)
        end = low + len(counts)
        if end > len(hist):  # grow geometrically: q = 0 raises the top gap every block
            hist = np.concatenate([hist, np.zeros(max(end, 2 * len(hist)) - len(hist), dtype=np.int64)])
        hist[low:end] += counts
        top = max(top, end)
    return ReplicationStats(slots_observed=config.horizon, gap_hist=hist[:top].copy())


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
            stats = list(pool.map(lambda r: run_replication(params, policy, config, r), indices))
    else:
        stats = [run_replication(params, policy, config, r) for r in indices]
    return aggregate(stats, event)
