"""Seeded Monte Carlo engine for the slot-level system.

Each replication walks the exact one-slot law from state (1, 1) using one
uniform draw per slot (the same thresholds sample_slot uses, so a scalar
walk with the same stream visits the same states). It keeps the slot of the
last reset on each side, whose difference is the secrecy age, and reduces
the observation window to a gap histogram. Replications are aggregated into
normal-approximation confidence intervals across replication means.

Seeding is stateless: replication r of base seed s draws from
SeedSequence(entropy=s, spawn_key=(r,)), so any execution order or degree
of parallelism yields bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import ChannelParams, Policy, slot_thresholds

DEFAULT_HORIZON = 10**6
DEFAULT_BURN_IN = 10**4
DEFAULT_REPLICATIONS = 32

# most slots (burn_in + horizon) one replication may simulate: run_replication
# holds the whole trajectory, and its traced peak is at most 28 bytes per slot
# (26 measured at 10**6 slots), so one replication stays under 0.3 GB
MAX_SLOTS = 10**7

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
) -> tuple[np.ndarray, np.ndarray]:
    """The replication's whole trajectory as (last_d, last_e), burn-in included.

    last_d[t] and last_e[t] are the slots of the most recent reset on each
    side at or before slot t, the start state (1, 1) acting as a reset of
    both at slot 0, so the ages are t - last + 1 and the secrecy age is
    max(last_d - last_e, 0). The traced peak is about 26 bytes per slot,
    which MAX_SLOTS bounds.
    """
    n_slots = config.burn_in + config.horizon
    seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,))
    u = np.random.default_rng(seq).random(n_slots - 1)
    c1, c2, c3 = slot_thresholds(params, policy)
    d_reset = (u < c1) | ((u >= c2) & (u < c3))
    e_reset = u < c2
    del u  # drop the uniforms before the int64 arrays exist: 8 B/slot off the peak
    # slot t where that side resets, else 0; the running max is the last reset
    times = np.arange(1, n_slots, dtype=np.int64)
    last_d, last_e = np.zeros((2, n_slots), dtype=np.int64)
    np.multiply(times, d_reset, out=last_d[1:])
    np.multiply(times, e_reset, out=last_e[1:])
    np.maximum.accumulate(last_d, out=last_d)
    np.maximum.accumulate(last_e, out=last_e)
    return last_d, last_e


def run_replication(
    params: ChannelParams, policy: Policy, config: SimConfig, replication_index: int
) -> ReplicationStats:
    """Simulate one replication and reduce its observation window to a gap histogram."""
    last_d, last_e = _walk(params, policy, config, replication_index)
    gap = last_d[config.burn_in :] - last_e[config.burn_in :]
    np.clip(gap, 0, None, out=gap)
    return ReplicationStats(slots_observed=config.horizon, gap_hist=np.bincount(gap, minlength=1))


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
