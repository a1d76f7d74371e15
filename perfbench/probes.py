"""Layer probes of a traced run: small fixed calls timed in isolation.

They give the per-layer numbers that no op span carries: the cost of one
oracle operator application, the RNG floor under the simulator, one
replication's traced memory, closed-form call costs and the package import.
Each is the median of several repeats.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from aoi_secrecy import analytics, oracle, simulate
from aoi_secrecy.model import ChannelParams, Policy, SecrecyThreshold

REPEATS = 5
APPLY_N = 400
APPLY_CALLS = 100
CLOSED_FORM_CALLS = 2000
IMPORT_PROCESSES = 3

PROBE_PARAMS = ChannelParams(p=0.5, q=0.5)
PROBE_POLICY = Policy(p_tx=0.5)
PROBE_THRESHOLD = SecrecyThreshold(5)


def _per_call(fn, calls: int) -> float:
    """Median over REPEATS of the mean seconds per call of fn()."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def apply_bytes_computed(n: int) -> int:
    """Bytes one TruncatedChain.apply reads and writes, counted from its
    array operations (8-byte floats): the shifted (n-1)^2 block read and
    written, the row and column sums each reading n^2, and O(n) boundary
    updates. Computed, not measured."""
    return 8 * (2 * (n - 1) ** 2 + 2 * n * n + 8 * n)


def import_seconds(root: Path) -> float:
    """Median time to import aoi_secrecy.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import aoi_secrecy.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_PROCESSES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(root / "src")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_probes(root: Path, seed: int) -> dict[str, float]:
    values: dict[str, float] = {}

    chain = oracle.build_truncated_chain(PROBE_PARAMS, PROBE_POLICY, APPLY_N)
    dist = np.full((APPLY_N, APPLY_N), 1.0 / APPLY_N**2)
    out = np.empty_like(dist)
    values["oracle.apply_us_n400"] = 1e6 * _per_call(lambda: chain.apply(dist, out), APPLY_CALLS)
    values["oracle.apply_bytes_computed"] = float(apply_bytes_computed(APPLY_N))

    config = simulate.SimConfig(base_seed=seed)
    slots = config.burn_in + config.horizon

    def draw():
        seq = np.random.SeedSequence(entropy=config.base_seed, spawn_key=(0,))
        np.random.default_rng(seq).random(slots - 1)

    values["simulate.rng_floor_ns_per_slot"] = 1e9 * _per_call(draw, 1) / slots
    tracemalloc.start()
    try:
        simulate.run_replication(PROBE_PARAMS, PROBE_POLICY, config, 0)
        values["simulate.peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    values["analytics.objective_us"] = 1e6 * _per_call(
        lambda: analytics.objective(PROBE_PARAMS, PROBE_POLICY, PROBE_THRESHOLD), CLOSED_FORM_CALLS
    )

    def closed_form_point():
        analytics.average_secrecy_age(PROBE_PARAMS, PROBE_POLICY)
        analytics.outage_probability(PROBE_PARAMS, PROBE_POLICY, PROBE_THRESHOLD)

    values["analytics.closed_form_point_us"] = 1e6 * _per_call(closed_form_point, CLOSED_FORM_CALLS)
    values["cli.import_ms"] = 1e3 * import_seconds(root)
    return values
