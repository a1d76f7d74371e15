"""Secrecy age of information in a three-node wiretap status-update system.

Three independent evaluation routes for the same stationary metrics: exact
closed forms (analytics), a truncated-chain numerical oracle with rigorous
error bounds (oracle), and a seeded Monte Carlo simulator (simulate), plus a
sweep/CLI layer that cross-validates them and reproduces the standard curves.
"""

from .analytics import (
    DEFAULT_CONVENTION,
    OutageConvention,
    average_secrecy_age,
    closed_form_report,
    objective,
    objective_curve,
    optimal_ptx,
    outage_probability,
    secrecy_gap_pmf,
    stationary_block,
)
from .model import (
    AgeState,
    ChannelParams,
    Policy,
    SecrecyReport,
    SecrecyThreshold,
    sample_slot,
    secrecy_age,
    transition_distribution,
)
from .oracle import (
    SteadyState,
    TruncatedChain,
    build_truncated_chain,
    oracle_metrics,
    steady_state,
    truncation_for_mean_tol,
)
from .simulate import (
    ReplicationStats,
    SimConfig,
    SimEstimate,
    aggregate,
    estimate,
    run_replication,
)
from .sweeps import (
    SweepSpec,
    make_spec,
    run_compare,
    run_fig1_sweep,
    run_fig2_sweep,
    run_optimize,
)

__version__ = "0.1.0"

__all__ = [
    "AgeState",
    "ChannelParams",
    "DEFAULT_CONVENTION",
    "OutageConvention",
    "Policy",
    "ReplicationStats",
    "SecrecyReport",
    "SecrecyThreshold",
    "SimConfig",
    "SimEstimate",
    "SteadyState",
    "SweepSpec",
    "TruncatedChain",
    "aggregate",
    "average_secrecy_age",
    "build_truncated_chain",
    "closed_form_report",
    "estimate",
    "make_spec",
    "objective",
    "objective_curve",
    "optimal_ptx",
    "oracle_metrics",
    "outage_probability",
    "run_compare",
    "run_fig1_sweep",
    "run_fig2_sweep",
    "run_optimize",
    "run_replication",
    "sample_slot",
    "secrecy_age",
    "secrecy_gap_pmf",
    "stationary_block",
    "steady_state",
    "transition_distribution",
    "truncation_for_mean_tol",
]
