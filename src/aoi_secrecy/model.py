"""Domain types and the one-slot transition law of the two-age chain.

A source sends status updates over a broadcast slot; a legitimate receiver
decodes with probability p per transmitted slot, an eavesdropper with
probability q. Ages count slots since the last decoded update and reset to 1
on success (an update is already one slot old when it lands). The pair
(delta_d, delta_e) is the full chain state; everything else in the package is
built on the four-outcome transition law defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ChannelParams:
    """Per-slot decoding probabilities of the two links."""

    p: float  # legitimate link
    q: float  # eavesdropper link

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


@dataclass(frozen=True)
class Policy:
    """Randomized stationary policy: transmit each slot w.p. p_tx, no feedback."""

    p_tx: float

    def __post_init__(self) -> None:
        # p_tx = 0 never resets either age; every metric degenerates.
        if not 0.0 < self.p_tx <= 1.0:
            raise ValueError(f"p_tx must lie in (0, 1], got {self.p_tx}")


@dataclass(frozen=True)
class AgeState:
    """Instantaneous age pair. Ages are >= 1 by construction, never 0."""

    delta_d: int
    delta_e: int

    def __post_init__(self) -> None:
        if not (isinstance(self.delta_d, int) and self.delta_d >= 1):
            raise ValueError(f"delta_d must be an integer >= 1, got {self.delta_d!r}")
        if not (isinstance(self.delta_e, int) and self.delta_e >= 1):
            raise ValueError(f"delta_e must be an integer >= 1, got {self.delta_e!r}")


@dataclass(frozen=True)
class SecrecyThreshold:
    """Target information lag, in slots."""

    eta_th: int

    def __post_init__(self) -> None:
        if not (isinstance(self.eta_th, int) and self.eta_th >= 1):
            raise ValueError(f"eta_th must be an integer >= 1, got {self.eta_th!r}")


@dataclass(frozen=True)
class SecrecyReport:
    """Secrecy metrics from one evaluation route.

    provenance is one of 'closed_form', 'oracle', 'monte_carlo'. An outage
    value carries its event index k: the reported number is
    Pr(secrecy age <= k), whichever threshold convention chose k.
    Error bounds are rigorous truncation bounds where the route has any
    (the oracle, which also records its truncation N), zero otherwise.
    Monte Carlo carries 95% half-widths instead (None from one replication).
    """

    provenance: str
    average_secrecy_age: float  # slots; inf when the eavesdropper never decodes
    outage_probability: Optional[float] = None
    outage_event: Optional[int] = None
    mean_error_bound: float = 0.0
    outage_error_bound: float = 0.0
    mean_halfwidth: Optional[float] = None
    outage_halfwidth: Optional[float] = None
    truncation: Optional[int] = None

    def __post_init__(self) -> None:
        if self.provenance not in ("closed_form", "oracle", "monte_carlo"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


def slot_thresholds(params: ChannelParams, policy: Policy) -> tuple[float, float, float]:
    """Cumulative outcome thresholds for a single uniform draw u in [0, 1).

    u < c1: both links decode; c1 <= u < c2: eavesdropper only;
    c2 <= u < c3: legitimate receiver only; u >= c3: no update delivered.
    Shared by sample_slot and the vectorized simulator so both walk the same
    trajectory for the same stream.
    """
    p, q, ptx = params.p, params.q, policy.p_tx
    c1 = ptx * p * q
    c2 = c1 + ptx * (1 - p) * q
    c3 = c2 + ptx * p * (1 - q)
    return c1, c2, c3


def transition_distribution(
    state: AgeState, params: ChannelParams, policy: Policy
) -> list[tuple[AgeState, float]]:
    """Successor states of (i, j) with their probabilities, zero entries dropped.

    The four outcomes of one slot: both ages reset, only the eavesdropper's
    resets, only the receiver's resets, or neither (no transmission or a
    transmission neither link decoded). Reception events on the two links are
    independent given a transmission. Masses keep the inputs' type (Fraction).
    """
    i, j = state.delta_d, state.delta_e
    p, q, ptx = params.p, params.q, policy.p_tx
    successors = [
        (AgeState(1, 1), ptx * p * q),
        (AgeState(i + 1, 1), ptx * (1 - p) * q),
        (AgeState(1, j + 1), ptx * p * (1 - q)),
        (AgeState(i + 1, j + 1), ptx * (1 - p) * (1 - q) + 1 - ptx),
    ]
    return [(s, prob) for s, prob in successors if prob > 0.0]


def sample_slot(state: AgeState, params: ChannelParams, policy: Policy, rng) -> AgeState:
    """Draw one slot transition. rng is a seeded numpy Generator (or anything
    with .random()); one uniform is consumed per slot."""
    u = rng.random()
    c1, c2, c3 = slot_thresholds(params, policy)
    i, j = state.delta_d, state.delta_e
    d_reset = u < c1 or (c2 <= u < c3)
    e_reset = u < c2
    return AgeState(1 if d_reset else i + 1, 1 if e_reset else j + 1)


def secrecy_age(state: AgeState) -> int:
    """How much staler the eavesdropper is than the receiver, clamped at 0."""
    gap = state.delta_e - state.delta_d
    return gap if gap > 0 else 0
