"""Closed-form secrecy metrics of the two-age chain.

Everything here is exact algebra on the stationary law of the chain defined
in model.py: the joint age distribution, the distribution of the positive
age gap, its mean, threshold outage probabilities under both exponent
conventions, and the transmit probability maximizing the throughput-style
objective p_tx * (1 - P_out).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import ChannelParams, Policy, SecrecyReport, SecrecyThreshold


class OutageConvention(Enum):
    """Two readings of the outage threshold event.

    STRICT_DEFINITION evaluates Pr(secrecy age <= eta_th) itself, tail
    exponent eta_th. PAPER_PRINTED evaluates the widely printed closed form
    whose tail exponent is eta_th - 1; it equals the strict event at
    threshold eta_th - 1. The two differ by exactly the gap pmf at eta_th.
    """

    PAPER_PRINTED = "paper"
    STRICT_DEFINITION = "strict"


DEFAULT_CONVENTION = OutageConvention.STRICT_DEFINITION


def stationary_block(params: ChannelParams, policy: Policy, n: int) -> np.ndarray:
    """Joint stationary law of the age pair over 1 <= i, j <= n:
    block[i-1, j-1] = Pr(delta_d = i, delta_e = j).

    Three cases by the sign of i - j; the younger coordinate pins the slot of
    the most recent reset on its side, the excess on the other side decays
    geometrically in that side's survival probability.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q, ptx = params.p, params.q, policy.p_tx
    rate_d, rate_e = ptx * p, ptx * q
    stay = ptx * (1.0 - p) * (1.0 - q) + 1.0 - ptx  # no reset in a slot
    idx = np.arange(n)
    gap = idx[None, :] - idx[:, None]  # j - i
    stay_pow = np.power(stay, np.minimum(idx[:, None], idx[None, :]))
    block = np.where(
        gap == 0,
        ptx * p * q * stay_pow,
        np.where(
            gap < 0,
            rate_d * ptx * (1.0 - p) * q * np.power(1.0 - rate_d, np.maximum(-gap - 1, 0)) * stay_pow,
            rate_e * ptx * (1.0 - q) * p * np.power(1.0 - rate_e, np.maximum(gap - 1, 0)) * stay_pow,
        ),
    )
    return block


def _gap_denominator(params: ChannelParams) -> float:
    # p + q - pq, the probability that a transmitted slot resets at least one age
    # divided by p_tx; zero only when both links are dead.
    denom = params.p + params.q - params.p * params.q
    if denom == 0.0:
        raise ValueError("p = q = 0: no resets ever happen, gap law undefined")
    return denom


def secrecy_gap_pmf(d: int, params: ChannelParams, policy: Policy) -> float:
    """Stationary Pr(delta_e - delta_d = d) for d >= 1.

    Geometric in d with ratio (1 - p_tx q); summed over d >= 1 it is
    Pr(delta_e > delta_d) = p(1-q)/(p+q-pq), and the mass at gaps <= 0 is
    the complement.
    """
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    denom = _gap_denominator(params)
    p, q, ptx = params.p, params.q, policy.p_tx
    return ptx * q * p * (1.0 - q) * (1.0 - ptx * q) ** (d - 1) / denom


def average_secrecy_age(params: ChannelParams, policy: Policy) -> float:
    """Stationary mean of max(delta_e - delta_d, 0), in slots.

    Infinite when q = 0 (the eavesdropper never decodes, its age diverges);
    reported as math.inf rather than raising so sweeps can tabulate it.
    """
    denom = _gap_denominator(params)  # rejects p = q = 0
    if params.q == 0.0:
        return math.inf
    p, q, ptx = params.p, params.q, policy.p_tx
    return p * (1.0 - q) / (ptx * q * denom)


def _outage_from_exponent(k: int, params: ChannelParams, ptx: float | np.ndarray) -> float | np.ndarray:
    """Pr(secrecy age <= k) = 1 - sum of the gap pmf over d > k, at one
    transmit probability or elementwise over an array of them.

    Single code path for both conventions, so their bridge identity holds
    bit for bit, and for the scalar objective and its grid form.
    """
    denom = _gap_denominator(params)
    p, q = params.p, params.q
    tail = p * (1.0 - q) * (1.0 - ptx * q) ** k / denom
    return 1.0 - tail


def outage_probability(
    params: ChannelParams,
    policy: Policy,
    threshold: SecrecyThreshold,
    convention: OutageConvention = DEFAULT_CONVENTION,
) -> float:
    """Probability that the secrecy age fails to exceed the target lag.

    STRICT_DEFINITION: the event is secrecy age <= eta_th (tail exponent
    eta_th). PAPER_PRINTED: tail exponent eta_th - 1, i.e. the strict event
    at threshold eta_th - 1.
    """
    return _outage_from_exponent(outage_event(threshold, convention), params, policy.p_tx)


def outage_event(threshold: SecrecyThreshold, convention: OutageConvention) -> int:
    """The realized event index k: the convention's outage is Pr(gap <= k)."""
    if convention is OutageConvention.PAPER_PRINTED:
        return threshold.eta_th - 1
    return threshold.eta_th


def objective(
    params: ChannelParams,
    policy: Policy,
    threshold: SecrecyThreshold,
    convention: OutageConvention = DEFAULT_CONVENTION,
) -> float:
    """Throughput-style score p_tx * (1 - P_out) traded off by the policy."""
    return policy.p_tx * (1.0 - outage_probability(params, policy, threshold, convention))


def objective_curve(
    params: ChannelParams,
    ptx: np.ndarray,
    threshold: SecrecyThreshold,
    convention: OutageConvention = DEFAULT_CONVENTION,
) -> np.ndarray:
    """The objective at each of an array of transmit probabilities in (0, 1].

    Same formula as the scalar objective, evaluated in one numpy pass.
    numpy's power may round differently from Python's, so an entry can
    differ from the scalar value by a few 1e-16 * p_tx.
    """
    ptx = np.asarray(ptx, dtype=float)
    if ptx.size and not (ptx.min() > 0.0 and ptx.max() <= 1.0):
        raise ValueError("p_tx values must lie in (0, 1]")
    k = outage_event(threshold, convention)
    return ptx * (1.0 - _outage_from_exponent(k, params, ptx))


def optimal_ptx(
    q: float,
    threshold: SecrecyThreshold,
    convention: OutageConvention = DEFAULT_CONVENTION,
) -> float:
    """Maximizer of the objective over p_tx in (0, 1]; independent of p.

    First-order condition of p_tx (1 - p_tx q)^k gives 1/(q (k+1)) with
    k the convention's tail exponent, clamped into (0, 1]. q = 0 makes the
    objective strictly increasing, so the boundary 1 is optimal.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return 1.0
    k = outage_event(threshold, convention)
    return min(1.0 / (q * (k + 1)), 1.0)


def closed_form_report(params: ChannelParams, policy: Policy, event: int | None = None) -> SecrecyReport:
    """Bundle the closed-form metrics into a SecrecyReport, with the outage
    Pr(secrecy age <= event) when an event index is given."""
    out_prob = None
    if event is not None:
        if event < 0:
            raise ValueError("event index must be >= 0")
        out_prob = _outage_from_exponent(event, params, policy.p_tx)
    return SecrecyReport(
        provenance="closed_form",
        average_secrecy_age=average_secrecy_age(params, policy),
        outage_probability=out_prob,
        outage_event=event,
    )
