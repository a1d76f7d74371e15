"""Numerical ground truth: steady state of the truncated two-age chain.

The infinite chain is cut at age N per coordinate with a saturating clamp
(an age that would exceed N stays at N), which keeps the operator
row-stochastic and makes the truncation error quantifiable: the clamped
stationary law is the image of the infinite-chain law under the clamp map,
so interior entries are exact and all distortion lives in the two boundary
masses Pr(delta_d >= N) and Pr(delta_e >= N), which are tracked and attached
to every reported metric as rigorous error bounds.

steady_state solves the clamped law directly in O(N^2) from the chain's
four one-slot outcome masses, then checks it with one application of the
operator, run over row blocks of about BLOCK_CELLS entries written into one
reused buffer: the L1 residual is summed block by block and reported, and
one above tol raises. A solve holds one N^2 array, the law itself.
gap_pmf_array reads the gap law for gaps >= 1 off the solved law's
superdiagonals in one masked reduce over a strided view, each in numpy's
trace order, its mask a view of one 2N-1 entry vector; gap <= 0 (secrecy
age 0), which no metric reads, is not summed. oracle_metrics sums the mean
and the outage tail off that law in numpy's pairwise order too, never in a
BLAS dot, whose order is the CPU's kernel's: no reported bit depends on it.

Transition entries come from model.transition_distribution; none of the
closed forms in analytics.py are consulted here, so agreement between the
two routes is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AgeState, ChannelParams, Policy, SecrecyReport, transition_distribution

# entries per row block of the one-step check: 256 KB of float64, which
# stays in cache while it is written, compared and summed
BLOCK_CELLS = 2**15


class StationarityError(RuntimeError):
    """Raised when the solved law is not a fixed point of the operator."""

    def __init__(self, residual: float, tol: float):
        super().__init__(f"stationarity residual {residual:.3e} > tol {tol:.3e}")
        self.residual = residual
        self.tol = tol


@dataclass(frozen=True)
class TruncatedChain:
    """Finite stand-in for the infinite age chain, ages clamped at N.

    States are (i, j), 1 <= i, j <= N. The one-slot law moves all mass by
    the four outcomes of model.transition_distribution; increments that
    would pass N saturate. p_both/p_only_e/p_only_d/p_neither are the four
    outcome masses read off that law, and all the chain holds besides N:
    no solve can reach p, q or p_tx.
    """

    truncation: int
    p_both: float
    p_only_e: float
    p_only_d: float
    p_neither: float

    @property
    def reset_rate_d(self) -> float:
        return self.p_both + self.p_only_d

    @property
    def reset_rate_e(self) -> float:
        return self.p_both + self.p_only_e

    def apply(self, dist: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One application of the transition operator: out = dist @ T.

        dist[i-1, j-1] holds the mass on (i, j). out must be a separate
        (N, N) array: every row reads dist's row and column sums, so writing
        over dist as the rows go would corrupt the law.
        """
        n = self._check_shape(dist)
        if out is None:
            out = np.empty_like(dist)
        elif out.shape != (n, n):
            raise ValueError(f"out shape {out.shape} != ({n}, {n})")
        elif np.may_share_memory(out, dist):
            raise ValueError("out overlaps dist: the operator reads all of dist while writing out")
        self._rows(dist, dist.sum(axis=1), dist.sum(axis=0), 0, out)
        return out

    def one_step_residual(self, dist: np.ndarray) -> float:
        """L1 norm of dist @ T - dist. The application runs max(1,
        BLOCK_CELLS // N) rows at a time into one reused buffer, and each
        block's part is summed before the next overwrites it: every entry is
        computed, none is skipped, and beyond dist a pass holds one block
        and dist's two sums."""
        n = self._check_shape(dist)
        rows = max(1, BLOCK_CELLS // n)
        buffer = np.empty((min(rows, n), n))
        row, col = dist.sum(axis=1), dist.sum(axis=0)
        residual = 0.0
        for start in range(0, n, rows):
            block = buffer[: min(rows, n - start)]
            self._rows(dist, row, col, start, block)
            block -= dist[start : start + len(block)]
            residual += float(np.abs(block, out=block).sum())
        return residual

    def _check_shape(self, dist: np.ndarray) -> int:
        n = self.truncation
        if dist.shape != (n, n):
            raise ValueError(f"distribution shape {dist.shape} != ({n}, {n})")
        return n

    def _rows(self, dist: np.ndarray, row: np.ndarray, col: np.ndarray, start: int, out: np.ndarray) -> None:
        """Rows start..start+len(out)-1 of dist @ T into out, given dist's
        row and column sums. Column 0 collects the single-reset outcome of
        the eavesdropper, row 0 that of the receiver, entry (0, 0) the
        double reset; the no-reset outcome shifts the rest down the
        diagonal, with the last row and column folding the clamped
        increments back onto themselves. Each entry takes the same
        operations in the same order whatever the block."""
        n = self.truncation
        stop = start + len(out)
        first = max(start, 1)  # every row but 0 takes the shifted outcomes
        shifted = out[first - start :]
        stay = self.p_neither
        np.multiply(dist[first - 1 : stop - 1, :-1], stay, out=shifted[:, 1:])
        if stop == n:
            out[-1, 1:] += stay * dist[n - 1, :-1]
        shifted[:, n - 1] += stay * dist[first - 1 : stop - 1, n - 1]
        shifted[:, 0] = self.p_only_e * row[first - 1 : stop - 1]
        if stop == n:
            out[-1, -1] += stay * dist[n - 1, n - 1]
            out[-1, 0] += self.p_only_e * row[n - 1]
        if start == 0:
            out[0, 1:] = self.p_only_d * col[:-1]
            out[0, n - 1] += self.p_only_d * col[n - 1]
            out[0, 0] = self.p_both * row.sum()


def build_truncated_chain(params: ChannelParams, policy: Policy, truncation: int) -> TruncatedChain:
    """Assemble the clamped chain from the one-slot law."""
    if not (isinstance(truncation, int) and truncation >= 2):
        raise ValueError(f"truncation must be an integer >= 2, got {truncation!r}")
    # Read the four outcome masses off the generic one-slot law.
    probe = AgeState(2, 2)
    masses = {(1, 1): 0.0, (3, 1): 0.0, (1, 3): 0.0, (3, 3): 0.0}
    for succ, prob in transition_distribution(probe, params, policy):
        masses[(succ.delta_d, succ.delta_e)] = prob
    return TruncatedChain(
        truncation=truncation,
        p_both=masses[(1, 1)],
        p_only_e=masses[(3, 1)],
        p_only_d=masses[(1, 3)],
        p_neither=masses[(3, 3)],
    )


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution of a truncated chain, checked by one step."""

    chain: TruncatedChain
    pi: np.ndarray  # pi[i-1, j-1] = stationary mass on (i, j)
    residual: float  # L1 norm of pi @ T - pi
    iterations: int  # operator applications spent: the one check


def _clamped_age_law(reset: float, grow: float, n: int) -> np.ndarray:
    """Stationary law of one age clamped at n that resets to 1 w.p. `reset`
    and otherwise grows (w.p. `grow`): reset * grow^(k-1) for k < n, and
    the survival grow^(n-1) at n. Survivals are repeated products."""
    survival = np.ones(n)
    np.cumprod(np.full(n - 1, grow), out=survival[1:])
    law = reset * survival
    law[-1] = survival[-1]
    return law


def _fold(start: float, inner: np.ndarray, stay: float) -> list[float]:
    """One clamped edge, forward from its reset-edge entry `start`:
    edge[k] = stay * (inner[k-1] + edge[k-1]), where inner is the line just
    inside the edge. Returns len(inner) + 1 entries."""
    edge = start
    return [start, *[edge := stay * (value + edge) for value in inner.tolist()]]


def steady_state(chain: TruncatedChain, tol: float = 1e-12) -> SteadyState:
    """Stationary law of the clamped operator, solved directly in O(N^2).

    pi[i, j] (0-based) is built from the four outcome masses alone:
    - the row and column marginals are the clamped 1-D age laws;
    - the first column and row are the single-reset outcomes of those
      marginals, pi[0, 0] the double reset;
    - interior entries carry the no-reset outcome down the diagonal,
      pi[i, j] = p_neither * pi[i-1, j-1];
    - the last row and column fold the clamped increments forward,
      pi[N-1, j] = p_neither * (pi[N-2, j-1] + pi[N-1, j-1]);
    - the corner solves its own balance equation, and is the whole mass
      when nothing ever resets (p = q = 0).
    Every entry is a sum of products of non-negative masses. One operator
    application then measures the L1 residual. It runs over row blocks
    (TruncatedChain.one_step_residual), so pi is the only N^2 array the
    solve holds, and the residual is summed block by block; the interior
    part is exactly 0.0 by construction and is computed all the same. A
    residual above tol raises StationarityError.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    n = chain.truncation
    stay = chain.p_neither
    row = _clamped_age_law(chain.reset_rate_d, chain.p_only_e + stay, n)
    col = _clamped_age_law(chain.reset_rate_e, chain.p_only_d + stay, n)
    pi = np.empty((n, n))
    pi[0, 0] = chain.p_both
    pi[1:, 0] = chain.p_only_e * row[:-1]
    pi[n - 1, 0] = chain.p_only_e * (row[n - 2] + row[n - 1])
    pi[0, 1:] = chain.p_only_d * col[:-1]
    pi[0, n - 1] = chain.p_only_d * (col[n - 2] + col[n - 1])
    factor = np.array(stay)  # converted once, not once per row
    for src, dst in zip(pi[: n - 2, : n - 2], pi[1 : n - 1, 1 : n - 1]):
        np.multiply(src, factor, dst)
    pi[n - 1, : n - 1] = _fold(pi[n - 1, 0], pi[n - 2, : n - 2], stay)
    pi[: n - 1, n - 1] = _fold(pi[0, n - 1], pi[: n - 2, n - 2], stay)
    escape = chain.p_both + chain.p_only_e + chain.p_only_d
    if escape > 0.0:
        boundary = pi[n - 2, n - 2] + pi[n - 2, n - 1] + pi[n - 1, n - 2]
        pi[n - 1, n - 1] = stay * boundary / escape
    else:
        pi[n - 1, n - 1] = 1.0  # nothing resets: every path ends in the corner
    residual = chain.one_step_residual(pi)
    if not residual <= tol:
        raise StationarityError(residual, tol)
    return SteadyState(chain=chain, pi=pi, residual=residual, iterations=1)


def mean_truncation_bound(chain: TruncatedChain) -> float:
    """Rigorous bound on the mean secrecy age lost to the clamp.

    Clamping never inflates the positive gap's contribution beyond the
    eavesdropper-side excess over N, whose stationary mean is
    (1 - r_e)^N / r_e. Infinite when that side never resets.
    """
    r_e = chain.reset_rate_e
    if r_e <= 0.0:
        return math.inf
    return (1.0 - r_e) ** chain.truncation / r_e


def outage_truncation_bound(chain: TruncatedChain) -> float:
    """Bound on any Pr(gap <= k) distortion: only histories with
    delta_e > N can flip the indicator, mass (1 - r_e)^N."""
    return (1.0 - chain.reset_rate_e) ** chain.truncation


def truncation_for_mean_tol(params: ChannelParams, policy: Policy, tol: float) -> int:
    """Smallest truncation (at least 2) whose mean_truncation_bound is <= tol."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    r_e = policy.p_tx * params.q
    if r_e <= 0.0:
        raise ValueError("q = 0: no finite truncation bounds the mean error")
    if r_e == 1.0:
        return 2
    # logs of each factor, and log1p, keep tiny reset rates off 0 and log(0)
    needed = (math.log(tol) + math.log(r_e)) / math.log1p(-r_e)
    if not math.isfinite(needed):
        raise ValueError(f"no finite truncation meets tol {tol!r} at reset rate p_tx q = {r_e!r}")
    return max(2, math.ceil(needed))


def gap_pmf_array(state: SteadyState) -> np.ndarray:
    """pmf[d] = converged Pr(gap = d) for d = 1..N-1, and pmf[0] = 0.0:
    gap <= 0 weighs 0 in the mean and lies below every outage tail.

    Row d-1 of `diagonals` (a view, no copy) starts at pi[0, d] and steps
    N+1 entries, so its first N-d entries are the superdiagonal d, read
    with the stride and in the order that numpy's trace at offset d reads
    it; the masked reduce sums just that prefix of every row in one call.
    The mask is windows 1..N-1 onto N trues then N-1 falses, window k
    holding its first N-k entries true: not an N^2 array.
    """
    pi = state.pi
    n = state.chain.truncation
    pmf = np.zeros(n)
    prefix = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n - 1) < n, n)[1:, :-1]
    diagonals = pi.reshape(-1)[: n * n - 1].reshape(n - 1, n + 1).T[1:n]
    np.add.reduce(diagonals, axis=1, where=prefix, out=pmf[1:])
    return pmf


def oracle_metrics(state: SteadyState, event: int | None = None) -> SecrecyReport:
    """Secrecy metrics summed exhaustively over the truncated support, with
    the outage Pr(secrecy age <= event) when an event index is given.
    Attached error bounds cover everything the clamp can distort.
    """
    if event is not None and event < 0:
        raise ValueError("event index must be >= 0")
    chain = state.chain
    n = chain.truncation
    pmf = gap_pmf_array(state)
    mean = float((np.arange(n) * pmf).sum())
    mean_bound = mean_truncation_bound(chain)
    if chain.reset_rate_e <= 0.0:
        mean = math.inf
    out_prob = None
    out_bound = 0.0
    if event is not None:
        # 1 minus the tail keeps the small quantity explicit
        tail = float(pmf[event + 1 :].sum())
        out_prob = 1.0 - tail
        out_bound = outage_truncation_bound(chain)
    return SecrecyReport(
        provenance="oracle",
        average_secrecy_age=mean,
        outage_probability=out_prob,
        outage_event=event,
        mean_error_bound=mean_bound,
        outage_error_bound=out_bound,
        truncation=n,
    )
