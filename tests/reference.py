"""Independent references the tests check the package against.

Closed forms of the stationary law, written out from p, q and p_tx; the
truncated chain's exact clamp masses, a power iteration of its operator,
a per-state sparse twin of that operator with a sparse linear solve, and
a positive gap law summed one np.trace call per diagonal; and a scalar
sample_slot walk with the expansion of the vectorized walk's events into
ages.

None of this is called by the package. Nothing here reads analytics, so a
closed form checked against a reference here is not checked against
itself.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from aoi_secrecy import simulate
from aoi_secrecy.model import AgeState, sample_slot, secrecy_age, transition_distribution


def stationary_pi(i, j, params, policy):
    """Joint stationary probability of the age pair (i, j), i, j >= 1.

    Three cases by the sign of i - j; the younger coordinate pins the slot of
    the most recent reset on its side, the excess on the other side decays
    geometrically in that side's survival probability.
    """
    p, q, ptx = params.p, params.q, policy.p_tx
    stay = ptx * (1.0 - p) * (1.0 - q) + 1.0 - ptx  # no reset in a slot
    if i == j:
        return ptx * p * q * stay ** (i - 1)
    if i > j:
        head = ptx * p * ptx * (1.0 - p) * q
        return head * (1.0 - ptx * p) ** (i - j - 1) * stay ** (j - 1)
    head = ptx * q * ptx * (1.0 - q) * p
    return head * (1.0 - ptx * q) ** (j - i - 1) * stay ** (i - 1)


def row_sum(i, params, policy):
    """Marginal Pr(delta_d = i): geometric with the legitimate reset rate."""
    rate_d = policy.p_tx * params.p
    return rate_d * (1.0 - rate_d) ** (i - 1)


def col_sum(j, params, policy):
    """Marginal Pr(delta_e = j): geometric with the eavesdropper reset rate."""
    rate_e = policy.p_tx * params.q
    return rate_e * (1.0 - rate_e) ** (j - 1)


def positive_gap_mass(params, policy):
    """Stationary Pr(delta_e > delta_d) = p(1-q)/(p+q-pq); p_tx cancels."""
    p, q = params.p, params.q
    return p * (1.0 - q) / (p + q - p * q)


def stationary_tail_bounds(chain):
    """Exact stationary clamp masses (Pr(delta_d >= N), Pr(delta_e >= N))
    of a truncated chain: the infinite chain's geometric age tails."""
    n = chain.truncation
    ptx = chain.policy.p_tx
    return (
        (1.0 - ptx * chain.params.p) ** (n - 1),
        (1.0 - ptx * chain.params.q) ** (n - 1),
    )


class NoConvergence(RuntimeError):
    def __init__(self, residual, iterations, tol):
        super().__init__(f"residual {residual:.3e} > tol {tol:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations
        self.tol = tol


def power_iteration(chain, tol=1e-12, max_iters=None):
    """Reference solve: iterate apply() from the (1, 1) point mass until one
    step changes the law by <= tol in L1. From that start every truncated
    probability is fixed by the last <= N slot outcomes, so it settles after
    about N steps whatever the mixing rate; the default budget is N + 50.
    Returns (pi, iterations)."""
    n = chain.truncation
    current = np.zeros((n, n))
    current[0, 0] = 1.0
    scratch = np.empty_like(current)
    residual = math.inf
    budget = n + 50 if max_iters is None else max_iters
    for iteration in range(1, budget + 1):
        chain.apply(current, scratch)
        residual = float(np.abs(scratch - current).sum())
        current, scratch = scratch, current
        if residual <= tol:
            return current, iteration
    raise NoConvergence(residual, budget, tol)


def to_sparse(chain):
    """CSR matrix of the chain's operator, built state by state from
    transition_distribution. Quadratic in N; meant for cross-checks."""
    n = chain.truncation
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            src = (i - 1) * n + (j - 1)
            acc: dict[int, float] = {}
            for succ, prob in transition_distribution(AgeState(i, j), chain.params, chain.policy):
                di = min(succ.delta_d, n)  # saturating clamp
                dj = min(succ.delta_e, n)
                dst = (di - 1) * n + (dj - 1)
                acc[dst] = acc.get(dst, 0.0) + prob
            for dst, prob in acc.items():
                rows.append(src)
                cols.append(dst)
                vals.append(prob)
    return csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))


def sparse_law(chain):
    """Reference solve: the stationary law of to_sparse() by a sparse linear
    solve, the normalisation replacing one (redundant) balance equation."""
    n = chain.truncation
    system = (to_sparse(chain).T - identity(n * n)).tolil()
    system[0, :] = 1.0
    rhs = np.zeros(n * n)
    rhs[0] = 1.0
    return spsolve(system.tocsc(), rhs).reshape(n, n)


def trace_gap_pmf(state):
    """Reference gap law, one np.trace call per diagonal: the summation
    order the goldens were written with. Index 0 (gap <= 0, read by no
    metric) is 0.0."""
    pi = state.pi
    return np.array([0.0] + [np.trace(pi, offset=d) for d in range(1, len(pi))])


def trajectory(params, policy, config, replication_index):
    """The secrecy age at every slot, burn-in included, expanded from the
    events simulate._events yields for a window over the same slots from
    slot 0 (the same stream, so the same states): each age holds from its
    slot up to the next."""
    walk = replace(config, horizon=config.burn_in + config.horizon, burn_in=0)
    firsts, blocks = [], []
    for slots, ages in simulate._events(params, policy, walk, replication_index):
        firsts.append(int(slots[0]))
        blocks.append(np.repeat(ages, np.diff(slots)))
    assert firsts == list(range(0, config.burn_in + config.horizon, simulate._CHUNK))
    return np.concatenate(blocks)


def scalar_window_ages(params, policy, config, replication_index):
    """The secrecy ages of a scalar sample_slot walk over the observation
    window, driven by the replication's stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.base_seed, spawn_key=(replication_index,)))
    state = AgeState(1, 1)
    observed = []
    for t in range(config.burn_in + config.horizon):
        if t > 0:
            state = sample_slot(state, params, policy, rng)
        if t >= config.burn_in:
            observed.append(secrecy_age(state))
    return observed


def window_hist(params, policy, config, replication_index):
    """hist[k]: the observation window's slots with secrecy age k, for
    k = 0..burn_in + horizon - 1 (the largest age a window can hold)."""
    window = trajectory(params, policy, config, replication_index)[config.burn_in :]
    return np.bincount(window, minlength=config.burn_in + config.horizon)
