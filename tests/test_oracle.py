"""Truncated-chain steady state: operator correctness, the direct solve, bounds.

The oracle builds its transitions from model.transition_distribution alone,
so comparisons against the closed forms in analytics.py are genuine
cross-route checks. Two operator implementations exist on purpose (the
structured apply() and the per-state sparse matrix of reference.to_sparse);
they are compared here and must stay independent. The direct stationary
solve is checked against two references in reference.py: power iteration
of apply() and a sparse linear solve of to_sparse().
"""

import ast
import dataclasses
import hashlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies

import aoi_secrecy
from aoi_secrecy.analytics import (
    OutageConvention,
    average_secrecy_age,
    outage_event,
    outage_probability,
    secrecy_gap_pmf,
    stationary_block,
)
from aoi_secrecy.model import ChannelParams, Policy, SecrecyThreshold, transition_distribution, AgeState
from aoi_secrecy.oracle import (
    BLOCK_CELLS,
    StationarityError,
    build_truncated_chain,
    gap_pmf_array,
    mean_truncation_bound,
    oracle_metrics,
    outage_truncation_bound,
    steady_state,
    truncation_for_mean_tol,
)
from aoi_secrecy.sweeps import MAX_TRUNCATION, TOL_MEAN, TOL_PROB

from reference import (
    NoConvergence,
    col_sum,
    positive_gap_mass,
    power_iteration,
    row_sum,
    sparse_law,
    stationary_tail_bounds,
    to_sparse,
    trace_gap_pmf,
)

P = ChannelParams(0.8, 0.2)
HALF = Policy(0.5)

# slow-mixing corner used where boundary masses need to be visible
SLOW = ChannelParams(0.3, 0.1)

PARAM_DRAWS = [
    (0.8, 0.2, 0.5),
    (0.15, 0.85, 1.0),
    (0.5, 0.5, 0.3),
    (1.0, 0.4, 0.7),
]


def random_dist(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.random((n, n))
    return d / d.sum()


# (p, q, p_tx) where the direct solve meets both references: slow mixing,
# one or both links dead, certain delivery, a certain receiver
REFERENCE_CASES = [
    (0.1, 0.1, 0.2),
    (0.0, 0.5, 0.5),
    (0.5, 0.0, 0.5),
    (0.0, 0.0, 0.5),
    (1.0, 1.0, 1.0),
    (1.0, 0.5, 0.3),
]


class TestChainConstruction:
    def test_outcome_masses_read_off_transition_law(self):
        chain = build_truncated_chain(P, HALF, 50)
        probs = {
            (s.delta_d, s.delta_e): pr
            for s, pr in transition_distribution(AgeState(2, 2), P, HALF)
        }
        assert chain.p_both == probs[(1, 1)]
        assert chain.p_only_e == probs[(3, 1)]
        assert chain.p_only_d == probs[(1, 3)]
        assert chain.p_neither == probs[(3, 3)]
        assert chain.reset_rate_d == pytest.approx(0.5 * 0.8, abs=1e-15)
        assert chain.reset_rate_e == pytest.approx(0.5 * 0.2, abs=1e-15)

    def test_truncation_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            build_truncated_chain(P, HALF, 1)
        with pytest.raises(ValueError):
            build_truncated_chain(P, HALF, 40.0)

    def test_stationary_tail_bounds_formula(self):
        chain = build_truncated_chain(SLOW, HALF, 80)
        tail_d, tail_e = stationary_tail_bounds(chain)
        assert tail_d == pytest.approx((1 - 0.15) ** 79, rel=1e-12)
        assert tail_e == pytest.approx((1 - 0.05) ** 79, rel=1e-12)


class TestOperator:
    def test_sparse_rows_are_stochastic(self):
        for p, q, ptx in PARAM_DRAWS:
            chain = build_truncated_chain(ChannelParams(p, q), Policy(ptx), 12)
            sums = np.asarray(to_sparse(chain).sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_sparse_collapses_under_certain_delivery(self):
        chain = build_truncated_chain(ChannelParams(1.0, 1.0), Policy(1.0), 2)
        dense = to_sparse(chain).toarray()
        expected = np.zeros((4, 4))
        expected[:, 0] = 1.0  # every state jumps to (1, 1)
        assert np.array_equal(dense, expected)

    def test_apply_matches_sparse_matvec(self):
        n = 25
        for k, (p, q, ptx) in enumerate(PARAM_DRAWS):
            chain = build_truncated_chain(ChannelParams(p, q), Policy(ptx), n)
            dist = random_dist(n, seed=100 + k)
            via_apply = chain.apply(dist)
            flat = to_sparse(chain).T.dot(dist.reshape(-1))
            assert np.max(np.abs(via_apply - flat.reshape(n, n))) < 1e-14

    def test_apply_conserves_mass(self):
        chain = build_truncated_chain(P, HALF, 40)
        dist = random_dist(40, seed=7)
        out = chain.apply(dist)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0.0)

    def test_apply_rejects_wrong_shape(self):
        chain = build_truncated_chain(P, HALF, 10)
        with pytest.raises(ValueError, match="distribution shape"):
            chain.apply(np.zeros((9, 9)))
        with pytest.raises(ValueError, match=r"out shape \(10, 9\) != \(10, 10\)"):
            chain.apply(random_dist(10, seed=3), np.empty((10, 9)))

    def test_apply_refuses_out_overlapping_dist(self):
        # every row reads dist's row and column sums: written in place, a
        # 6x6 law came out with mass 0.82
        chain = build_truncated_chain(P, HALF, 6)
        dist = random_dist(6, seed=11)
        kept = dist.copy()
        for out in (dist, dist[::-1], dist.T):
            with pytest.raises(ValueError, match="out overlaps dist"):
                chain.apply(dist, out)
        assert np.array_equal(dist, kept)
        out = np.empty_like(dist)
        assert chain.apply(dist, out) is out
        assert np.array_equal(out, chain.apply(dist))
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    # N = 2; one block covers N = 181 whole; 313 = 3 * 104 + 1 leaves its last
    # block one row; 400 and 408 are the benchmark's truncations
    @pytest.mark.parametrize("n", [2, 181, 313, 400, 408])
    def test_blocks_are_the_full_application(self, n):
        chain = build_truncated_chain(SLOW, HALF, n)
        rows = max(1, BLOCK_CELLS // n)
        for dist in (random_dist(n, seed=n), steady_state(chain).pi):
            # the row blocks one_step_residual applies, bit for bit the full application
            row, col = dist.sum(axis=1), dist.sum(axis=0)
            blocks = []
            for start in range(0, n, rows):
                blocks.append(np.full((min(rows, n - start), n), np.nan))
                chain._rows(dist, row, col, start, blocks[-1])
            assert np.array_equal(np.concatenate(blocks), chain.apply(dist))
        assert (len(blocks[-1]) == 1) == (n == 313)

    @pytest.mark.parametrize("n", [2, 181, 313, 400, 408])
    def test_residual_sums_every_block(self, n):
        chain = build_truncated_chain(SLOW, HALF, n)
        state = steady_state(chain)
        assert state.residual == chain.one_step_residual(state.pi)
        assert abs(state.residual - float(np.abs(chain.apply(state.pi) - state.pi).sum())) <= 1e-28
        # off the stationary law every block, the interior too, adds mass
        dist = random_dist(n, seed=n)
        full = float(np.abs(chain.apply(dist) - dist).sum())
        assert chain.one_step_residual(dist) == pytest.approx(full, rel=1e-12)


# sha256 of steady_state(...).pi.tobytes() at (p, q, p_tx, N): the two
# smallest truncations, one past a pairwise-sum block, the benchmark's N =
# 400 and adaptive N = 408, q = 0 and p = q = 1
LAW_DIGESTS = [
    (0.8, 0.2, 0.5, 2, "8b5f131106de63036e07fa7f945721f2628dc6cbb03833b2f846f32872600a71"),
    (0.5, 0.5, 0.3, 3, "44eb06839fd38cfdb6c4604480aa6ff439e84db0613f365a786b4b389ae8c7bd"),
    (0.1, 0.1, 0.2, 129, "de388d4230f960c9df306e9a6468aa87c807be7c39797a231529483afcb6a141"),
    (0.7, 0.6, 0.9, 400, "0848da28d237bc3187be0b0d021657109aedfc0378e2d0f850bc72e7c5afbf0f"),
    (0.5, 0.2, 0.23, 408, "bb7c5e2e9af0ff9d7f0e77f1072a2dff5da065afdfafe310572664172ee2dfec"),
    (0.8, 0.0, 0.5, 30, "82d0b6aa4954f80aec86e43591fc800e69ab4abbaf13ddb29f645dc985a4faf2"),
    (1.0, 1.0, 0.5, 60, "a469feff778139107cd2bc57bdc54c78c4fb67558a274d28770b2b47329883ba"),
]


class TestSteadyState:
    @pytest.mark.parametrize("p, q, ptx, n, digest", LAW_DIGESTS)
    def test_law_bits_pinned(self, p, q, ptx, n, digest):
        # every bit of the solved law: the goldens print 9 digits, and the gap
        # law's bit tests compare against a trace of the same law
        pi = steady_state(build_truncated_chain(ChannelParams(p, q), Policy(ptx), n)).pi
        assert hashlib.sha256(pi.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p, q, ptx", REFERENCE_CASES)
    def test_direct_solve_matches_both_references(self, p, q, ptx):
        params, policy = ChannelParams(p, q), Policy(ptx)
        # power iteration at N = 200, where the slow case still sits mostly
        # off the clamp; the sparse solve at N = 40, where the clamp holds
        # nearly half its mass
        for n, reference in ((200, lambda c: power_iteration(c)[0]), (40, sparse_law)):
            st = steady_state(build_truncated_chain(params, policy, n))
            assert np.max(np.abs(st.pi - reference(st.chain))) <= 1e-12
            assert np.all(st.pi >= 0.0)
            assert st.residual <= 1e-12
            assert st.iterations == 1

    def test_certain_delivery_pins_the_corner(self):
        chain = build_truncated_chain(ChannelParams(1.0, 1.0), Policy(1.0), 6)
        st = steady_state(chain)
        assert st.pi[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert power_iteration(chain)[1] <= 10

    def test_frozen_corner_probability(self):
        st = steady_state(build_truncated_chain(P, HALF, 200))
        assert st.pi[0, 0] == pytest.approx(0.08, abs=1e-11)
        assert st.pi[1, 1] == pytest.approx(0.0464, abs=1e-11)
        assert st.residual <= 1e-12

    def test_interior_entries_match_closed_block(self):
        # the clamp only distorts the boundary row and column; interior
        # entries of the truncated stationary law are exact
        n = 120
        st = steady_state(build_truncated_chain(P, HALF, n))
        closed = stationary_block(P, HALF, 30)
        assert np.max(np.abs(st.pi[:30, :30] - closed)) < 1e-11

    def test_invalid_inputs(self):
        chain = build_truncated_chain(P, HALF, 10)
        for tol in (0.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match="tol"):
                steady_state(chain, tol=tol)

    @pytest.mark.parametrize("mass", ["p_both", "p_only_e", "p_only_d", "p_neither"])
    def test_law_failing_one_operator_step_raises(self, mass):
        # outcome masses summing to 1.01 admit no stationary law; the
        # solved candidate is caught by its residual, summed over 5 blocks
        chain = build_truncated_chain(P, HALF, 400)
        leaky = dataclasses.replace(chain, **{mass: getattr(chain, mass) + 0.01})
        with pytest.raises(StationarityError) as exc:
            steady_state(leaky)
        assert exc.value.tol == 1e-12
        assert exc.value.residual > exc.value.tol

    def test_edge_defect_alone_raises(self, monkeypatch):
        # a last row and column 1% too heavy, every other entry exact; at
        # reset rate p_tx q = 0.02 the clamped column holds 3e-4 of the mass
        fold = aoi_secrecy.oracle._fold
        monkeypatch.setattr(aoi_secrecy.oracle, "_fold", lambda *args: [1.01 * v for v in fold(*args)])
        with pytest.raises(StationarityError):
            steady_state(build_truncated_chain(SLOW, Policy(0.2), 400))

    def test_solve_holds_one_law_array(self, traced_peak):
        n = MAX_TRUNCATION
        chain = build_truncated_chain(SLOW, HALF, n)
        law_bytes = 8 * n * n
        state, peak = traced_peak(lambda: steady_state(chain))
        assert peak <= 1.1 * law_bytes, peak / law_bytes
        del state
        # solved and summed, a point holds its law and O(N) beside it
        _, peak = traced_peak(lambda: oracle_metrics(steady_state(chain), 5))
        assert peak <= 1.25 * law_bytes, peak / law_bytes

    def test_metrics_add_no_square_array(self, traced_peak):
        # the gap law's masks are views of one 2N-1 entry vector; an N^2
        # boolean mask would trace 15.3 MiB here
        state = steady_state(build_truncated_chain(SLOW, HALF, MAX_TRUNCATION))
        _, peak = traced_peak(lambda: oracle_metrics(state, 5))
        assert peak <= 2**20, peak / 2**20

    def test_iteration_budget_exhaustion_raises(self):
        chain = build_truncated_chain(P, HALF, 60)
        with pytest.raises(NoConvergence) as exc:
            power_iteration(chain, max_iters=3)
        assert exc.value.iterations == 3
        assert exc.value.residual > exc.value.tol

    def test_settles_within_truncation_steps_from_point_mass(self):
        # from the (1, 1) point mass every truncated-state probability is a
        # function of the last <= N slots, so convergence is finite-time even
        # when the mixing rate is terrible (rate_e = 0.02 here)
        n = 120
        chain = build_truncated_chain(SLOW, Policy(0.2), n)
        _, iterations = power_iteration(chain, tol=1e-12)
        assert iterations <= n + 2

    def test_boundary_masses_match_exact_tail(self):
        st = steady_state(build_truncated_chain(SLOW, HALF, 80))
        tail_d, tail_e = stationary_tail_bounds(st.chain)
        # the clamped row delta_d = N and column delta_e = N
        assert st.pi[-1, :].sum() == pytest.approx(tail_d, rel=1e-9)
        assert st.pi[:, -1].sum() == pytest.approx(tail_e, rel=1e-9)


class TestGapPmf:
    def test_distribution_is_proper(self):
        # gap <= 0 is not summed; the positive gaps carry the positive-gap mass
        st = steady_state(build_truncated_chain(P, HALF, 150))
        pmf = gap_pmf_array(st)
        assert pmf[0] == 0.0
        assert np.all(pmf[1:] >= 0.0)
        assert pmf[1:].sum() == pytest.approx(positive_gap_mass(P, HALF), abs=1e-6)

    def test_matches_closed_pmf(self):
        st = steady_state(build_truncated_chain(P, HALF, 150))
        pmf = gap_pmf_array(st)
        for d in range(1, 11):
            assert pmf[d] == pytest.approx(secrecy_gap_pmf(d, P, HALF), abs=1e-10)


class TestOracleMetrics:
    def test_mean_against_closed_form(self):
        st = steady_state(build_truncated_chain(P, Policy(1.0), 400))
        rep = oracle_metrics(st)
        assert rep.provenance == "oracle"
        assert rep.average_secrecy_age == pytest.approx(3.80952380952381, abs=1e-9)

    def test_mean_zero_when_eavesdropper_always_decodes(self):
        st = steady_state(build_truncated_chain(ChannelParams(0.8, 1.0), HALF, 60))
        assert oracle_metrics(st).average_secrecy_age == 0.0

    def test_outage_against_closed_form_both_conventions(self):
        st = steady_state(build_truncated_chain(P, HALF, 200))
        thr = SecrecyThreshold(5)
        slack = outage_truncation_bound(st.chain) + 1e-9
        for conv in OutageConvention:
            rep = oracle_metrics(st, outage_event(thr, conv))
            assert rep.outage_probability == pytest.approx(
                outage_probability(P, HALF, thr, conv), abs=slack
            )
        strict = oracle_metrics(st, 5)
        printed = oracle_metrics(st, 4)
        assert strict.outage_event == 5
        assert printed.outage_event == 4
        # measured difference between the conventions is the pmf at eta_th
        assert strict.outage_probability - printed.outage_probability == pytest.approx(
            secrecy_gap_pmf(5, P, HALF), abs=slack
        )

    def test_error_bounds_shrink_and_hold(self):
        policy = Policy(0.5)
        closed_mean = average_secrecy_age(SLOW, policy)
        bounds = []
        for n in (100, 200, 400):
            st = steady_state(build_truncated_chain(SLOW, policy, n))
            rep = oracle_metrics(st, 5)
            # the truncation bound is near-exact, so the realized error can
            # sit a rounding epsilon above it; 1e-9 covers iteration residual
            diff = abs(rep.average_secrecy_age - closed_mean)
            assert diff <= rep.mean_error_bound + 1e-9
            if rep.mean_error_bound > 1e-6:
                assert diff >= 0.5 * rep.mean_error_bound  # bound is tight, not vacuous
            assert rep.mean_error_bound == pytest.approx(mean_truncation_bound(st.chain))
            assert rep.outage_error_bound == pytest.approx(outage_truncation_bound(st.chain))
            assert rep.truncation == n
            bounds.append((rep.mean_error_bound, rep.outage_error_bound))
        assert bounds[0][0] > bounds[1][0] > bounds[2][0]
        assert bounds[0][1] > bounds[1][1] > bounds[2][1]

    def test_negative_event_rejected(self, monkeypatch):
        # before the O(N^2) gap law is summed
        st = steady_state(build_truncated_chain(P, HALF, 60))
        monkeypatch.setattr(aoi_secrecy.oracle, "gap_pmf_array", lambda *a: pytest.fail("the gap law was summed"))
        with pytest.raises(ValueError, match="event index must be >= 0"):
            oracle_metrics(st, -1)

    def test_gap_le_zero_mass_is_not_read(self):
        # the metrics read the superdiagonals alone: NaN over the diagonal
        # and the lower triangle (secrecy age 0) changes neither
        n = 150
        state = steady_state(build_truncated_chain(P, HALF, n))
        before = oracle_metrics(state, 5)
        state.pi[np.tril_indices(n)] = np.nan
        after = oracle_metrics(state, 5)
        assert after.average_secrecy_age == before.average_secrecy_age
        assert after.outage_probability == before.outage_probability

    def test_mean_bound_infinite_when_q_zero(self):
        chain = build_truncated_chain(ChannelParams(0.8, 0.0), HALF, 30)
        assert math.isinf(mean_truncation_bound(chain))
        st = steady_state(chain)
        assert math.isinf(oracle_metrics(st).average_secrecy_age)


# probabilities in [low, 1] with their edges drawn on purpose
def unit_interval(*edges, low=0.0):
    return strategies.one_of(*(strategies.just(e) for e in edges), strategies.floats(low, 1.0))


BLOCK = 40
# largest truncation an example may need, so each solves in milliseconds
PROPERTY_MAX_TRUNCATION = 1000


@strategies.composite
def oracle_points(draw):
    """(params, policy, eta) whose mean tolerance TOL_MEAN / 10 is met by a
    truncation of at most PROPERTY_MAX_TRUNCATION, and that truncation."""
    p = draw(unit_interval(0.0, 1.0))
    # below a reset rate p_tx q of about 0.022 the truncation exceeds 1000
    q = draw(unit_interval(1.0, low=0.02))
    ptx = draw(unit_interval(1.0, low=0.02))
    eta = draw(strategies.integers(1, 30))
    params, policy = ChannelParams(p, q), Policy(ptx)
    needed = truncation_for_mean_tol(params, policy, TOL_MEAN / 10.0)
    assume(needed <= PROPERTY_MAX_TRUNCATION)
    return params, policy, SecrecyThreshold(eta), max(BLOCK + 1, needed)


class TestClosedFormAgreement:
    # derandomized and bounded so it fits the tier-1 budget (about 1 s)
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(oracle_points())
    def test_oracle_meets_closed_forms(self, point):
        params, policy, threshold, n = point
        state = steady_state(build_truncated_chain(params, policy, n))
        # every entry off the clamped last row and column is exact
        closed = stationary_block(params, policy, BLOCK)
        assert np.max(np.abs(state.pi[:BLOCK, :BLOCK] - closed)) <= 1e-9
        # and so is each marginal off the clamp: geometric in its reset rate
        rows = [row_sum(i, params, policy) for i in range(1, n)]
        cols = [col_sum(j, params, policy) for j in range(1, n)]
        assert np.max(np.abs(state.pi.sum(axis=1)[: n - 1] - rows)) <= 1e-12
        assert np.max(np.abs(state.pi.sum(axis=0)[: n - 1] - cols)) <= 1e-12
        assert abs(oracle_metrics(state).average_secrecy_age - average_secrecy_age(params, policy)) <= TOL_MEAN
        slack = TOL_PROB + outage_truncation_bound(state.chain)
        for convention in OutageConvention:
            measured = oracle_metrics(state, outage_event(threshold, convention)).outage_probability
            assert abs(measured - outage_probability(params, policy, threshold, convention)) <= slack


def assert_gap_law_bits(params, policy, n, event):
    state = steady_state(build_truncated_chain(params, policy, n))
    pmf, reference = gap_pmf_array(state), trace_gap_pmf(state)
    assert np.array_equal(pmf, reference)
    with mock.patch("aoi_secrecy.oracle.gap_pmf_array", lambda _: reference):
        expected = oracle_metrics(state, event)
    report = oracle_metrics(state, event)
    assert report.average_secrecy_age == expected.average_secrecy_age
    assert report.outage_probability == expected.outage_probability


class TestGapLawBits:
    """Each diagonal is summed with np.trace's stride and order, bit for bit.
    Sizes straddle numpy's pairwise-sum blocks (8 and 128 entries), where a
    changed order would first show; if a numpy release changes how a masked
    reduce orders its sum, this fails by name before a golden does."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 10, 128, 129, 130, 257, 400, 1000])
    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(
        p=unit_interval(0.0, 1.0),
        q=unit_interval(0.0, 1.0),
        ptx=unit_interval(1.0, low=1e-12),
        event=strategies.integers(0, 40),
    )
    def test_gap_law_matches_trace_loop(self, n, p, q, ptx, event):
        assert_gap_law_bits(ChannelParams(p, q), Policy(ptx), n, event)

    def test_at_the_truncation_cap(self):
        assert_gap_law_bits(SLOW, HALF, MAX_TRUNCATION, 5)


class TestTruncationSizing:
    def test_returned_size_is_minimal(self):
        for tol in (1e-4, 1e-6, 1e-8):
            n = truncation_for_mean_tol(SLOW, HALF, tol)
            r_e = 0.05
            assert (1 - r_e) ** n / r_e <= tol
            assert (1 - r_e) ** (n - 1) / r_e > tol

    def test_tiny_reset_rates(self):
        # at p_tx q = 1e-17, 1 - r_e rounds to 1: the truncation is still
        # finite and minimal, far beyond any run's cap
        n = truncation_for_mean_tol(ChannelParams(0.8, 1.0), Policy(1e-17), 1e-7)
        assert n > 10**18
        assert math.exp(n * math.log1p(-1e-17)) / 1e-17 == pytest.approx(1e-7, rel=1e-9)
        # at the smallest subnormal rate no float truncation is finite
        with pytest.raises(ValueError, match=r"tol 1e-07 at reset rate p_tx q = 5e-324"):
            truncation_for_mean_tol(ChannelParams(0.8, 1.0), Policy(5e-324), 1e-7)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            truncation_for_mean_tol(ChannelParams(0.8, 0.0), HALF, 1e-6)
        for tol in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                truncation_for_mean_tol(P, HALF, tol)


class TestTruncationBounds:
    # the outage bound against the mass the solved law holds at the clamp:
    # the clamped column delta_e = N holds Pr(delta_e >= N) = (1 - r_e)^(N-1),
    # every history the bound covers among it. The survivals there are
    # (N-1)-fold products of a rounded rate, so where r_e is below about
    # N eps (q = 0 among them) the solved mass sits up to about 1.4 N eps
    # below the bound's 1.0; 4 N eps allows that and nothing near a bound
    # taken at a smaller power, such as (1 - r_e)^(N // 2)
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        p=unit_interval(0.0, 1.0),
        q=unit_interval(0.0, 1.0, 1e-12),
        ptx=unit_interval(1.0, 1e-12, low=1e-12),
        n=strategies.integers(2, 400),
    )
    @example(p=0.8, q=0.02, ptx=0.5, n=2062)  # compare's adaptive N at r_e = 0.01
    @example(p=0.8, q=1e-12, ptx=1.0, n=400)  # r_e = 1e-12
    @example(p=0.5, q=0.0, ptx=0.5, n=400)
    @example(p=1.0, q=1.0, ptx=1.0, n=400)
    def test_outage_bound_within_clamp_mass(self, p, q, ptx, n):
        chain = build_truncated_chain(ChannelParams(p, q), Policy(ptx), n)
        clamp_mass = steady_state(chain).pi[:, -1].sum()
        assert outage_truncation_bound(chain) <= clamp_mass * (1.0 + 4 * n * np.finfo(float).eps)


@pytest.mark.parametrize("module", ["oracle.py", "simulate.py"])
def test_route_does_not_import_closed_forms(module):
    # the measurement routes take the outage event index, so they share
    # nothing with analytics, not even the threshold convention
    tree = ast.parse((Path(aoi_secrecy.__file__).parent / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.endswith("analytics") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            source = (node.module or "").rpartition(".")[2]
            assert source != "analytics", f"{module} imports {names} from analytics"
            if source in ("", "aoi_secrecy"):
                assert "analytics" not in names, f"{module} imports the analytics module"


def test_references_share_nothing_with_closed_forms():
    # tests/reference.py checks the closed forms, so it reads nothing of
    # analytics and no private helper of the package
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("aoi_secrecy.analytics") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aoi_secrecy"):
            names = {alias.name for alias in node.names}
            assert node.module != "aoi_secrecy.analytics", f"reference.py imports {names} from analytics"
            assert "analytics" not in names, "reference.py imports the analytics module"
            assert not {name for name in names if name.startswith("_")}, f"reference.py imports {names}"
