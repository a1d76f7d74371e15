"""Closed-form stationary law and secrecy metrics.

Frozen reference numbers were produced by independent routes before the
closed forms were written down: direct enumeration of the one-slot law for
the stationary recursion, and partial summation of the gap pmf for the
moments. The closed forms must keep reproducing them exactly. The scalar
references they are also checked against (one stationary entry, the two
marginals, the positive gap mass) live in reference.py.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_secrecy.analytics import (
    DEFAULT_CONVENTION,
    OutageConvention,
    average_secrecy_age,
    closed_form_report,
    objective,
    objective_curve,
    optimal_ptx,
    outage_event,
    outage_probability,
    secrecy_gap_pmf,
    stationary_block,
)
from aoi_secrecy.model import ChannelParams, Policy, SecrecyThreshold

from reference import col_sum, positive_gap_mass, row_sum, stationary_pi

P = ChannelParams(0.8, 0.2)
HALF = Policy(0.5)
ALWAYS = Policy(1.0)

probs = st.floats(min_value=0.01, max_value=1.0)
tx_probs = st.floats(min_value=0.01, max_value=1.0)

# |objective_curve - objective| <= GRID_TOL * p_tx entrywise. numpy's power
# may round a few ulp away from Python's, and 1 - (1 - tail) turns that into
# an absolute error on the scale of 1e-16. Measured worst case 4.1e-16 over
# 1500 random (p, q, eta, convention, step) cases (numpy 2.4.6, AVX-512);
# the bound leaves headroom for other power implementations and is still
# far below any formula error
GRID_TOL = 1e-15


class TestStationaryPi:
    def test_frozen_values(self):
        assert stationary_pi(1, 1, P, HALF) == pytest.approx(0.08, abs=1e-15)
        assert stationary_pi(2, 2, P, HALF) == pytest.approx(0.0464, abs=1e-15)

    def test_detailed_balance_along_diagonal(self):
        # pi(i+1, j+1) = pi(i, j) * beta, the no-reset slot probability
        beta = 0.5 * 0.2 * 0.8 + 0.5
        for i, j in [(1, 1), (1, 4), (6, 2), (10, 10), (40, 3)]:
            lhs = stationary_pi(i + 1, j + 1, P, HALF)
            rhs = stationary_pi(i, j, P, HALF) * beta
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_row_and_column_sums_close_telescopes(self):
        # marginals are geometric; partial sums must approach 1
        for p, q, ptx in [(0.8, 0.2, 0.5), (0.1, 0.9, 1.0), (0.5, 0.5, 0.2)]:
            params, policy = ChannelParams(p, q), Policy(ptx)
            n = 400 if ptx * min(p, q) < 0.1 else 200
            rows = sum(row_sum(i, params, policy) for i in range(1, n + 1))
            cols = sum(col_sum(j, params, policy) for j in range(1, n + 1))
            assert rows == pytest.approx(1.0, abs=1e-8)
            assert cols == pytest.approx(1.0, abs=1e-8)

    def test_block_matches_scalar(self):
        block = stationary_block(P, HALF, 12)
        for i in range(1, 13):
            for j in range(1, 13):
                assert block[i - 1, j - 1] == pytest.approx(
                    stationary_pi(i, j, P, HALF), rel=1e-13, abs=1e-300
                )
        with pytest.raises(ValueError, match="n must be >= 1"):
            stationary_block(P, HALF, 0)

    @given(p=probs, q=probs, ptx=tx_probs)
    @settings(max_examples=40)
    def test_block_matches_scalar_random_params(self, p, q, ptx):
        params, policy = ChannelParams(p, q), Policy(ptx)
        block = stationary_block(params, policy, 7)
        for i in range(1, 8):
            for j in range(1, 8):
                assert block[i - 1, j - 1] == pytest.approx(
                    stationary_pi(i, j, params, policy), rel=1e-12, abs=1e-300
                )

    @given(p=probs, q=probs, ptx=tx_probs)
    @settings(max_examples=40)
    def test_block_entries_nonnegative_mass_below_one(self, p, q, ptx):
        block = stationary_block(ChannelParams(p, q), Policy(ptx), 30)
        assert np.all(block >= 0.0)
        assert block.sum() <= 1.0 + 1e-9


class TestGapPmf:
    def test_frozen_values(self):
        assert secrecy_gap_pmf(1, P, HALF) == pytest.approx(0.07619047619047621, abs=1e-16)
        assert positive_gap_mass(P, HALF) == pytest.approx(0.7619047619047621, abs=1e-15)

    def test_geometric_tail_ratio(self):
        # consecutive pmf values decay by exactly the no-eavesdrop-reset rate
        ratio = 1.0 - 0.5 * 0.2
        for d in range(1, 30):
            assert secrecy_gap_pmf(d + 1, P, HALF) == pytest.approx(
                secrecy_gap_pmf(d, P, HALF) * ratio, rel=1e-13
            )

    def test_mass_splits_between_zero_and_positive(self):
        for p, q, ptx in [(0.8, 0.2, 0.5), (0.3, 0.7, 1.0), (0.6, 0.6, 0.4)]:
            params, policy = ChannelParams(p, q), Policy(ptx)
            tail = sum(secrecy_gap_pmf(d, params, policy) for d in range(1, 3000))
            assert tail == pytest.approx(positive_gap_mass(params, policy), abs=1e-9)

    def test_degenerate_channel_rejected(self):
        with pytest.raises(ValueError):
            secrecy_gap_pmf(1, ChannelParams(0.0, 0.0), HALF)
        with pytest.raises(ValueError):
            secrecy_gap_pmf(0, P, HALF)


class TestAverageSecrecyAge:
    def test_frozen_value(self):
        assert average_secrecy_age(P, ALWAYS) == pytest.approx(3.80952380952381, abs=1e-14)

    def test_matches_pmf_first_moment(self):
        for p, q, ptx in [(0.8, 0.2, 0.5), (0.5, 0.1, 1.0), (0.2, 0.9, 0.6)]:
            params, policy = ChannelParams(p, q), Policy(ptx)
            moment = sum(d * secrecy_gap_pmf(d, params, policy) for d in range(1, 2000))
            assert average_secrecy_age(params, policy) == pytest.approx(moment, abs=1e-8)

    def test_halving_ptx_doubles_mean(self):
        # the mean is exactly inversely proportional to the transmit probability
        for ptx in (1.0, 0.8, 0.4):
            full = average_secrecy_age(P, Policy(ptx))
            half = average_secrecy_age(P, Policy(ptx / 2.0))
            assert half == pytest.approx(2.0 * full, rel=1e-12)

    def test_strictly_decreasing_in_ptx(self):
        grid = [0.05 * k for k in range(1, 21)]
        means = [average_secrecy_age(P, Policy(ptx)) for ptx in grid]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_edge_channels(self):
        assert average_secrecy_age(ChannelParams(0.8, 1.0), HALF) == 0.0
        assert math.isinf(average_secrecy_age(ChannelParams(0.8, 0.0), HALF))
        with pytest.raises(ValueError):
            average_secrecy_age(ChannelParams(0.0, 0.0), HALF)


class TestOutage:
    def test_frozen_values(self):
        eta = SecrecyThreshold(5)
        assert outage_probability(P, HALF, eta, OutageConvention.PAPER_PRINTED) == pytest.approx(
            0.5001142857142855, abs=1e-15
        )
        assert outage_probability(P, HALF, eta, OutageConvention.STRICT_DEFINITION) == pytest.approx(
            0.550102857142857, abs=1e-15
        )

    def test_default_convention_is_strict(self):
        assert DEFAULT_CONVENTION is OutageConvention.STRICT_DEFINITION
        eta = SecrecyThreshold(5)
        assert outage_probability(P, HALF, eta) == outage_probability(
            P, HALF, eta, OutageConvention.STRICT_DEFINITION
        )

    def test_convention_labels_round_trip(self):
        assert OutageConvention("paper") is OutageConvention.PAPER_PRINTED
        assert OutageConvention("strict") is OutageConvention.STRICT_DEFINITION
        with pytest.raises(ValueError):
            OutageConvention("loose")

    def test_convention_bridge_exact(self):
        # printed form at eta equals the strict form at eta - 1: both reduce to
        # the same survival exponent, so agreement must be floating-point exact
        for eta in range(2, 41):
            printed = outage_probability(P, HALF, SecrecyThreshold(eta), OutageConvention.PAPER_PRINTED)
            strict = outage_probability(P, HALF, SecrecyThreshold(eta - 1), OutageConvention.STRICT_DEFINITION)
            assert abs(printed - strict) <= 1e-15

    def test_conventions_differ_by_pmf_at_threshold(self):
        # strict includes the extra event {gap = eta_th}, nothing else
        for eta in (1, 3, 5, 10):
            thr = SecrecyThreshold(eta)
            printed = outage_probability(P, HALF, thr, OutageConvention.PAPER_PRINTED)
            strict = outage_probability(P, HALF, thr, OutageConvention.STRICT_DEFINITION)
            assert strict - printed == pytest.approx(secrecy_gap_pmf(eta, P, HALF), abs=1e-12)

    def test_outage_event_index(self):
        thr = SecrecyThreshold(7)
        assert outage_event(thr, OutageConvention.STRICT_DEFINITION) == 7
        assert outage_event(thr, OutageConvention.PAPER_PRINTED) == 6

    @given(p=probs, q=probs, ptx=tx_probs, eta=st.integers(1, 50))
    @settings(max_examples=60)
    def test_outage_within_unit_interval(self, p, q, ptx, eta):
        val = outage_probability(ChannelParams(p, q), Policy(ptx), SecrecyThreshold(eta))
        assert -1e-12 <= val <= 1.0 + 1e-12

    def test_monotone_in_threshold(self):
        # demanding a longer secrecy lead can only make outage more likely
        vals = [
            outage_probability(P, HALF, SecrecyThreshold(eta), OutageConvention.STRICT_DEFINITION)
            for eta in range(1, 30)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_ptx(self):
        grid = [0.05 * k for k in range(1, 21)]
        for conv in OutageConvention:
            vals = [
                outage_probability(P, Policy(ptx), SecrecyThreshold(5), conv) for ptx in grid
            ]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_tiny_eavesdropper_rate(self):
        params = ChannelParams(0.8, 1e-6)
        val = outage_probability(params, ALWAYS, SecrecyThreshold(10), OutageConvention.STRICT_DEFINITION)
        assert 0.0 <= val < 2e-5


class TestObjectiveAndOptimizer:
    def test_frozen_objective(self):
        assert objective(P, HALF, SecrecyThreshold(5), OutageConvention.PAPER_PRINTED) == pytest.approx(
            0.24994285714285724, abs=1e-15
        )

    def test_objective_is_success_probability(self):
        thr = SecrecyThreshold(5)
        for conv in OutageConvention:
            assert objective(P, HALF, thr, conv) == pytest.approx(
                0.5 * (1.0 - outage_probability(P, HALF, thr, conv)), rel=1e-15
            )

    def test_frozen_optimum(self):
        thr = SecrecyThreshold(8)
        assert optimal_ptx(0.25, thr, OutageConvention.PAPER_PRINTED) == pytest.approx(0.5, abs=1e-15)
        assert optimal_ptx(0.25, thr, OutageConvention.STRICT_DEFINITION) == pytest.approx(
            0.4444444444444444, abs=1e-15
        )

    def test_optimum_caps_at_one(self):
        assert optimal_ptx(0.1, SecrecyThreshold(2), OutageConvention.PAPER_PRINTED) == 1.0
        assert optimal_ptx(0.0, SecrecyThreshold(50)) == 1.0

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_optimum_refuses_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match="q must lie in"):
            optimal_ptx(q, SecrecyThreshold(5))

    def test_optimum_matches_grid_argmax(self):
        grid = np.minimum(np.arange(1, 1001) * 1e-3, 1.0)
        for q, eta, conv in [
            (0.2, 5, OutageConvention.PAPER_PRINTED),
            (0.5, 8, OutageConvention.STRICT_DEFINITION),
            (0.3, 4, OutageConvention.PAPER_PRINTED),
        ]:
            params = ChannelParams(0.8, q)
            thr = SecrecyThreshold(eta)
            vals = [objective(params, Policy(x), thr, conv) for x in grid]
            best = grid[int(np.argmax(vals))]
            assert abs(best - optimal_ptx(q, thr, conv)) <= 1e-3 + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        eta=st.integers(min_value=1, max_value=10**4),
        conv=st.sampled_from(OutageConvention),
        step=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_curve_matches_scalar_objective(self, p, q, eta, conv, step):
        grid = np.minimum(np.arange(1, int(round(1 / step)) + 1, dtype=float) * step, 1.0)
        params, thr = ChannelParams(p, q), SecrecyThreshold(eta)
        curve = objective_curve(params, grid, thr, conv)
        scalar = np.array([objective(params, Policy(float(x)), thr, conv) for x in grid])
        assert np.all(np.abs(curve - scalar) <= GRID_TOL * grid)
        # the curve's argmax a beats the scalar argmax b on the curve, so on
        # the scalar objective it falls short by at most both entries' bounds
        a, b = int(np.argmax(curve)), int(np.argmax(scalar))
        assert scalar[b] - scalar[a] <= GRID_TOL * (grid[a] + grid[b])

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, math.nan])
    def test_curve_refuses_ptx_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="p_tx"):
            objective_curve(P, np.array([0.5, bad]), SecrecyThreshold(5))

    def test_optimum_independent_of_p(self):
        thr = SecrecyThreshold(5)
        star = optimal_ptx(0.2, thr)
        grid = np.minimum(np.arange(1, 1001) * 1e-3, 1.0)
        for p in (0.3, 0.8):
            vals = [objective(ChannelParams(p, 0.2), Policy(x), thr) for x in grid]
            assert grid[int(np.argmax(vals))] == pytest.approx(star, abs=1e-3 + 1e-12)


class TestClosedFormReport:
    def test_fields_populated(self):
        rep = closed_form_report(P, HALF, 5)
        assert rep.provenance == "closed_form"
        assert rep.average_secrecy_age == pytest.approx(2 * 3.80952380952381, rel=1e-12)
        assert rep.outage_event == 5
        # the same bytes as the paper-facing function for either convention
        for conv in OutageConvention:
            thr = SecrecyThreshold(5 + (conv is OutageConvention.PAPER_PRINTED))
            assert rep.outage_probability == outage_probability(P, HALF, thr, conv)
        assert rep.mean_error_bound == 0.0

    def test_no_threshold_no_outage(self):
        rep = closed_form_report(P, ALWAYS)
        assert rep.outage_probability is None
        assert rep.outage_event is None

    def test_negative_event_rejected(self):
        with pytest.raises(ValueError, match="event index"):
            closed_form_report(P, HALF, -1)


# two points over Fractions with their metrics derived by hand:
# (p, q, p_tx), mean, {d: gap pmf}, {strict eta: outage}
EXACT_POINTS = [
    # p + q - pq = 5/8; mean (3/8) / (1/16 * 5/8); pmf(1) = (3/64) / (5/8),
    # pmf(3) = pmf(1) (7/8)^2; outage 1 - (3/8)(7/8)^2 / (5/8) at eta 2
    ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)), Fraction(24, 5),
     {1: Fraction(3, 40), 3: Fraction(147, 2560)}, {2: Fraction(173, 320)}),
    # p + q - pq = 1; mean (2/3) / (1/4); pmf(2) = (1/6)(3/4);
    # outage 1 - (2/3)(3/4) at eta 1
    ((Fraction(1), Fraction(1, 3), Fraction(3, 4)), Fraction(8, 3),
     {2: Fraction(1, 8)}, {1: Fraction(1, 2)}),
]


@pytest.mark.parametrize("point, mean, pmf, outage", EXACT_POINTS)
def test_closed_forms_exact_over_rationals(point, mean, pmf, outage):
    # 1 - q, not 1.0 - q: Fraction inputs give Fraction outputs, exactly
    # the hand-derived values; for floats the two spellings round alike
    p, q, ptx = point
    params, policy = ChannelParams(p, q), Policy(ptx)
    got = [average_secrecy_age(params, policy), *(secrecy_gap_pmf(d, params, policy) for d in pmf)]
    assert all(type(value) is Fraction for value in got)
    assert got == [mean, *pmf.values()]
    for eta, expected in outage.items():
        strict = outage_probability(params, policy, SecrecyThreshold(eta), OutageConvention.STRICT_DEFINITION)
        paper = outage_probability(params, policy, SecrecyThreshold(eta + 1), OutageConvention.PAPER_PRINTED)
        assert type(strict) is Fraction and strict == expected
        # the paper outage at eta + 1 is the strict outage at eta, exactly
        assert type(paper) is Fraction and paper == strict
