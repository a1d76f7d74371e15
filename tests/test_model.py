"""Domain types and the one-slot transition law."""

import collections
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoi_secrecy.model import (
    AgeState,
    ChannelParams,
    Policy,
    SecrecyReport,
    SecrecyThreshold,
    sample_slot,
    secrecy_age,
    slot_thresholds,
    transition_distribution,
)

probs = st.floats(min_value=0.0, max_value=1.0)
tx_probs = st.floats(min_value=1e-9, max_value=1.0)
ages = st.integers(min_value=1, max_value=10**6)
# small-denominator rationals in [0, 1], 0 and 1 included
rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


def as_dict(successors):
    return {(s.delta_d, s.delta_e): prob for s, prob in successors}


class TestValidation:
    def test_channel_params_range(self):
        ChannelParams(p=0.0, q=1.0)
        with pytest.raises(ValueError):
            ChannelParams(p=-0.1, q=0.5)
        with pytest.raises(ValueError):
            ChannelParams(p=0.5, q=1.1)

    def test_policy_rejects_zero(self):
        Policy(p_tx=1.0)
        Policy(p_tx=1e-9)
        with pytest.raises(ValueError):
            Policy(p_tx=0.0)
        with pytest.raises(ValueError):
            Policy(p_tx=1.2)

    def test_age_state_positive_integers(self):
        AgeState(1, 1)
        with pytest.raises(ValueError):
            AgeState(0, 1)
        with pytest.raises(ValueError):
            AgeState(1, -3)
        with pytest.raises(ValueError):
            AgeState(1.5, 2)

    def test_threshold_positive(self):
        SecrecyThreshold(1)
        with pytest.raises(ValueError):
            SecrecyThreshold(0)

    def test_report_provenance_checked(self):
        SecrecyReport(provenance="oracle", average_secrecy_age=1.0)
        with pytest.raises(ValueError):
            SecrecyReport(provenance="guesswork", average_secrecy_age=1.0)


class TestTransitionDistribution:
    def test_deterministic_double_success(self):
        out = transition_distribution(AgeState(3, 5), ChannelParams(1.0, 1.0), Policy(1.0))
        assert as_dict(out) == {(1, 1): 1.0}

    def test_hand_expanded_four_outcomes(self):
        out = as_dict(transition_distribution(AgeState(3, 5), ChannelParams(0.8, 0.2), Policy(0.5)))
        assert out[(1, 1)] == pytest.approx(0.08, abs=1e-15)
        assert out[(4, 1)] == pytest.approx(0.02, abs=1e-15)
        assert out[(1, 6)] == pytest.approx(0.32, abs=1e-15)
        assert out[(4, 6)] == pytest.approx(0.58, abs=1e-15)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-15)

    def test_rare_transmission_stays_on_diagonal(self):
        out = as_dict(transition_distribution(AgeState(1, 1), ChannelParams(0.8, 0.2), Policy(1e-9)))
        assert out[(2, 2)] > 1.0 - 3e-9

    def test_reset_probability_from_any_state(self):
        # one-step return to (1, 1) happens exactly when both links decode
        params, policy = ChannelParams(0.7, 0.4), Policy(0.9)
        for state in (AgeState(1, 1), AgeState(17, 2), AgeState(3, 900)):
            out = as_dict(transition_distribution(state, params, policy))
            assert out[(1, 1)] == pytest.approx(0.9 * 0.7 * 0.4, abs=1e-15)

    @given(p=probs, q=probs, ptx=tx_probs, i=ages, j=ages)
    def test_distribution_is_proper(self, p, q, ptx, i, j):
        out = transition_distribution(AgeState(i, j), ChannelParams(p, q), Policy(ptx))
        assert all(prob > 0.0 for _, prob in out)
        states = [(s.delta_d, s.delta_e) for s, _ in out]
        assert len(states) == len(set(states))
        assert len(out) <= 4
        assert sum(prob for _, prob in out) == pytest.approx(1.0, abs=1e-12)

    @given(p=probs, q=probs, ptx=tx_probs, i=ages, j=ages)
    def test_successors_reset_or_increment(self, p, q, ptx, i, j):
        out = transition_distribution(AgeState(i, j), ChannelParams(p, q), Policy(ptx))
        for s, _ in out:
            assert s.delta_d in (1, i + 1)
            assert s.delta_e in (1, j + 1)


class TestSampleSlot:
    def test_forced_outcomes(self):
        rng = np.random.default_rng(0)
        assert sample_slot(AgeState(9, 3), ChannelParams(1, 1), Policy(1.0), rng) == AgeState(1, 1)
        assert sample_slot(AgeState(4, 7), ChannelParams(1, 0), Policy(1.0), rng) == AgeState(1, 8)
        assert sample_slot(AgeState(4, 7), ChannelParams(0, 1), Policy(1.0), rng) == AgeState(5, 1)

    def test_identical_seeds_identical_trajectories(self):
        params, policy = ChannelParams(0.6, 0.3), Policy(0.7)
        walks = []
        for _ in range(2):
            rng = np.random.default_rng(424242)
            state = AgeState(1, 1)
            walk = []
            for _ in range(500):
                state = sample_slot(state, params, policy, rng)
                walk.append(state)
            walks.append(walk)
        assert walks[0] == walks[1]

    @given(p=probs, q=probs, ptx=tx_probs, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_ages_reset_to_one_or_increment(self, p, q, ptx, seed):
        rng = np.random.default_rng(seed)
        params, policy = ChannelParams(p, q), Policy(ptx)
        state = AgeState(1, 1)
        for _ in range(60):
            succ = sample_slot(state, params, policy, rng)
            assert succ.delta_d == 1 or succ.delta_d == state.delta_d + 1
            assert succ.delta_e == 1 or succ.delta_e == state.delta_e + 1
            state = succ

    def test_empirical_frequencies_match_distribution(self):
        # frequency-vs-probability oracle for the four outcomes
        params, policy = ChannelParams(0.8, 0.2), Policy(0.5)
        start = AgeState(3, 5)
        rng = np.random.default_rng(20260816)
        n = 10**6
        counts = collections.Counter(
            (s.delta_d, s.delta_e)
            for s in (sample_slot(start, params, policy, rng) for _ in range(n))
        )
        expected = as_dict(transition_distribution(start, params, policy))
        assert set(counts) == set(expected)
        for key, prob in expected.items():
            sigma = (prob * (1.0 - prob) / n) ** 0.5
            assert abs(counts[key] / n - prob) < 4.0 * sigma


class TestSecrecyAge:
    def test_examples(self):
        assert secrecy_age(AgeState(1, 1)) == 0
        assert secrecy_age(AgeState(2, 9)) == 7
        assert secrecy_age(AgeState(9, 2)) == 0

    @given(i=ages, j=ages)
    def test_clamped_difference(self, i, j):
        assert secrecy_age(AgeState(i, j)) == max(j - i, 0)


@given(p=probs, q=probs, ptx=tx_probs)
def test_slot_thresholds_ordered(p, q, ptx):
    c1, c2, c3 = slot_thresholds(ChannelParams(p, q), Policy(ptx))
    assert 0.0 <= c1 <= c2 <= c3 <= 1.0 + 1e-12


@given(p=rationals, q=rationals, ptx=rationals.filter(lambda f: f > 0))
@example(p=Fraction(0), q=Fraction(0), ptx=Fraction(1))
@example(p=Fraction(1), q=Fraction(1), ptx=Fraction(1))
@example(p=Fraction(1, 3), q=Fraction(2, 7), ptx=Fraction(5, 11))
def test_law_exact_over_rationals(p, q, ptx):
    # 1 - p, not 1.0 - p: Fraction inputs give Fraction masses, and the four
    # outcomes, or the thresholds and the no-update mass, sum to exactly 1
    params, policy = ChannelParams(p, q), Policy(ptx)
    out = as_dict(transition_distribution(AgeState(2, 2), params, policy))
    assert all(type(prob) is Fraction for prob in out.values())
    assert sum(out.values()) == 1
    c1, c2, c3 = slot_thresholds(params, policy)
    assert all(type(c) is Fraction for c in (c1, c2, c3))
    assert c3 + out.get((3, 3), 0) == 1
