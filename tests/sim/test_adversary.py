"""Tests for corruption strategies."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.adversary import (
    corrupt_weight_fraction,
    heaviest_under,
    most_tickets_under,
)


class TestBudgetRespected:
    WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]

    def _check_budget(self, corrupt, fraction):
        assert corrupt_weight_fraction(self.WEIGHTS, corrupt) < Fraction(fraction)

    def test_heaviest(self):
        corrupt = heaviest_under(self.WEIGHTS, "1/3")
        self._check_budget(corrupt, "1/3")

    def test_most_tickets(self):
        tickets = [3, 2, 1, 1, 0, 0, 0, 0]
        corrupt = most_tickets_under(self.WEIGHTS, tickets, "1/3")
        self._check_budget(corrupt, "1/3")

    def test_most_tickets_length_mismatch(self):
        with pytest.raises(ValueError):
            most_tickets_under(self.WEIGHTS, [1, 2], "1/3")


class TestGreedyQuality:
    def test_heaviest_takes_heaviest_feasible(self):
        # Budget < 1/2: the single heaviest feasible party must be chosen
        # (greedy order starts with it).
        weights = [10, 5, 4, 1]
        corrupt = heaviest_under(weights, "1/4")  # budget 5: take 4 and 1?
        # Greedy tries 10 (no), 5 (no: 5 < 5 false), 4 (yes), 1 (no: 4+1<5 false)
        assert corrupt == {2}

    def test_most_tickets_prefers_dense(self):
        weights = [10, 10, 1]
        tickets = [1, 1, 1]
        corrupt = most_tickets_under(weights, tickets, "1/2")
        # Budget 10.5: the 1-weight party is densest (1 ticket / 1 weight);
        # then a 10-weight party does not fit (11 >= 10.5)... 1+10=11 > 10.5,
        # so only the dense party plus nothing else.
        assert 2 in corrupt

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=100), min_size=1, max_size=10
        ),
        frac_pct=st.integers(min_value=1, max_value=99),
    )
    def test_property_all_strategies_under_budget(self, weights, frac_pct):
        fraction = Fraction(frac_pct, 100)
        for strategy in (
            lambda: heaviest_under(weights, fraction),
            lambda: most_tickets_under(weights, [1] * len(weights), fraction),
        ):
            corrupt = strategy()
            assert corrupt_weight_fraction(weights, corrupt) < fraction
