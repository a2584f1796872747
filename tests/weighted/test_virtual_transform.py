"""Tests for virtual-user maps and the transformations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WeightRestriction, solve
from repro.sim.adversary import most_tickets_under
from repro.weighted.transform import (
    black_box_setup,
    blunt_setup,
    qualification_setup,
)
from repro.weighted.virtual import VirtualUserMap

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


class TestVirtualUserMap:
    def test_ids_partition(self):
        vmap = VirtualUserMap([2, 0, 3, 1])
        assert list(vmap.virtual_ids(0)) == [0, 1]
        assert list(vmap.virtual_ids(1)) == []
        assert list(vmap.virtual_ids(2)) == [2, 3, 4]
        assert list(vmap.virtual_ids(3)) == [5]
        assert vmap.total_virtual == 6

    def test_owner_inverse(self):
        vmap = VirtualUserMap([2, 0, 3, 1])
        for party in range(4):
            for vid in vmap.virtual_ids(party):
                assert vmap.owner(vid) == party

    def test_owner_out_of_range(self):
        vmap = VirtualUserMap([1, 1])
        with pytest.raises(IndexError):
            vmap.owner(2)

    def test_corrupted_accounting(self):
        vmap = VirtualUserMap([2, 0, 3, 1])
        assert vmap.corrupted_virtual({0, 3}) == {0, 1, 5}
        assert vmap.corrupted_fraction({0, 3}) == 0.5

    def test_parties_with_tickets(self):
        vmap = VirtualUserMap([2, 0, 3, 0])
        assert vmap.parties_with_tickets() == [0, 2]

    @settings(max_examples=40, deadline=None)
    @given(tickets=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
    def test_property_bijection(self, tickets):
        vmap = VirtualUserMap(tickets)
        seen = set()
        for party in range(len(tickets)):
            ids = set(vmap.virtual_ids(party))
            assert not ids & seen
            seen |= ids
            for vid in ids:
                assert vmap.owner(vid) == party
        assert seen == set(range(vmap.total_virtual))


class TestBluntSetup:
    def test_threshold_formula(self):
        setup = blunt_setup(WEIGHTS, "1/3", "1/2")
        assert setup.threshold == math.ceil(Fraction(1, 2) * setup.total_virtual)

    def test_rejects_large_alpha_n(self):
        with pytest.raises(ValueError):
            blunt_setup(WEIGHTS, "1/3", "2/3")

    def test_adversary_excluded_honest_included(self):
        """The two blunt properties hold against the worst ticket-greedy
        adversary."""
        setup = blunt_setup(WEIGHTS, "1/3", "1/2")
        tickets = setup.result.assignment.to_list()
        corrupt = most_tickets_under(WEIGHTS, tickets, "1/3")
        corrupt_tickets = sum(tickets[i] for i in corrupt)
        honest_tickets = setup.total_virtual - corrupt_tickets
        assert corrupt_tickets < setup.threshold
        assert honest_tickets >= setup.threshold


class TestBlackBoxSetup:
    def test_parameters(self):
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        assert setup.f_n == Fraction(1, 3)
        assert setup.f_w == Fraction(1, 4)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            black_box_setup(WEIGHTS, "1/3", "1/2")
        with pytest.raises(ValueError):
            black_box_setup(WEIGHTS, "1/3", "0")

    def test_nominal_fault_budget_strict(self):
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        t = setup.nominal_fault_budget()
        assert Fraction(t) < setup.f_n * setup.total_virtual
        assert Fraction(t + 1) >= setup.f_n * setup.total_virtual
        # WR(f_w, f_n): corrupt weight below f_w buys at most t virtual users
        tickets = setup.result.assignment.to_list()
        corrupt = most_tickets_under(WEIGHTS, tickets, setup.f_w)
        assert len(setup.vmap.corrupted_virtual(corrupt)) <= t

    def test_adversary_below_nominal_resilience(self):
        """Corrupt weight < f_w implies corrupt virtual users < f_n * T --
        the Section 4.4 invariant the black-box transform needs."""
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        tickets = setup.result.assignment.to_list()
        corrupt = most_tickets_under(WEIGHTS, tickets, setup.f_w)
        frac = setup.vmap.corrupted_fraction(corrupt)
        assert frac < float(setup.f_n)


class TestQualificationSetup:
    def test_layout(self):
        setup = qualification_setup(WEIGHTS, "1/3", "1/4")
        assert setup.total_shards == setup.result.total_tickets
        assert setup.data_shards == math.ceil(
            Fraction(1, 4) * setup.total_shards
        )
        assert 0 < setup.data_shards <= setup.total_shards

    def test_qualified_sets_can_reconstruct(self):
        """Any subset heavier than beta_w holds >= data_shards fragments."""
        from itertools import combinations

        setup = qualification_setup(WEIGHTS, "1/3", "1/4")
        tickets = setup.result.assignment.to_list()
        total_w = sum(WEIGHTS)
        for r in range(len(WEIGHTS) + 1):
            for combo in combinations(range(len(WEIGHTS)), r):
                if sum(WEIGHTS[i] for i in combo) * 3 > total_w:  # > 1/3
                    held = sum(tickets[i] for i in combo)
                    assert held >= setup.data_shards

    def test_rate_close_to_beta_n(self):
        setup = qualification_setup(WEIGHTS, "1/3", "1/4")
        assert setup.rate >= Fraction(1, 4)
