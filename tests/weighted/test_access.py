"""Tests for access/adversary structures and bluntness (Definition 4.1)."""

from fractions import Fraction

import pytest
from access_oracle import (
    NominalThresholdAccess,
    TicketThresholdAccess,
    WeightedAdversaryStructure,
    WeightedThresholdAccess,
    is_blunt_for,
)

from repro import WeightRestriction, solve


class TestNominalThresholdAccess:
    def test_contains(self):
        acc = NominalThresholdAccess(9, "1/3")
        assert not acc.contains(range(3))
        assert acc.contains(range(4))

    def test_min_size(self):
        assert NominalThresholdAccess(9, "1/3").min_size == 4
        assert NominalThresholdAccess(4, "1/2").min_size == 3

    def test_duplicates_ignored(self):
        acc = NominalThresholdAccess(9, "1/3")
        assert not acc.contains([1, 1, 1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            NominalThresholdAccess(0, "1/3")
        with pytest.raises(ValueError):
            NominalThresholdAccess(5, "0")


class TestWeightedThresholdAccess:
    def test_contains_by_weight(self):
        acc = WeightedThresholdAccess([10, 1, 1], "1/2")
        assert acc.contains([0])  # 10/12 > 1/2
        assert not acc.contains([1, 2])  # 2/12

    def test_boundary_is_strict(self):
        acc = WeightedThresholdAccess([1, 1], "1/2")
        assert not acc.contains([0])  # exactly 1/2, not >


class TestTicketThresholdAccess:
    def test_threshold_is_ceiling(self):
        acc = TicketThresholdAccess([2, 1, 0], "1/2")
        assert acc.threshold == 2  # ceil(1.5)
        assert acc.contains([0])
        assert not acc.contains([1, 2])

    def test_integer_alpha_total(self):
        acc = TicketThresholdAccess([2, 2], "1/2")
        assert acc.threshold == 2

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            TicketThresholdAccess([0, 0], "1/2")


class TestAdversaryStructure:
    def test_corruptible_is_strict(self):
        adv = WeightedAdversaryStructure([1, 1, 1], "1/3")
        assert adv.corruptible([])
        assert not adv.corruptible([0])  # exactly 1/3, not <


class TestBluntness:
    def test_theorem_4_2_produces_blunt_structures(self):
        """Solving WR(f_w, alpha_n) yields a ticket access structure that
        is blunt w.r.t. the weighted adversary structure -- Theorem 4.2."""
        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        for alpha_n in ("3/8", "1/2"):
            result = solve(WeightRestriction("1/3", alpha_n), weights)
            access = TicketThresholdAccess(result.assignment.to_list(), alpha_n)
            adversary = WeightedAdversaryStructure(weights, "1/3")
            assert is_blunt_for(access, adversary, n=len(weights))

    def test_non_blunt_detected(self):
        # All tickets on one light party: that party alone is corruptible
        # yet in the access structure.
        weights = [1, 100]
        access = TicketThresholdAccess([1, 0], "1/2")
        adversary = WeightedAdversaryStructure(weights, "1/3")
        assert not is_blunt_for(access, adversary, n=2)

    def test_size_limit(self):
        access = TicketThresholdAccess([1] * 17, "1/2")
        adversary = WeightedAdversaryStructure([1] * 17, "1/3")
        with pytest.raises(ValueError):
            is_blunt_for(access, adversary, n=17)
