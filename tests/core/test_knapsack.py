"""Tests for the knapsack tiers: exact DP, numpy DP, greedy bounds."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import table_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knapsack
from repro.core.types import SCALE_BITS, normalize_weights, scale_ints_rounded


def brute_min_weight(weights, profits, target):
    """Reference: minimum weight of a subset with profit >= target."""
    n = len(weights)
    best = None
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            if sum(profits[i] for i in combo) >= target:
                w = sum(weights[i] for i in combo)
                if best is None or w < best:
                    best = w
    return best


def brute_max_profit(weights, profits, cap):
    """Reference: maximum profit of a subset with weight <= cap."""
    n = len(weights)
    best = 0
    for r in range(n + 1):
        for combo in combinations(range(n), r):
            if sum(weights[i] for i in combo) <= cap:
                best = max(best, sum(profits[i] for i in combo))
    return best


class TestStrictCapInt:
    def test_fractional_capacity(self):
        assert knapsack.strict_cap_int(Fraction(7, 2)) == 3

    def test_integer_capacity_is_exclusive(self):
        assert knapsack.strict_cap_int(Fraction(4)) == 3

    def test_nonpositive(self):
        assert knapsack.strict_cap_int(Fraction(0)) == -1
        assert knapsack.strict_cap_int(Fraction(-3, 2)) == -1

    def test_small_positive(self):
        assert knapsack.strict_cap_int(Fraction(1, 3)) == 0


class TestScaleWeightsExact:
    def test_integer_weights_unchanged_denominator_one(self):
        ints, denom = knapsack.scale_weights_exact(normalize_weights([3, 5]))
        assert denom == 1
        assert ints == [3, 5]

    def test_rational_weights(self):
        ints, denom = knapsack.scale_weights_exact(
            normalize_weights([Fraction(1, 2), Fraction(1, 3)])
        )
        assert denom == 6
        assert ints == [3, 2]

    def test_exactness(self):
        ws = normalize_weights([Fraction(7, 12), Fraction(5, 8), 2])
        ints, denom = knapsack.scale_weights_exact(ws)
        for i, w in enumerate(ws):
            assert Fraction(ints[i], denom) == w


class TestScaleWeightsRounded:
    def test_round_down_never_overstates(self):
        ws = normalize_weights([Fraction(1, 3), Fraction(2, 3), 1])
        total = sum(ws)
        down = knapsack.scale_weights_rounded(ws, total, round_up=False)
        scale = Fraction(1 << knapsack.SCALE_BITS) / total
        for i, w in enumerate(ws):
            assert down[i] <= w * scale

    def test_round_up_never_understates(self):
        ws = normalize_weights([Fraction(1, 3), Fraction(2, 3), 1])
        total = sum(ws)
        up = knapsack.scale_weights_rounded(ws, total, round_up=True)
        scale = Fraction(1 << knapsack.SCALE_BITS) / total
        for i, w in enumerate(ws):
            assert up[i] >= w * scale

    def test_exact_weights_identical_both_ways(self):
        ws = normalize_weights([1, 2, 1])
        total = sum(ws)
        down = knapsack.scale_weights_rounded(ws, total, round_up=False)
        up = knapsack.scale_weights_rounded(ws, total, round_up=True)
        assert (down == up).all()


class TestExactDP:
    def test_min_weight_simple(self):
        assert knapsack.min_weight_for_profit([3, 2, 5], [1, 1, 2], 2) == 5
        # profit 2 via items {0,1} weight 5 or item {2} weight 5.

    def test_min_weight_unreachable(self):
        assert knapsack.min_weight_for_profit([1, 1], [1, 1], 5) is None

    def test_min_weight_zero_target(self):
        assert knapsack.min_weight_for_profit([1], [1], 0) == 0

    def test_max_profit_simple(self):
        assert knapsack.max_profit_under([3, 2, 5], [1, 1, 2], 5) == 2

    def test_max_profit_negative_cap(self):
        assert knapsack.max_profit_under([1], [1], -1) == 0

    def test_zero_profit_items_ignored(self):
        assert knapsack.max_profit_under([1, 1], [0, 3], 1) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=0,
            max_size=8,
        ),
        target=st.integers(min_value=0, max_value=20),
        cap=st.integers(min_value=-1, max_value=60),
    )
    def test_property_against_brute_force(self, items, target, cap):
        weights = [w for w, _ in items]
        profits = [p for _, p in items]
        assert knapsack.min_weight_for_profit(weights, profits, target) == (
            brute_min_weight(weights, profits, target)
        )
        assert knapsack.max_profit_under(weights, profits, cap) == brute_max_profit(
            weights, profits, cap
        )


class TestNumpyDP:
    @settings(max_examples=40, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=0,
            max_size=8,
        ),
        target=st.integers(min_value=0, max_value=20),
    )
    def test_agrees_with_exact_on_integer_weights(self, items, target):
        weights = np.array([w for w, _ in items], dtype=np.int64)
        profits = [p for _, p in items]
        got = knapsack.min_weight_for_profit_numpy(weights, profits, target)
        want = knapsack.min_weight_for_profit(weights.tolist(), profits, target)
        assert got == want

    def test_single_item_reaching_target(self):
        weights = np.array([7, 3], dtype=np.int64)
        assert knapsack.min_weight_for_profit_numpy(weights, [5, 1], 4) == 7

    def test_unreachable_returns_none(self):
        weights = np.array([7], dtype=np.int64)
        assert knapsack.min_weight_for_profit_numpy(weights, [1], 3) is None


_ITEMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=0,
    max_size=8,
)


class TestOneTableReadTwice:
    """``min_weight_table`` + ``max_profit_in`` against the per-capacity
    full-width DP they replaced and against the exact big-integer DP."""

    def test_table_is_min_weight_by_profit(self):
        table = knapsack.min_weight_table(
            np.array([3, 2, 5], dtype=np.int64), [1, 1, 2], 4
        )
        assert table.tolist() == [0, 2, 5, 7, 10]

    def test_width_zero_is_the_empty_set(self):
        table = knapsack.min_weight_table(np.array([3], dtype=np.int64), [2], 0)
        assert table.tolist() == [0]
        assert knapsack.max_profit_in(table, 10) == 0
        assert knapsack.max_profit_in(table, -1) == 0

    def test_single_item_worth_more_than_the_width(self):
        table = knapsack.min_weight_table(np.array([3], dtype=np.int64), [5], 2)
        assert table.tolist() == [0, 3, 3]
        assert knapsack.max_profit_in(table, 2) == 0
        assert knapsack.max_profit_in(table, 3) == 2  # clipped at the width

    @settings(max_examples=120, deadline=None)
    @given(
        items=_ITEMS,
        width=st.integers(min_value=0, max_value=50),
        caps=st.tuples(
            st.integers(min_value=-1, max_value=3000),
            st.integers(min_value=-1, max_value=3000),
        ),
    )
    def test_clipped_table_reads_the_clipped_optimum(self, items, width, caps):
        """Any width, either order of the two capacities: one table gives
        ``min(K(cap), width)`` at both."""
        weights = np.array([w for w, _ in items], dtype=np.int64)
        profits = [p for _, p in items]
        table = knapsack.min_weight_table(weights, profits, width)
        assert len(table) == width + 1
        assert (np.diff(table) >= 0).all()
        for cap in caps:
            exact = knapsack.max_profit_under(weights.tolist(), profits, cap)
            assert table_oracle.max_profit_under_numpy(weights, profits, cap) == exact
            assert knapsack.max_profit_in(table, cap) == min(exact, width)

    @settings(max_examples=120, deadline=None)
    @given(
        items=_ITEMS.filter(lambda items: any(w for w, _ in items)),
        shares=st.tuples(
            st.fractions(min_value=0, max_value=1),
            st.fractions(min_value=0, max_value=1),
        ),
    )
    def test_both_roundings_clipped_at_the_lp_bound(self, items, shares):
        """What the separation checker does per probe: weights rounded to
        ``2**40 / W`` down and up, the table no wider than the LP bound at
        the larger capacity, read at both.  The clip changes neither
        rounding's reading unless that reading was above ``K`` anyway, the
        two readings bracket the exact ``K``, and the rounded-down table
        read one unit per item lower never reads above the rounded-up."""
        ints = [w for w, _ in items]
        profits = [p for _, p in items]
        total = sum(ints)
        order = knapsack.density_order(ints, profits, 2 * max(ints).bit_length())
        caps = [share * total for share in shares]
        width = max(
            int(knapsack.upper_bound(ints, profits, order, c.numerator, c.denominator))
            for c in caps
        )
        down, up = (
            scale_ints_rounded(ints, 1 << SCALE_BITS, total, round_up=round_up)
            for round_up in (False, True)
        )
        tables = [knapsack.min_weight_table(w64, profits, width) for w64 in (down, up)]
        for share, exact_cap in zip(shares, caps):
            exact = knapsack.max_profit_under(
                ints, profits, knapsack.strict_cap_int(exact_cap)
            )
            cap = knapsack.strict_cap_int(share * (1 << SCALE_BITS))
            read_down, read_up = (knapsack.max_profit_in(t, cap) for t in tables)
            assert read_down == min(
                table_oracle.max_profit_under_numpy(down, profits, cap), width
            )
            assert read_up == table_oracle.max_profit_under_numpy(up, profits, cap)
            assert read_up <= exact <= read_down
            # A unit per item is all that rounding up can add: what fits
            # the rounded-down table with that much to spare fits both.
            assert knapsack.max_profit_in(tables[0], cap - len(ints)) <= read_up


class TestGreedyBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=8,
        ),
        cap_num=st.integers(min_value=0, max_value=80),
    )
    def test_bounds_bracket_true_optimum(self, items, cap_num):
        weights = normalize_weights([w for w, _ in items]) if any(
            w for w, _ in items
        ) else None
        if weights is None:
            return
        profits = [p for _, p in items]
        capacity = Fraction(cap_num, 2)
        # True strict-capacity optimum by brute force.
        n = len(weights)
        best = 0
        for r in range(n + 1):
            for combo in combinations(range(n), r):
                if sum((weights[i] for i in combo), Fraction(0)) < capacity:
                    best = max(best, sum(profits[i] for i in combo))
        ub = knapsack.fractional_upper_bound(weights, profits, capacity)
        lb = knapsack.greedy_lower_bound(weights, profits, capacity)
        assert lb <= best <= ub

    def test_zero_capacity(self):
        ws = normalize_weights([1, 2])
        assert knapsack.fractional_upper_bound(ws, [1, 1], Fraction(0)) == 0
        assert knapsack.greedy_lower_bound(ws, [1, 1], Fraction(0)) == 0

    def test_lower_bound_catches_big_single_item(self):
        # Greedy packing by density may skip the single most profitable
        # item; the best-single fallback must catch it.
        ws = normalize_weights([1, 1, 1, 10])
        profits = [2, 2, 2, 9]
        capacity = Fraction(11)
        lb = knapsack.greedy_lower_bound(ws, profits, capacity)
        assert lb >= 9
