"""Tests for the knapsack tiers: exact DP, numpy DP, greedy bounds.

The array forms -- ``DensityOrder``'s quick test and ``FoldedTable``'s
readings -- are held to the list forms they replaced
(``knapsack_oracle``, ``table_oracle``) and to the exact DP.
"""

from fractions import Fraction
from itertools import combinations

import knapsack_oracle as oracle
import numpy as np
import table_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knapsack
from repro.core.types import SCALE_BITS, ScaledWeights, normalize_weights, scale_ints_rounded
from repro.datasets import load_chain


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


_ITEMS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=0,
    max_size=8,
)

#: profits as Swiper probes have them, mostly one ticket each, and some
#: zero-profit items, which the tables skip
_PROFITS = st.one_of(st.just(1), st.integers(min_value=0, max_value=6))


def _folded(weights, profits, width):
    return knapsack.FoldedTable(
        np.array(weights, dtype=np.int64), np.array(profits, dtype=np.int64), width
    )


class TestFoldedTable:
    """``FoldedTable`` against the table over every item it replaced and
    against the exact big-integer DP."""

    def test_table_is_min_weight_by_profit(self):
        table = knapsack.min_weight_table(
            np.array([3, 2, 5], dtype=np.int64), [1, 1, 2], 4
        )
        assert table.tolist() == [0, 2, 5, 7, 10]

    def test_the_largest_equal_profit_group_is_folded(self):
        folded = _folded([3, 2, 5, 4], [1, 1, 2, 1], 4)
        assert folded.step == 1
        assert folded.lightest.tolist() == [0, 2, 5, 9]
        assert folded.table.tolist() == [0, 5, 5, 2**62, 2**62]
        # Profit 3 is the two-ticket item and the lightest one-ticket one.
        assert [folded.min_weight(p) for p in range(5)] == [0, 2, 5, 7, 10]
        assert [folded.max_profit(c) for c in (-1, 0, 1, 2, 5, 9, 10, 14)] == [
            0, 0, 0, 1, 2, 3, 4, 4
        ]

    def test_width_zero_is_the_empty_set(self):
        table = knapsack.min_weight_table(np.array([3], dtype=np.int64), [2], 0)
        assert table.tolist() == [0]
        assert table_oracle.max_profit_in(table, 10) == 0
        assert table_oracle.max_profit_in(table, -1) == 0
        folded = _folded([3], [2], 0)
        assert (folded.max_profit(10), folded.max_profit(-1), folded.min_weight(0)) == (0, 0, 0)

    def test_single_item_worth_more_than_the_width(self):
        table = knapsack.min_weight_table(np.array([3], dtype=np.int64), [5], 2)
        assert table.tolist() == [0, 3, 3]
        assert table_oracle.max_profit_in(table, 2) == 0
        assert table_oracle.max_profit_in(table, 3) == 2  # clipped at the width
        folded = _folded([3], [5], 2)
        assert (folded.max_profit(2), folded.max_profit(3), folded.min_weight(2)) == (0, 2, 3)

    def test_zero_profit_items_are_never_the_folded_group(self):
        folded = _folded([3, 1, 4, 2], [0, 0, 0, 1], 2)
        assert folded.step == 1
        assert [folded.min_weight(p) for p in range(3)] == [0, 2, None]
        assert [folded.max_profit(c) for c in (1, 2, 10)] == [0, 1, 1]

    def test_unreachable_target_is_none(self):
        assert _folded([7], [1], 3).min_weight(3) is None
        assert _folded([7, 3], [5, 1], 4).min_weight(4) == 7

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), _PROFITS),
            max_size=9,
        ),
        target=st.integers(min_value=0, max_value=25),
    )
    def test_min_weight_equals_the_full_table_and_the_exact_dp(self, items, target):
        weights = [w for w, _ in items]
        profits = [p for _, p in items]
        got = _folded(weights, profits, target).min_weight(target)
        want = knapsack.min_weight_for_profit(weights, profits, target)
        assert got == want
        assert table_oracle.min_weight_for_profit_numpy(
            np.array(weights, dtype=np.int64), profits, target
        ) == want

    @settings(max_examples=150, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), _PROFITS),
            max_size=9,
        ),
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
        folded = _folded(weights, profits, width)
        for cap in caps:
            exact = knapsack.max_profit_under(weights.tolist(), profits, cap)
            assert table_oracle.max_profit_under_numpy(weights, profits, cap) == exact
            assert table_oracle.max_profit_in(table, cap) == min(exact, width)
            assert folded.max_profit(cap) == min(exact, width)

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
        order = oracle.density_order(ints, profits, 2 * max(ints).bit_length())
        caps = [share * total for share in shares]
        width = max(
            int(oracle.upper_bound(ints, profits, order, c.numerator, c.denominator))
            for c in caps
        )
        down, up = (
            scale_ints_rounded(ints, 1 << SCALE_BITS, total, round_up=round_up)
            for round_up in (False, True)
        )
        tables = [_folded(w64, profits, width) for w64 in (down, up)]
        for share, exact_cap in zip(shares, caps):
            exact = knapsack.max_profit_under(
                ints, profits, knapsack.strict_cap_int(exact_cap)
            )
            cap = knapsack.strict_cap_int(share * (1 << SCALE_BITS))
            read_down, read_up = (t.max_profit(cap) for t in tables)
            assert read_down == min(
                table_oracle.max_profit_under_numpy(down, profits, cap), width
            )
            assert read_up == table_oracle.max_profit_under_numpy(up, profits, cap)
            assert read_up <= exact <= read_down
            # A unit per item is all that rounding up can add: what fits
            # the rounded-down table with that much to spare fits both.
            assert tables[0].max_profit(cap - len(ints)) <= read_up


def _array_bounds(weights, profits, capacity):
    """Both greedy bounds of ``DensityOrder`` for rational weights and
    capacity, on the holders (positive profits) of a view."""
    view = ScaledWeights(weights)
    held = np.flatnonzero(np.array(profits) > 0)
    order = knapsack.DensityOrder(view, held, np.array(profits, dtype=np.int64)[held])
    cap = capacity * view.denom
    return (
        order.upper_bound(cap.numerator, cap.denominator),
        order.lower_bound(cap.numerator, cap.denominator),
    )


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
        ).filter(lambda items: any(w for w, _ in items)),
        cap_num=st.integers(min_value=0, max_value=80),
    )
    def test_bounds_bracket_true_optimum(self, items, cap_num):
        weights = normalize_weights([w for w, _ in items])
        profits = [p for _, p in items]
        capacity = Fraction(cap_num, 2)
        # True strict-capacity optimum by brute force.
        n = len(weights)
        best = 0
        for r in range(n + 1):
            for combo in combinations(range(n), r):
                if sum((weights[i] for i in combo), Fraction(0)) < capacity:
                    best = max(best, sum(profits[i] for i in combo))
        ub, lb = _array_bounds(weights, profits, capacity)
        assert lb <= best <= ub
        assert (ub, lb) == (
            oracle.fractional_upper_bound(weights, profits, capacity),
            oracle.greedy_lower_bound(weights, profits, capacity),
        )

    def test_zero_capacity(self):
        assert _array_bounds(normalize_weights([1, 2]), [1, 1], Fraction(0)) == (0, 0)

    def test_lower_bound_catches_big_single_item(self):
        # Greedy packing by density may skip the single most profitable
        # item; the best-single fallback must catch it.
        ws = normalize_weights([1, 1, 1, 10])
        assert _array_bounds(ws, [2, 2, 2, 9], Fraction(11))[1] >= 9

    def test_float_sums_locate_exact_sums_decide(self):
        # Past 2**53 a float cannot tell 2**62 + 1 from 2**62, and the
        # total overflows int64 (31-bit limbs): the crossing and the best
        # single item are settled on the exact sums.
        big = (1 << 62) + 1
        order = knapsack.DensityOrder(
            ScaledWeights([big, big, big]), np.arange(3), np.ones(3, dtype=np.int64)
        )
        assert order.upper_bound(2 * big - 1, 1) == 1 + Fraction(big - 1, big)
        assert order.lower_bound(2 * big, 1) == 1
        assert order.lower_bound(big, 1) == 0  # float(big - 1) == float(big)
        assert order.lower_bound(big + 1, 1) == 1

    def test_greedy_skips_an_item_and_goes_on(self):
        # Densities 3, 1, 1/2: the second item no longer fits, the third does.
        ws = normalize_weights([2, 5, 2])
        assert _array_bounds(ws, [6, 5, 1], Fraction(5)) == (6 + Fraction(3 * 5, 5), 7)
        assert oracle.greedy_lower_bound(ws, [6, 5, 1], Fraction(5)) == 7


# -- the array quick test against the list oracle, on extreme views ---------------------

FILECOIN = ScaledWeights(load_chain("filecoin").weights)


def _counts(n):
    return st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)


@st.composite
def _probes(draw):
    """A view and a probe on it: holders (ascending, positive counts)."""
    family = draw(st.sampled_from(["filecoin", "ties", "huge", "fine"]))
    if family == "filecoin":
        # The snapshot itself: a 65-bit total, weights past 2**53.
        view = FILECOIN
        indices = sorted(draw(st.sets(st.integers(0, len(view) - 1), min_size=1, max_size=40)))
        counts = draw(st.lists(st.integers(1, 4), min_size=len(indices), max_size=len(indices)))
        return view, np.array(indices), np.array(counts, dtype=np.int64)
    n = draw(st.integers(1, 12))
    if family == "ties":  # equal weights and equal densities everywhere
        weights = draw(st.lists(st.sampled_from([0, 2, 4, 6]), min_size=n, max_size=n))
    elif family == "huge":  # 1e400-style weights, past the float range
        weights = draw(
            st.lists(
                st.one_of(st.integers(0, 9), st.integers(0, 10**3).map(lambda k: k * 10**400)),
                min_size=n,
                max_size=n,
            )
        )
    else:  # 1e-400-sized denominators: ~1300-bit integers once scaled
        weights = draw(
            st.lists(
                st.tuples(st.integers(0, 5), st.integers(0, 10**6)).map(
                    lambda p: p[0] + Fraction(p[1], 10**400)
                ),
                min_size=n,
                max_size=n,
            )
        )
    if not any(weights):
        weights[0] = 1
    view = ScaledWeights(weights)
    dense = np.array(draw(_counts(n)), dtype=np.int64)
    indices = np.flatnonzero(dense)
    return view, indices, dense[indices]


def _capacities(view, indices, order, data):
    """Capacities (in the view's units) at and next to the places the
    bounds turn on: prefix sums and single weights, plus shares of W."""
    held = [view.ints[i] for i in order]
    prefix = [sum(held[:k]) for k in range(len(held) + 1)]
    exact = data.draw(st.sampled_from(prefix + held))
    share = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=97))
    return [
        (exact + delta, 1) for delta in (-1, 0, 1)
    ] + [((share * view.total).numerator, (share * view.total).denominator)]


class TestArraysEqualTheListOracles:
    @settings(max_examples=300, deadline=None)
    @given(probe=_probes(), data=st.data())
    def test_order_and_both_bounds(self, probe, data):
        view, indices, counts = probe
        held = [view.ints[i] for i in indices.tolist()]
        expected = oracle.density_order(held, counts.tolist(), view.shift)
        order = knapsack.DensityOrder(view, indices, counts)
        assert order.parties.tolist() == [int(indices[k]) for k in expected]
        for num, den in _capacities(view, indices, order.parties.tolist(), data):
            args = (held, counts.tolist(), expected, num, den)
            assert order.upper_bound(num, den) == oracle.upper_bound(*args)
            assert order.lower_bound(num, den) == oracle.lower_bound(*args)

    @settings(max_examples=200, deadline=None)
    @given(probe=_probes(), share=st.fractions(min_value=0, max_value=1, max_denominator=97))
    def test_folded_readings_of_the_rounded_probe(self, probe, share):
        """The DP tier's two readings on the probe's rounded weights equal
        the full table's and the exact DP's."""
        view, indices, counts = probe
        held = [view.ints[i] for i in indices.tolist()]
        profits = counts.tolist()
        down = scale_ints_rounded(held, 1 << SCALE_BITS, view.total, round_up=False)
        target = sum(profits)
        folded = knapsack.FoldedTable(down, counts, target)
        cap = knapsack.strict_cap_int(share * (1 << SCALE_BITS))
        full = knapsack.min_weight_table(down, profits, target)
        assert folded.max_profit(cap) == table_oracle.max_profit_in(full, cap)
        assert folded.max_profit(cap) == knapsack.max_profit_under(down.tolist(), profits, cap)
        half = (target + 1) // 2
        assert folded.min_weight(target) == table_oracle.min_weight_for_profit_numpy(
            down, profits, target
        )
        assert knapsack.FoldedTable(down, counts, half).min_weight(half) == (
            knapsack.min_weight_for_profit(down.tolist(), profits, half)
        )
