"""The integer hot path equals the Fraction code it replaced.

``fraction_oracle`` holds the price heap, the density sort and the two
greedy bounds as they were written on ``Fraction`` values.  The solver
now orders prices and densities through integer keys over one
``ScaledWeights`` view; these tests hold it -- and the list forms of the
quick test in ``knapsack_oracle`` -- to the oracle pick for pick (ties by
party index included), position for position and value for value -- on
integer, mixed-denominator, float-derived and 300-bit weights, with equal
and zero weights, at the tightest key shift the exactness argument
allows.
"""

from collections import Counter
from fractions import Fraction
from unittest import mock

import fraction_oracle as oracle
import knapsack_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Committee, IncrementalSolver
from repro.core import (
    Swiper,
    WeightRestriction,
    WeightSeparation,
    knapsack,
    make_checker,
    types,
)
from repro.core.prices import PriceStream
from repro.core.types import ScaledWeights, normalize_weights
from repro.core.verify import Verdict


def _vectors(element, max_size=10):
    return st.lists(element, min_size=1, max_size=max_size).filter(any)


#: few distinct values: equal weights, equal prices and zeros are common
SMALL_INTS = _vectors(st.integers(0, 6))
MIXED = _vectors(st.fractions(min_value=0, max_value=40, max_denominator=12))
FLOATS = _vectors(
    st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
    max_size=6,
)
HUGE = _vectors(st.integers(0, 2**300), max_size=6)
WEIGHTS = st.one_of(SMALL_INTS, MIXED, FLOATS, HUGE)

#: rounding constants: none, the WR/WQ/WS constants of common parameters,
#: and arbitrary ones
CONSTANTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)]),
    st.fractions(min_value=0, max_value=Fraction(49, 50), max_denominator=50),
)

SHARES = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50
)


def _tight_shift(ints):
    """The smallest shift the exactness argument allows: 2**K >= a_max**2."""
    return 2 * max(ints).bit_length()


# -- pick sequences --------------------------------------------------------------------


class TestPickSequences:
    @settings(max_examples=150, deadline=None)
    @given(weights=WEIGHTS, c=CONSTANTS, totals=st.lists(st.integers(0, 40), min_size=1, max_size=5))
    def test_assignments_equal_the_fraction_heap(self, weights, c, totals):
        ws = normalize_weights(weights)
        picks = oracle.cheapest_picks(ws, c, max(totals))
        stream = PriceStream(weights, c)
        # Probed in arbitrary order, as the binary search does.
        for total in totals:
            expected = Counter(picks[:total])
            assert stream.assignment(total) == [expected[i] for i in range(len(ws))]
            indices, counts = stream.sparse_counts(total)
            assert indices.tolist() == sorted(expected)
            assert counts.tolist() == [expected[i] for i in indices.tolist()]

    @settings(max_examples=150, deadline=None)
    @given(weights=WEIGHTS, c=CONSTANTS, total=st.integers(1, 40))
    def test_pick_order_is_exact_without_slack_bits(self, weights, c, total):
        # 2**K >= a_max**2 is all the argument needs; the slack bits only
        # buy room for patches.
        with mock.patch.object(types, "_KEY_SLACK_BITS", 0):
            stream = PriceStream(weights, c)
        assert stream.scaled.shift == _tight_shift(stream.scaled.ints)
        stream.assignment(total)
        assert list(stream._picks) == oracle.cheapest_picks(normalize_weights(weights), c, total)

    def test_equal_weights_tie_by_party_index(self):
        stream = PriceStream([3, 3, 0, 3], Fraction(1, 3))
        stream.assignment(7)
        assert list(stream._picks) == [0, 1, 3, 0, 1, 3, 0]

    def test_equal_prices_of_unequal_weights_tie_by_party_index(self):
        # c = 0: ticket 2 of weight 2 and ticket 1 of weight 1 both cost 1.
        ws = normalize_weights([1, 2, 1])
        assert PriceStream(ws, Fraction(0)).assignment(4) == [1, 2, 1]
        stream = PriceStream(ws, Fraction(0))
        stream.assignment(4)
        assert list(stream._picks) == oracle.cheapest_picks(ws, Fraction(0), 4) == [1, 0, 1, 2]


# -- density order and the greedy bounds -----------------------------------------------


ITEMS = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 6),
            st.fractions(min_value=0, max_value=20, max_denominator=12),
            st.integers(0, 2**300),
        ),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=10,
)


class TestDensityOrder:
    @settings(max_examples=200, deadline=None)
    @given(items=ITEMS)
    def test_dense_sparse_and_array_forms_equal_the_fraction_sort(self, items):
        ws = [Fraction(w) for w, _ in items]
        profits = [t for _, t in items]
        expected = oracle.density_order(ws, profits)
        ints, _ = knapsack.scale_weights_exact(ws)
        shift = _tight_shift(ints)
        assert knapsack_oracle.density_order(ints, profits, shift) == expected
        # Holder-only form: positions map back to the same parties.
        holders = [i for i, t in enumerate(profits) if t > 0]
        sparse = knapsack_oracle.density_order(
            [ints[i] for i in holders], [profits[i] for i in holders], shift
        )
        assert [holders[k] for k in sparse] == expected
        if any(ws):
            counts = np.array([profits[i] for i in holders], dtype=np.int64)
            order = knapsack.DensityOrder(
                ScaledWeights(ws), np.array(holders, dtype=np.intp), counts
            )
            assert order.parties.tolist() == expected

    def test_equal_densities_keep_input_order_and_zero_weights_lead(self):
        ints = [4, 0, 2, 1, 0, 6]
        profits = [2, 1, 1, 0, 3, 3]  # densities 1/2, inf, 1/2, -, inf, 1/2
        expected = [1, 4, 0, 2, 5]
        assert knapsack_oracle.density_order(ints, profits, _tight_shift(ints)) == expected
        holders = sorted(expected)
        order = knapsack.DensityOrder(
            ScaledWeights(ints),
            np.array(holders),
            np.array([profits[i] for i in holders], dtype=np.int64),
        )
        assert order.parties.tolist() == expected


class TestGreedyBounds:
    @settings(max_examples=200, deadline=None)
    @given(
        items=ITEMS,
        capacity=st.fractions(min_value=-1, max_value=60, max_denominator=12),
    )
    def test_both_bounds_equal_the_fraction_bounds(self, items, capacity):
        ws = [Fraction(w) for w, _ in items]
        profits = [t for _, t in items]
        upper = oracle.fractional_upper_bound(ws, profits, capacity)
        lower = oracle.greedy_lower_bound(ws, profits, capacity)
        assert knapsack_oracle.fractional_upper_bound(ws, profits, capacity) == upper
        assert knapsack_oracle.greedy_lower_bound(ws, profits, capacity) == lower
        if any(ws):
            view = ScaledWeights(ws)
            holders = np.array([i for i, t in enumerate(profits) if t > 0], dtype=np.intp)
            order = knapsack.DensityOrder(
                view, holders, np.array(profits, dtype=np.int64)[holders]
            )
            cap = capacity * view.denom
            assert order.upper_bound(cap.numerator, cap.denominator) == upper
            assert order.lower_bound(cap.numerator, cap.denominator) == lower

    @staticmethod
    def _oracle_verdict(ws, tickets, caps, target):
        upper = sum(oracle.fractional_upper_bound(ws, tickets, cap) for cap in caps)
        if upper < target:
            return Verdict.VALID
        lower = sum(oracle.greedy_lower_bound(ws, tickets, cap) for cap in caps)
        return Verdict.INVALID if lower >= target else Verdict.UNCERTAIN

    @settings(max_examples=150, deadline=None)
    @given(weights=WEIGHTS, low=SHARES, high=SHARES, data=st.data())
    def test_quick_verdicts_at_wr_and_ws_capacities(self, weights, low, high, data):
        if low == high:
            high = (high + 1) / 2
        low, high = min(low, high), max(low, high)
        ws = normalize_weights(weights)
        total_weight = sum(ws)
        tickets = data.draw(
            st.lists(st.integers(0, 5), min_size=len(ws), max_size=len(ws)).filter(any)
        )
        total = sum(tickets)

        wr = make_checker(WeightRestriction(low, high), weights)
        assert wr.quick(tickets, total) == self._oracle_verdict(
            ws, tickets, [low * total_weight], wr.violation_target(total)
        )
        ws_checker = make_checker(WeightSeparation(low, high), weights)
        assert ws_checker.quick(tickets, total) == self._oracle_verdict(
            ws, tickets, [low * total_weight, (1 - high) * total_weight], total
        )


# -- patched streams and the incremental solver ----------------------------------------

C = Fraction(1, 3)
PROBLEM = WeightRestriction("1/3", "1/2")


class TestPatchedStreams:
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.lists(st.integers(0, 30), min_size=3, max_size=24).filter(any),
        depth=st.integers(0, 30),
        data=st.data(),
    )
    def test_patched_equals_fresh_equals_the_fraction_heap(self, base, depth, data):
        n = len(base)
        changed = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=min(16, n), unique=True)
        )
        joins = data.draw(st.integers(0, 2))
        changes = {
            i: data.draw(st.integers(0, 60))
            for i in changed + list(range(n, n + joins))
        }
        new = base + [0] * joins
        for i, w in changes.items():
            new[i] = w

        stream = PriceStream(base, C)
        stream.assignment(depth)
        if not any(w for i, w in enumerate(base) if i not in changes):
            with pytest.raises(ValueError, match="build a fresh PriceStream"):
                stream.patched(changes)
            return
        patched = stream.patched(changes)
        assert patched.scaled == ScaledWeights(new)
        assert patched.scaled.total == sum(new)

        totals = data.draw(st.lists(st.integers(0, 45), min_size=1, max_size=4))
        picks = oracle.cheapest_picks(normalize_weights(new), C, max(totals))
        fresh = PriceStream(new, C)
        flat = patched.compact()
        for total in totals:
            expected = Counter(picks[:total])
            dense = [expected[i] for i in range(len(new))]
            assert patched.assignment(total) == fresh.assignment(total) == dense
            assert flat.assignment(total) == dense
        # Not only the counts: the merged pick order is the oracle's.
        assert patched._picks[: max(totals)] == picks[: max(totals)]

    def test_chains_of_patches_stay_equal(self):
        ws = list(Committee.synthetic("zipf", n=60, total=6000, skew=1.2, seed=3).weights)
        stream = PriceStream(ws, C)
        stream.assignment(25)
        for step in range(5):
            ws[step * 7] += step + 1
            stream = stream.patched({step * 7: ws[step * 7]})
            assert stream.assignment(40) == PriceStream(ws, C).assignment(40)
        assert stream._chain == 5

    def test_changed_heaviest_party_interleaves_with_every_run(self):
        ws = list(Committee.synthetic("zipf", n=60, total=6000, skew=1.2, seed=3).weights)
        heaviest = ws.index(max(ws))
        stream = PriceStream(ws, C)
        stream.assignment(10)
        for new_weight in (ws[heaviest] // 2, ws[heaviest] * 3, 0):
            ws[heaviest] = new_weight
            patched = stream.patched({heaviest: new_weight})
            for total in (1, 7, 64, 65, 200):
                assert patched.assignment(total) == PriceStream(ws, C).assignment(total)
            assert patched._picks == oracle.cheapest_picks(
                normalize_weights(ws), C, len(patched._picks)
            )

    def test_solve_accepts_a_patched_stream_for_raw_rational_weights(self):
        # The public ``stream=`` path: the caller holds raw weights, the
        # stream a view patched over its base's (non-minimal) denominator.
        base = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
        new = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 5), Fraction(1, 7)]
        c = PROBLEM.rounding_constant
        patched = PriceStream(base, c).patched({1: new[1]})
        assert patched.scaled.denom != ScaledWeights(new).denom
        via_stream = Swiper().solve(PROBLEM, new, stream=patched)
        assert via_stream.assignment == Swiper().solve(PROBLEM, new).assignment
        with pytest.raises(ValueError, match="different weights"):
            Swiper().solve(PROBLEM, base, stream=patched)

    def test_new_denominator_needs_a_fresh_stream(self):
        stream = PriceStream([5, 3, 2], C)
        with pytest.raises(ValueError, match="denominator.*build a fresh PriceStream"):
            stream.patched({1: Fraction(7, 2)})

    def test_weight_outgrowing_the_key_shift_needs_a_fresh_stream(self):
        stream = PriceStream([5, 3, 2], C)
        assert stream.patched({0: 5 << 8}).assignment(6) == PriceStream(
            [5 << 8, 3, 2], C
        ).assignment(6)
        with pytest.raises(ValueError, match="precision.*build a fresh PriceStream"):
            stream.patched({0: 5 << 9})


def _committee(n=120):
    return list(Committee.synthetic("zipf", n=n, total=n * 100, skew=1.2, seed=11).weights)


def _cold(weights):
    solver = IncrementalSolver(PROBLEM)
    result = solver.solve(weights)
    assert solver.last_mode == "cold"
    return result


class TestIncrementalSolver:
    @pytest.mark.parametrize("k", [1, 2, 5, 16])
    def test_k_changed_parties_equal_a_cold_solve(self, k):
        base = _committee()
        ws = list(base)
        for j in range(k):
            i = (j * 7) % len(ws)
            ws[i] = ws[i] + (ws[i] // 5 + 1) * (-1 if j % 2 else 1)
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        inc = solver.solve(ws)
        assert (solver.last_mode, solver.last_changed) == ("incremental", k)
        cold = _cold(ws)
        assert inc.assignment == cold.assignment
        assert inc.probes == cold.probes

    def test_join_is_incremental(self):
        base = _committee()
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        inc = solver.solve(base + [77])
        assert solver.last_mode == "incremental"
        assert inc.assignment == _cold(base + [77]).assignment

    def test_ordinary_growth_of_the_heaviest_party_is_incremental(self):
        base = _committee()
        heaviest = base.index(max(base))
        ws = list(base)
        ws[heaviest] *= 100
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        inc = solver.solve(ws)
        assert solver.last_mode == "incremental"
        assert inc.assignment == _cold(ws).assignment

    def test_growth_by_2_to_the_20_falls_back_to_cold_with_the_same_tickets(self):
        base = _committee()
        heaviest = base.index(max(base))
        ws = list(base)
        ws[heaviest] <<= 20
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        result = solver.solve(ws)
        assert solver.last_mode == "cold"
        assert result.assignment == _cold(ws).assignment
        # The fallback re-primed the cache: the next small delta is incremental.
        ws[0] += 1
        assert solver.solve(ws).assignment == _cold(ws).assignment
        assert solver.last_mode == "incremental"

    def test_new_denominator_falls_back_to_cold_with_the_same_tickets(self):
        base = _committee()
        ws = list(base)
        ws[3] = Fraction(2 * ws[3] + 1, 2)
        solver = IncrementalSolver(PROBLEM)
        solver.solve(base)
        result = solver.solve(ws)
        assert solver.last_mode == "cold"
        assert result.assignment == _cold(ws).assignment
