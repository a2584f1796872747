"""The price stream's array selection, held to the Fraction heap.

A plain :class:`PriceStream` extends its prefix by one array selection:
float keys in the log domain, one numpy sort, exact integer keys for the
runs the floats cannot separate, and a certified cut.  These tests hold it
pick for pick to ``fraction_oracle.cheapest_picks`` where that is hardest
-- long runs of tied prices, weights spanning 2**1000 and past the float
range, zero weights, ``c = 0`` and ``c`` next to 1, huge denominators, one
party -- and however the probes arrive.
"""

import heapq
from fractions import Fraction
from unittest import mock

import fraction_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Swiper, WeightRestriction, prices
from repro.core.prices import PriceStream
from repro.core.types import normalize_weights
from repro.datasets import load_chain


def _equal_blocks(blocks):
    return [w for w, count in blocks for _ in range(count)]


#: a few weights, each repeated: every ordinal is a long run of tied prices
BLOCKS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 25)), min_size=1, max_size=5
).map(_equal_blocks).filter(any)
#: weights 2**0 .. 2**1000 apart in one vector
WIDE = st.lists(
    st.tuples(st.integers(1, 2**20), st.integers(0, 980)), min_size=1, max_size=8
).map(lambda pairs: [m << e for m, e in pairs] + [1, 2**1000])
#: rationals whose common denominator runs to hundreds of digits
HUGE_DENOMINATORS = st.lists(
    st.fractions(min_value=0, max_value=50, max_denominator=10**40), min_size=1, max_size=6
).filter(any)
ZEROS = st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=1, max_size=20).filter(any)
ONE_PARTY = st.integers(1, 10**30).map(lambda w: [w])
WEIGHTS = st.one_of(BLOCKS, WIDE, HUGE_DENOMINATORS, ZEROS, ONE_PARTY)

#: no offset, offsets within a hair of 1, and the usual WR / WS constants
CONSTANTS = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 60).map(lambda e: 1 - Fraction(1, 10**e)),
    st.integers(2, 10**12).map(lambda q: Fraction(q - 1, q)),
    st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(5, 12)]),
)


def _oracle(weights, c, total):
    return oracle.cheapest_picks(normalize_weights(weights), c, total)


class TestPickForPick:
    @settings(max_examples=200, deadline=None)
    @given(weights=WEIGHTS, c=CONSTANTS, total=st.integers(0, 120))
    def test_one_extension(self, weights, c, total):
        stream = PriceStream(weights, c)
        stream.assignment(total)
        assert list(stream._picks) == _oracle(weights, c, total)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=WEIGHTS,
        c=CONSTANTS,
        totals=st.lists(st.integers(1, 120), min_size=2, max_size=6),
        rising=st.booleans(),
    )
    def test_extensions_in_rising_and_falling_order(self, weights, c, totals, rising):
        totals = sorted(totals, reverse=not rising)
        stream = PriceStream(weights, c)
        expected = _oracle(weights, c, max(totals))
        for total in totals:
            indices, counts = stream.sparse_counts(total)
            dense = [0] * len(weights)
            for i in expected[:total]:
                dense[i] += 1
            assert indices.tolist() == [i for i, t in enumerate(dense) if t]
            assert counts.tolist() == [t for t in dense if t]
        assert list(stream._picks) == expected[: stream.depth]
        assert stream.depth == max(totals)

    def test_weights_past_the_float_range(self):
        weights = [3 << 1100, 1 << 1100, 5, 0, 1]
        for c in (Fraction(0), Fraction(1, 3), 1 - Fraction(1, 10**40)):
            stream = PriceStream(weights, c)
            stream.assignment(40)
            assert list(stream._picks) == _oracle(weights, c, 40)

    def test_ordinals_follow_the_picks(self):
        stream = PriceStream([5, 3, 3, 0, 1], Fraction(1, 3))
        stream.assignment(30)
        seen = {}
        for party, m in zip(stream._picks, stream._ords):
            seen[party] = seen.get(party, 0) + 1
            assert m == seen[party]


class TestCertifiedCut:
    def test_an_undercounted_threshold_is_widened(self):
        # Two tied first tickets; a threshold count that leaves party 0's
        # out would hand the pick to party 1.  The cut does not certify
        # (party 0's first ticket sits on it), so the stream widens.
        real = prices._Ladders.counts
        calls = []

        def undercount(self, theta, held, k):
            cnt = real(self, theta, held, k)
            if not calls:
                cnt[0] = 0
            calls.append(theta)
            return cnt

        with mock.patch.object(prices._Ladders, "counts", undercount):
            stream = PriceStream([2, 2], Fraction(0))
            stream.assignment(1)
        assert list(stream._picks) == [0]
        assert len(calls) >= 2 and calls[-1] > calls[0]


class TestNoHeap:
    def test_a_cold_solve_builds_no_heap(self):
        """The plain stream is an array selection: no ``heapify`` over
        ``n`` ladder heads, no per-ticket heap operation."""
        weights = load_chain("tezos").weights
        with mock.patch.object(heapq, "heapify") as heapify, mock.patch.object(
            heapq, "heapreplace"
        ) as heapreplace:
            result = Swiper().solve(WeightRestriction("1/3", "1/2"), weights)
        assert result.total_tickets == 125
        assert heapify.call_count == 0
        assert heapreplace.call_count == 0
