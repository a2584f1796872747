"""Tests for the one dealing: plain Feldman VSS and its weighted layout
(one share per ticket, :class:`~repro.crypto.common_coin.WeightedCoin`)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WeightRestriction, solve
from repro.crypto.common_coin import WeightedCoin
from repro.crypto.feldman import FeldmanVSS
from repro.crypto.group import TEST_GROUP_256 as G, SchnorrGroup
from repro.sim.adversary import heaviest_under, most_tickets_under

#: ``p = 23``: the order-11 subgroup, small enough to enumerate secrets
SMALL = SchnorrGroup(p=23, generator=4)


class TestFeldmanDealing:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FeldmanVSS(G, 3, 4)
        with pytest.raises(ValueError):
            FeldmanVSS(G, 3, 0)

    def test_field_too_small(self):
        with pytest.raises(ValueError):
            FeldmanVSS(SMALL, SMALL.order, 2)

    def test_roundtrip(self):
        vss = FeldmanVSS(G, 7, 4)
        shares = vss.deal(123456789, random.Random(0)).shares
        assert vss.reconstruct(shares[:4]) == 123456789
        assert vss.reconstruct(shares[3:]) == 123456789

    def test_duplicate_shares_do_not_count(self):
        vss = FeldmanVSS(G, 5, 3)
        shares = vss.deal(42, random.Random(0)).shares
        with pytest.raises(ValueError):
            vss.reconstruct([shares[0], shares[0], shares[1]])

    def test_k_minus_one_shares_leak_nothing(self):
        """Information-theoretic check on the shares alone: for any k-1
        shares, every candidate secret remains consistent with some
        polynomial."""
        q = SMALL.order
        one = FeldmanVSS(SMALL, 4, 2).deal(5, random.Random(3)).shares[0]
        # With one share of a degree-1 polynomial, any secret s is
        # consistent: the line through (0, s) and (one.index, one.value).
        for candidate in range(q):
            slope = (one.value - candidate) * pow(one.index, q - 2, q) % q
            assert (candidate + slope * one.index) % q == one.value

    def test_random_secret_is_committed(self):
        vss = FeldmanVSS(G, 5, 3)
        dealing = vss.deal(None, random.Random(4))
        assert G.exp_g(vss.reconstruct(dealing.shares)) == dealing.commitment.public_key

    @settings(max_examples=30, deadline=None)
    @given(
        secret=st.integers(min_value=0, max_value=2**40),
        n=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    def test_property_any_k_subset_reconstructs(self, secret, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        vss = FeldmanVSS(G, n, k)
        shares = vss.deal(secret, random.Random(7)).shares
        subset = data.draw(
            st.permutations(shares).map(lambda p: list(p)[:k])
        )
        assert vss.reconstruct(subset) == secret


class TestWeightedDealing:
    WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]

    def _setup(self, alpha_w="1/3", alpha_n="1/2"):
        result = solve(WeightRestriction(alpha_w, alpha_n), self.WEIGHTS)
        coin = WeightedCoin(G, result.assignment, alpha_n, random.Random(1))
        return result, coin

    @staticmethod
    def _pooled(coin, parties):
        return [share for p in parties for share in coin.key(p)]

    @staticmethod
    def _reconstruct(coin, shares):
        return FeldmanVSS(G, coin.total_shares, coin.threshold).reconstruct(shares)

    def test_threshold_definition(self):
        result, coin = self._setup()
        assert coin.threshold == math.ceil(Fraction(1, 2) * result.total_tickets)
        assert coin.total_shares == result.total_tickets

    def test_share_counts_match_tickets(self):
        result, coin = self._setup()
        for i, t in enumerate(result.assignment):
            assert len(coin.key(i)) == t
        indices = [s.index for s in self._pooled(coin, range(len(self.WEIGHTS)))]
        assert indices == list(range(1, result.total_tickets + 1))

    def test_honest_majority_reconstructs(self):
        """Complement of any adversary below alpha_w can reconstruct."""
        result, coin = self._setup()
        corrupt = most_tickets_under(self.WEIGHTS, result.assignment.to_list(), "1/3")
        honest = [i for i in range(len(self.WEIGHTS)) if i not in corrupt]
        assert coin.coalition_can_open(honest)
        secret = self._reconstruct(coin, self._pooled(coin, honest))
        assert G.exp_g(secret) == coin.coin.scheme.keys.public_key

    def test_adversary_below_threshold_cannot(self):
        """The most ticket-greedy adversary under the weight budget holds
        fewer shares than the threshold (the WR guarantee)."""
        result, coin = self._setup()
        corrupt = most_tickets_under(self.WEIGHTS, result.assignment.to_list(), "1/3")
        held = self._pooled(coin, sorted(corrupt))
        assert len(held) < coin.threshold
        with pytest.raises(ValueError):
            self._reconstruct(coin, held)

    def test_heaviest_adversary_cannot(self):
        result, coin = self._setup()
        corrupt = sorted(heaviest_under(self.WEIGHTS, "1/3"))
        assert not coin.coalition_can_open(corrupt)
        assert len(self._pooled(coin, corrupt)) < coin.threshold

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            WeightedCoin(G, [1, 1], "3/2", random.Random(0))
