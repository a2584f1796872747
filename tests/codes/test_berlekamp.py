"""Tests for the Berlekamp-Massey LFSR synthesis and Chien search oracle."""

import random

import pytest
from berlekamp import berlekamp_massey, chien_search, lfsr_generate
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.gf2m import GF256


class TestLfsrGenerate:
    def test_known_recurrence(self):
        # s_n = s_{n-1} (connection 1 + x): constant continuation.
        out = lfsr_generate(GF256, [1, 1], [9], 5)
        assert out == [9, 9, 9, 9, 9]

    def test_seed_too_short(self):
        with pytest.raises(ValueError):
            lfsr_generate(GF256, [1, 1, 1], [5], 4)


class TestBerlekampMassey:
    def test_recovers_known_lfsr(self):
        conn = [1, 7, 3]
        seq = lfsr_generate(GF256, conn, [1, 9], 16)
        assert berlekamp_massey(GF256, seq) == conn

    def test_zero_sequence(self):
        assert berlekamp_massey(GF256, [0] * 8) == [1]

    def test_constant_sequence(self):
        conn = berlekamp_massey(GF256, [5] * 10)
        # Must regenerate the sequence.
        assert lfsr_generate(GF256, conn, [5], 10) == [5] * 10

    def test_degree_is_minimal(self):
        # A degree-2 recurrence must not synthesize to degree 3+.
        conn = [1, 2, 3]
        seq = lfsr_generate(GF256, conn, [4, 5], 14)
        rec = berlekamp_massey(GF256, seq)
        assert len(rec) - 1 <= 2

    @settings(max_examples=40, deadline=None)
    @given(
        taps=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4),
        seed_vals=st.data(),
    )
    def test_property_synthesized_lfsr_regenerates(self, taps, seed_vals):
        degree = len(taps)
        conn = [1] + taps
        seed = seed_vals.draw(
            st.lists(
                st.integers(min_value=0, max_value=255),
                min_size=degree,
                max_size=degree,
            )
        )
        seq = lfsr_generate(GF256, conn, seed, 4 * degree + 4)
        rec = berlekamp_massey(GF256, seq)
        deg = len(rec) - 1
        # Defining property: the recurrence holds from position `deg` on.
        for n in range(deg, len(seq)):
            expected = 0
            for i in range(1, deg + 1):
                expected ^= GF256.mul(rec[i], seq[n - i])
            assert seq[n] == expected
        # Minimality: no longer than the recurrence we generated with.
        assert deg <= degree


class TestChienSearch:
    def test_finds_roots_of_locator(self):
        # Locator with roots alpha^{-3} and alpha^{-7}:
        # (1 - x alpha^3)(1 - x alpha^7)
        a3 = GF256.element_at(3)
        a7 = GF256.element_at(7)
        locator = GF256.poly_mul([1, a3], [1, a7])
        roots = chien_search(GF256, locator)
        assert sorted(roots) == [3, 7]

    def test_rootless_polynomial(self):
        # x^2 + x + irreducible constant has no roots in some cases; just
        # check consistency: every reported root really evaluates to zero.
        locator = [5, 3, 1]
        for i in chien_search(GF256, locator):
            x = GF256.inv(GF256.element_at(i))
            assert GF256.poly_eval(locator, x) == 0
