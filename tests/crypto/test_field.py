"""Unit and property tests for GF(p) arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import PrimeField

SMALL = PrimeField(97)


class TestConstruction:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(91)  # 7 * 13

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_accepts_large_prime(self):
        # the order of the secp256k1 curve group
        field = PrimeField(0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141)
        assert field.modulus.bit_length() == 256


class TestArithmetic:
    def test_element_canonicalizes(self):
        assert SMALL.element(100) == 3
        assert SMALL.element(-1) == 96

    def test_add_sub_roundtrip(self):
        assert SMALL.sub(SMALL.add(40, 80), 80) == 40

    def test_inverse(self):
        for a in range(1, 97):
            assert SMALL.mul(a, SMALL.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            SMALL.inv(0)
        with pytest.raises(ZeroDivisionError):
            SMALL.inv(97)  # canonicalizes to zero

    def test_sum(self):
        assert SMALL.sum([96, 1, 5]) == 5

    def test_contains(self):
        assert SMALL.contains(0) and SMALL.contains(96)
        assert not SMALL.contains(97) and not SMALL.contains(-1)


class TestSampling:
    def test_random_element_in_range(self):
        rng = random.Random(0)
        for _ in range(50):
            assert SMALL.contains(SMALL.random_element(rng))

    def test_random_nonzero(self):
        rng = random.Random(0)
        for _ in range(50):
            assert SMALL.random_nonzero(rng) != 0


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=10**9),
    b=st.integers(min_value=0, max_value=10**9),
    c=st.integers(min_value=0, max_value=10**9),
)
def test_field_axioms(a, b, c):
    """Associativity, commutativity, distributivity mod p."""
    f = SMALL
    a, b, c = f.element(a), f.element(b), f.element(c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
