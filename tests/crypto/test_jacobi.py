"""The shift-per-step Jacobi symbol against the bit-at-a-time one it
replaced (``jacobi_oracle``) and against Euler's criterion, the
definition membership rests on: ``(a/p) == a^((p-1)/2) mod p`` for a
prime ``p``, multiplied over the prime factors of a composite ``n``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi_oracle import jacobi as oracle_jacobi
from repro.crypto.group import (
    _RFC3526_P,
    _TEST_P,
    RFC3526_GROUP_2048,
    TEST_GROUP_256,
    SchnorrGroup,
    _jacobi,
)

GROUPS = [TEST_GROUP_256, RFC3526_GROUP_2048]
IDS = ["256", "2048"]


def _euler(a: int, p: int) -> int:
    """Legendre symbol of ``a`` mod an odd prime ``p`` by Euler's criterion."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _factor(n: int) -> list[int]:
    primes, d = [], 3
    while d * d <= n:
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 2
    return primes + ([n] if n > 1 else [])


def _jacobi_by_definition(a: int, n: int) -> int:
    result = 1
    for prime in _factor(n):
        result *= _euler(a, prime)
    return result


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_agrees_with_oracle_and_euler_on_the_groups(group, data):
    a = data.draw(st.integers(min_value=1, max_value=group.p - 1))
    got = _jacobi(a, group.p)
    assert got == oracle_jacobi(a, group.p) == _euler(a, group.p)
    assert got in (1, -1)


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=0, max_value=64), data=st.data())
def test_powers_of_two_times_an_odd_part(group, k, data):
    # Runs of trailing zeros are what one shift strips at once: (2/p)^k
    # must come out as the parity of k says, whatever the odd part.
    m = data.draw(st.integers(min_value=0, max_value=group.p >> 65)) | 1
    a = (m << k) % group.p
    assert _jacobi(a, group.p) == oracle_jacobi(a, group.p) == _euler(a, group.p)
    assert _jacobi(1 << k, group.p) == _jacobi(2, group.p) ** k


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_zero_and_inputs_at_or_above_the_modulus(group):
    p = group.p
    assert _jacobi(0, p) == oracle_jacobi(0, p) == 0
    assert _jacobi(p, p) == _jacobi(2 * p, p) == 0
    for a in (group.generator, p - group.generator, 2, p - 1):
        for shifted in (a + p, a + 5 * p, a + (p << 70), a - p):
            assert _jacobi(shifted, p) == oracle_jacobi(shifted, p) == _jacobi(a, p)
    assert not group.is_member_fast(0) and not group.is_member_fast(p)
    assert not group.is_member_fast(group.generator + p)


def test_small_odd_moduli_including_composites():
    # A Jacobi symbol, not only a Legendre one: over composite n it is
    # the product of the prime factors' symbols and can be +1 on a
    # non-residue (2 mod 15) or 0 off the unit group (3 mod 9).
    for n in range(1, 226, 2):
        for a in range(-n, 2 * n + 1):
            want = _jacobi_by_definition(a, n)
            assert _jacobi(a, n) == oracle_jacobi(a, n) == want, (a, n)
    assert _jacobi(2, 15) == 1 and _jacobi(3, 9) == 0


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=-(2**80), max_value=2**80),
    n=st.integers(min_value=0, max_value=2**40).map(lambda v: 2 * v + 1),
)
def test_agrees_with_oracle_on_arbitrary_odd_moduli(a, n):
    assert _jacobi(a, n) == oracle_jacobi(a, n)


def test_the_generator_check_is_eulers_criterion():
    # SchnorrGroup checks its generator by the Jacobi symbol, not by a
    # full-width g^q: both shipped groups construct (4 is a square), and
    # so does 2 in the 2048-bit group, where p = 7 (mod 8) makes 2 a
    # residue of order q.  A non-residue, 0 and 1 are refused.
    for p in (_TEST_P, _RFC3526_P):
        assert SchnorrGroup(p=p, generator=4).is_member(4)
    assert _RFC3526_P % 8 == 7 and RFC3526_GROUP_2048.is_member(2)
    assert SchnorrGroup(p=_RFC3526_P, generator=2).generator == 2
    assert SchnorrGroup(p=23, generator=4).order == 11
    for generator in (5, 0, 1, 23):
        with pytest.raises(ValueError, match="order-q subgroup"):
            SchnorrGroup(p=23, generator=generator)
