"""Prime-field arithmetic ``GF(p)``.

The secret-sharing and threshold-cryptography substrates (paper, Sections
4.1-4.3) operate over a prime field: Shamir polynomials live in
``GF(q)`` for a group order ``q``, and Lagrange interpolation happens
there too.  This module provides a small, explicit field API -- values are
plain ``int`` residues; the :class:`PrimeField` object carries the modulus
and the operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["PrimeField"]


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit, probabilistic above."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime ``modulus``.

    Elements are canonical residues in ``[0, modulus)``; every operation
    validates nothing for speed but :meth:`element` canonicalizes inputs.
    """

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2 or not _is_probable_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")

    # -- element handling ------------------------------------------------------
    def element(self, value: int) -> int:
        """Canonical residue of ``value``."""
        return value % self.modulus

    def contains(self, value: int) -> bool:
        """Is ``value`` a canonical residue of this field?"""
        return 0 <= value < self.modulus

    # -- arithmetic ------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
        if a % self.modulus == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, -1, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.modulus)

    def sum(self, values: Iterable[int]) -> int:
        total = 0
        for v in values:
            total += v
        return total % self.modulus

    def prod(self, values: Iterable[int]) -> int:
        total = 1
        for v in values:
            total = total * v % self.modulus
        return total

    # -- sampling ----------------------------------------------------------------
    def random_element(self, rng) -> int:
        """Uniform element from a ``random.Random``-like generator."""
        return rng.randrange(self.modulus)

    def random_nonzero(self, rng) -> int:
        """Uniform non-zero element."""
        return rng.randrange(1, self.modulus)
