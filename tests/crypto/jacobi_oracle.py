"""The Jacobi symbol the group engine had before it stripped factors of
two in one shift: halve one bit at a time, reading every residue with
``%``.  Kept as the reference ``repro.crypto.group._jacobi`` must agree
with on every input (``test_jacobi.py``); never imported from ``src/``."""

from __future__ import annotations


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0`` (binary algorithm)."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
