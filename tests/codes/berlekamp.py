"""Berlekamp-Massey LFSR synthesis over ``GF(2^w)``: a test-side decoder
reference.

The paper cites Berlekamp-Massey as the standard Reed-Solomon decoding
workhorse whose cost drives the computation-overhead columns of Table 1
(Section 5.1).  This module implements the algorithm in its general form
-- shortest linear recurrence (LFSR) for a field sequence -- together
with the syndrome-domain helpers (Chien search root finding) used by
classic RS decoders.  ``repro.codes`` decodes errors with Gao's algorithm
for arbitrary evaluation-point sets and never calls into this module; it
lives under ``tests/`` as a second, independent decoder building block
for the canonical primitive-point layout.
"""

from __future__ import annotations

from typing import Sequence

from repro.codes.gf2m import GF2m

__all__ = ["berlekamp_massey", "chien_search", "lfsr_generate"]


def berlekamp_massey(field: GF2m, sequence: Sequence[int]) -> list[int]:
    """Shortest LFSR ``C(x) = 1 + c_1 x + ... + c_L x^L`` generating
    ``sequence``: for all ``n >= L``,
    ``s_n = sum_{i=1..L} c_i * s_{n-i}`` (in characteristic 2 the sign
    vanishes).  Returns the connection coefficient list padded to length
    ``L + 1`` (the linear complexity may exceed the polynomial degree,
    e.g. for ``[1, 0, 0, ...]`` where ``C(x) = 1`` but ``L = 1``), with
    ``C[0] == 1``.
    """
    c = [1]  # connection polynomial C(x)
    b = [1]  # previous C before last length change
    length = 0
    m = 1
    bb = 1  # discrepancy at last length change
    for n, s_n in enumerate(sequence):
        # Discrepancy d = s_n + sum c_i * s_{n-i}.
        d = s_n
        for i in range(1, length + 1):
            if i < len(c) and c[i]:
                d ^= field.mul(c[i], sequence[n - i])
        if d == 0:
            m += 1
            continue
        coef = field.div(d, bb)
        t = list(c)
        # c(x) -= coef * x^m * b(x)
        needed = m + len(b)
        if len(c) < needed:
            c = c + [0] * (needed - len(c))
        for i, bi in enumerate(b):
            c[m + i] ^= field.mul(coef, bi)
        if 2 * length <= n:
            length = n + 1 - length
            b = t
            bb = d
            m = 1
        else:
            m += 1
    # Pad/trim to exactly L + 1 coefficients: the linear complexity L is
    # the quantity recurrence checks must use, not the stripped degree.
    if len(c) < length + 1:
        c = c + [0] * (length + 1 - len(c))
    return c[: length + 1]


def chien_search(field: GF2m, locator: Sequence[int]) -> list[int]:
    """Roots of the error-locator polynomial by exhaustive evaluation.

    Returns the exponents ``i`` such that ``locator(alpha^{-i}) == 0`` --
    the standard error-position read-out of a syndrome-domain decoder.
    """
    roots = []
    for i in range(field.size - 1):
        x = field.inv(field.element_at(i))
        if field.poly_eval(locator, x) == 0:
            roots.append(i)
    return roots


def lfsr_generate(
    field: GF2m, connection: Sequence[int], seed: Sequence[int], count: int
) -> list[int]:
    """Run the LFSR defined by ``connection`` from ``seed`` for ``count``
    outputs (seed included).  Inverse operation of
    :func:`berlekamp_massey`, used by its property tests."""
    degree = len(connection) - 1
    if len(seed) < degree:
        raise ValueError("seed must cover the LFSR degree")
    out = list(seed)
    while len(out) < count:
        nxt = 0
        for i in range(1, degree + 1):
            if connection[i]:
                nxt ^= field.mul(connection[i], out[-i])
        out.append(nxt)
    return out[:count]
