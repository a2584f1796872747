"""The fixed-base exponentiation ``GroupEngine`` ran before squaring
ladders, kept as the oracle the ladder is checked against.

The generator had a w=6 window table built on first use; every other
base went through native ``pow`` for its first three uses and was then
promoted to a w=5 table, with at most six tables kept (LRU).  A table
holds ``base^(d << w*j)`` for every digit value ``d`` at every digit
position ``j``: one exponentiation is then only the non-zero digits'
multiplications, but a 2048-bit w=5 table is 13 120 entries (~3.7 MB).
"""

from __future__ import annotations


class FixedBaseTable:
    """Windowed precomputation ``table[j][d] = base^(d << (w*j)) mod p``.

    One exponentiation then costs only the non-zero digits of the
    exponent -- ``~bits/w`` multiplications, zero squarings.
    """

    __slots__ = ("p", "window", "rows")

    def __init__(self, base: int, p: int, exponent_bits: int, window: int) -> None:
        self.p = p
        self.window = window
        size = 1 << window
        rows = []
        b = base % p
        for _ in range(-(-exponent_bits // window)):
            row = [1] * size
            row[1] = b
            for d in range(2, size):
                row[d] = row[d - 1] * b % p
            rows.append(row)
            b = row[size - 1] * b % p  # base^(2^window): next digit position
        self.rows = rows

    def power(self, exponent: int) -> int:
        p = self.p
        mask = (1 << self.window) - 1
        acc = 1
        j = 0
        rows = self.rows
        while exponent:
            d = exponent & mask
            if d:
                acc = acc * rows[j][d] % p
            exponent >>= self.window
            j += 1
        return acc


#: bases were promoted to a fixed-base table after this many scalar uses
PROMOTE_AFTER = 4
#: at most this many promoted tables were kept per engine (LRU eviction)
MAX_TABLES = 6


class PromotingEngine:
    """``power`` / ``generator_power`` under the promote-after-4 policy."""

    def __init__(self, p: int, order: int, generator: int) -> None:
        self.p = p
        self.order = order
        self.generator = generator % p
        self.gen_table: FixedBaseTable | None = None
        self.tables: dict[int, FixedBaseTable] = {}
        self.hits: dict[int, int] = {}

    def generator_power(self, exponent: int) -> int:
        if self.gen_table is None:
            self.gen_table = FixedBaseTable(
                self.generator, self.p, self.order.bit_length(), window=6
            )
        return self.gen_table.power(exponent % self.order)

    def power(self, base: int, exponent: int) -> int:
        b = base % self.p
        e = exponent % self.order
        if b == self.generator:
            return self.generator_power(e)
        table = self.tables.get(b)
        if table is None:
            hits = self.hits.get(b, 0) + 1
            if hits < PROMOTE_AFTER:
                self.hits[b] = hits
                return pow(b, e, self.p)
            self.hits.pop(b, None)
            if len(self.tables) >= MAX_TABLES:
                self.tables.pop(next(iter(self.tables)))
            table = FixedBaseTable(b, self.p, self.order.bit_length(), window=5)
            self.tables[b] = table
        else:
            self.tables[b] = self.tables.pop(b)
        return table.power(e)
