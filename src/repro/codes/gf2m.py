"""Binary extension fields ``GF(2^w)`` with log/antilog tables and a
vectorized *block kernel*.

Reed-Solomon coding (paper, Section 5) works over a finite field whose
size bounds the number of fragments: the weighted protocols need up to
``T`` fragments where ``T`` can exceed 255, so both ``GF(2^8)`` (classic,
fast) and ``GF(2^16)`` (up to 65535 fragments) are provided.

Two performance layers live here:

* **scalar** arithmetic via exp/log tables, built *lazily* on first use
  (``GF65536`` alone needs ~196k table entries; importing the package
  must not pay for them);
* **block** arithmetic: multiplying every symbol of a byte block by one
  field scalar runs as a handful of C-level primitives (``translate``
  against a per-scalar 256-byte row, strided slicing) instead of one
  Python call per symbol.  ``GF(2^16)`` symbols split into high/low byte
  planes, each handled by its own translation row -- ``s*(h*z^8 + l) ==
  (s*z^8)*h + s*l`` -- so the same ``translate`` trick covers the 16-bit
  field; its half-planes are added with :func:`xor_blocks` (big-int
  XOR).  Adding whole blocks -- the accumulate of a Horner step or a
  linear combination -- is not done here: :mod:`~repro.codes.reed_solomon`
  XORs in place through ``numpy`` views, because at fragment size a
  big-int round trip costs three times the table pass it follows.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["GF2m", "GF256", "GF65536", "xor_blocks"]

#: per-scalar translation rows are cached on the field; GF(2^8) tops out
#: at 256 entries (64 KiB) but GF(2^16) could reach 65535 x ~1 KiB, so
#: the cache is bounded (coding touches far fewer distinct scalars).
_ROW_CACHE_MAX = 8192


def xor_blocks(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length blocks at C speed.

    Characteristic-2 block addition: both operands are reinterpreted as
    one big integer each, XORed, and written back -- three C-level
    operations regardless of block length.
    """
    if len(a) != len(b):
        raise ValueError("cannot XOR blocks of different lengths")
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


class GF2m:
    """The field ``GF(2^w)`` defined by a primitive polynomial.

    Elements are ints in ``[0, 2^w)``; addition is XOR; multiplication
    uses exp/log tables built lazily on first arithmetic use (a
    non-primitive polynomial therefore raises on first *use*, not at
    construction).
    """

    def __init__(self, width: int, primitive_poly: int) -> None:
        if not 2 <= width <= 16:
            raise ValueError("width must be in [2, 16]")
        self.width = width
        self.size = 1 << width
        self.primitive_poly = primitive_poly
        #: scalar -> translation row(s) for the block kernel
        self._rows: dict = {}

    # -- lazy tables ------------------------------------------------------------
    def __getattr__(self, name: str):
        # Only the two tables are lazily materialized; anything else
        # missing is a genuine AttributeError.
        if name in ("exp", "log"):
            self._build_tables()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def tables_built(self) -> bool:
        """Whether the exp/log tables have been materialized yet."""
        return "exp" in self.__dict__

    def _build_tables(self) -> None:
        exp = [0] * (2 * self.size)
        log = [0] * self.size
        x = 1
        for i in range(self.size - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.size:
                x ^= self.primitive_poly
        if x != 1:
            raise ValueError(
                f"{self.primitive_poly:#x} is not primitive for width {self.width}"
            )
        # Double the table to skip a modulo in mul.
        for i in range(self.size - 1, 2 * self.size):
            exp[i] = exp[i - (self.size - 1)]
        self.__dict__["exp"] = exp
        self.__dict__["log"] = log

    # -- arithmetic -------------------------------------------------------------
    @staticmethod
    def add(a: int, b: int) -> int:
        """Characteristic-2 addition (XOR); subtraction is identical."""
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        return self.exp[self.size - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self.exp[self.log[a] - self.log[b] + self.size - 1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.size - 1)]

    @property
    def alpha(self) -> int:
        """A fixed primitive element (the root of the primitive poly)."""
        return 2

    def element_at(self, i: int) -> int:
        """``alpha^i``: canonical distinct non-zero evaluation points."""
        return self.exp[i % (self.size - 1)]

    # -- block kernel -----------------------------------------------------------
    @property
    def sym_bytes(self) -> int:
        """Bytes per symbol in block form (block ops need width 8 or 16)."""
        if self.width not in (8, 16):
            raise ValueError("block operations need width 8 or 16")
        return self.width // 8

    def _row8(self, s: int) -> bytes:
        """256-byte translation row: ``row[v] == s * v`` (width 8)."""
        row = self._rows.get(s)
        if row is None:
            exp, log = self.exp, self.log
            ls = log[s]
            row = bytes([0] + [exp[ls + log[v]] for v in range(1, 256)])
            if len(self._rows) >= _ROW_CACHE_MAX:
                self._rows.clear()
            self._rows[s] = row
        return row

    def _planes16(self, s: int) -> tuple[bytes, bytes, bytes, bytes]:
        """Four 256-byte rows realizing 16-bit scalar multiplication.

        A symbol ``v = (h << 8) | l`` satisfies ``s*v = (s*z^8)*h ^ s*l``
        where ``z^8`` is the field element ``0x100``; the two byte-input
        products each split into high/low output planes:
        ``(A_hi, A_lo, B_hi, B_lo)`` with ``A[v] = (s*0x100)*v`` and
        ``B[v] = s*v``.
        """
        planes = self._rows.get(s)
        if planes is None:
            exp, log = self.exp, self.log
            lb = log[s]
            la = log[self.mul(s, 0x100)]
            arow = [0] + [exp[la + log[v]] for v in range(1, 256)]
            brow = [0] + [exp[lb + log[v]] for v in range(1, 256)]
            planes = (
                bytes(e >> 8 for e in arow),
                bytes(e & 0xFF for e in arow),
                bytes(e >> 8 for e in brow),
                bytes(e & 0xFF for e in brow),
            )
            if len(self._rows) >= _ROW_CACHE_MAX:
                self._rows.clear()
            self._rows[s] = planes
        return planes

    def scale_block(self, s: int, block: bytes) -> bytes:
        """Multiply every symbol of ``block`` by the scalar ``s``.

        ``block`` packs big-endian symbols of :attr:`sym_bytes` bytes
        each.  The whole pass is C-level: one ``translate`` for width 8;
        two strided slices, four ``translate``s, two big-int XORs and two
        strided writes for width 16.
        """
        if not block:
            return b""
        if s == 0:
            return bytes(len(block))
        if s == 1:
            return bytes(block)
        if self.width == 8:
            return block.translate(self._row8(s))
        if self.width == 16:
            a_hi, a_lo, b_hi, b_lo = self._planes16(s)
            hi = block[0::2]
            lo = block[1::2]
            out = bytearray(len(block))
            out[0::2] = xor_blocks(hi.translate(a_hi), lo.translate(b_hi))
            out[1::2] = xor_blocks(hi.translate(a_lo), lo.translate(b_lo))
            return bytes(out)
        raise ValueError("block operations need width 8 or 16")

    def symbols_to_block(self, symbols: Sequence[int]) -> bytes:
        """Pack symbols into their big-endian block representation."""
        if self.sym_bytes == 1:
            return bytes(symbols)
        out = bytearray()
        for s in symbols:
            out += s.to_bytes(2, "big")
        return bytes(out)

    def block_to_symbols(self, block: bytes) -> list[int]:
        """Inverse of :meth:`symbols_to_block`."""
        if self.sym_bytes == 1:
            return list(block)
        return [
            (block[i] << 8) | block[i + 1] for i in range(0, len(block), 2)
        ]

    # -- polynomials (coefficient lists, index = degree) -------------------------
    def poly_eval(self, poly: Sequence[int], x: int) -> int:
        """Horner evaluation of ``poly`` (index = degree) at ``x``."""
        acc = 0
        for c in reversed(poly):
            acc = self.mul(acc, x) ^ c
        return acc

    def poly_add(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        out = list(a) if len(a) >= len(b) else list(b)
        short = b if len(a) >= len(b) else a
        for i, c in enumerate(short):
            out[i] ^= c
        while out and out[-1] == 0:
            out.pop()
        return out

    def poly_mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            la = self.log[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= self.exp[la + self.log[bj]]
        while out and out[-1] == 0:
            out.pop()
        return out

    def poly_scale(self, a: Sequence[int], s: int) -> list[int]:
        return [self.mul(c, s) for c in a]

    def poly_divmod(
        self, num: Sequence[int], den: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Polynomial division with remainder."""
        num = list(num)
        while num and num[-1] == 0:
            num.pop()
        den = list(den)
        while den and den[-1] == 0:
            den.pop()
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        if len(num) < len(den):
            return [], num
        quot = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        inv_lead = self.inv(den[-1])
        for shift in range(len(num) - len(den), -1, -1):
            coef = self.mul(rem[shift + len(den) - 1], inv_lead)
            quot[shift] = coef
            if coef:
                for i, d in enumerate(den):
                    rem[shift + i] ^= self.mul(d, coef)
        while rem and rem[-1] == 0:
            rem.pop()
        return quot, rem

    def poly_deriv(self, a: Sequence[int]) -> list[int]:
        """Formal derivative (odd-degree terms survive in char 2)."""
        out = [a[i] if i % 2 == 1 else 0 for i in range(1, len(a))]
        while out and out[-1] == 0:
            out.pop()
        return out


#: ``GF(2^8)`` with the AES/QR-code primitive polynomial ``x^8+x^4+x^3+x^2+1``.
GF256 = GF2m(8, 0x11D)

#: ``GF(2^16)`` with primitive polynomial ``x^16+x^12+x^3+x+1``.
GF65536 = GF2m(16, 0x1100B)
