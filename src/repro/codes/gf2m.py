"""Binary extension fields ``GF(2^w)`` with log/antilog tables and a
bit-plane *block kernel*.

Reed-Solomon coding (paper, Section 5) works over a finite field whose
size bounds the number of fragments: the weighted protocols need up to
``T`` fragments where ``T`` can exceed 255, so both ``GF(2^8)`` (classic,
fast) and ``GF(2^16)`` (up to 65535 fragments) are provided.

Two layers live here:

* **scalar** arithmetic via exp/log tables, built *lazily* on first use
  (``GF65536`` alone needs ~196k table entries; importing the package
  must not pay for them);
* **block** arithmetic on *bit planes*.  A block of ``B`` bytes is ``w``
  planes of ``B / w`` bytes, and bit ``b`` of symbol ``s`` is bit ``s``
  of plane ``b`` (byte ``s // 8``, least significant bit first).  In
  this layout multiplying every symbol by ``alpha`` moves plane ``b`` to
  plane ``b + 1`` and XORs the old top plane into the planes of the
  primitive polynomial's low terms, and ``c * X`` is the XOR of the
  doublings ``X * 2^b`` over the set bits of ``c`` -- so every linear
  map of blocks is whole-plane ``numpy`` XORs, with no table pass and no
  per-symbol Python (Blömer et al., "An XOR-Based Erasure-Resilient
  Coding Scheme", 1995).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["GF2m", "GF256", "GF65536"]


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
        #: planes the top plane is XORed into when a block is doubled:
        #: the primitive polynomial's terms between ``x^0`` and ``x^w``
        self.taps = tuple(t for t in range(1, width) if primitive_poly >> t & 1)

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

    # -- bit-plane block kernel ----------------------------------------------------
    @property
    def sym_bytes(self) -> int:
        """Payload bytes per symbol (block ops need width 8 or 16)."""
        if self.width not in (8, 16):
            raise ValueError("block operations need width 8 or 16")
        return self.width // 8

    def combine(
        self, rows: Sequence[Sequence[int]], blocks: Sequence
    ) -> list[np.ndarray]:
        """The linear map ``outs[o] = XOR_j rows[o][j] * blocks[j]``.

        ``blocks`` are equal-length bytes-like plane blocks and are only
        read; ``outs`` are fresh ``(w, B / w)`` ``uint8`` arrays.  For each block in turn the loop
        walks its doublings ``D = block * 2^b`` and XORs ``D`` into every
        output whose coefficient has bit ``b`` set, so one block's worth
        of scratch is live beyond the outputs.  ``D`` is doubled in place
        as a ring of planes: plane ``p`` of ``D`` sits at row
        ``(p + r) % w``, and a doubling steps ``r`` back by one (the old
        top plane becomes plane 0 where it lies) and XORs it into the tap
        planes.  An output's first term is copied rather than XORed
        into zeros, and an output with no term is zeroed.
        """
        w, taps = self.width, self.taps
        plane = memoryview(blocks[0]).nbytes // w
        outs = [np.empty((w, plane), np.uint8) for _ in rows]
        # halves[o][r]: output o cut where a ring rotated by r wraps,
        # built on first use and kept (slicing costs as much as a small XOR)
        halves: list[list] = [[None] * w for _ in outs]
        fresh = [True] * len(outs)
        for j, block in enumerate(blocks):
            terms = [(row[j], o) for o, row in enumerate(rows) if row[j]]
            if not terms:
                continue
            top_bit = max(c for c, _ in terms).bit_length()
            # the previous block's doublings go before this one is copied
            d = ring = np.frombuffer(block, np.uint8).reshape(w, plane)
            r = 0
            for b in range(top_bit):
                tail, head = d[r:], d[:r]
                for c, o in terms:
                    if not c >> b & 1:
                        continue
                    h = halves[o][r]
                    if h is None:
                        h = halves[o][r] = (outs[o][: w - r], outs[o][w - r :])
                    if fresh[o]:
                        fresh[o] = False
                        h[0][...] = tail
                        if r:
                            h[1][...] = head
                    else:
                        np.bitwise_xor(h[0], tail, out=h[0])
                        if r:
                            np.bitwise_xor(h[1], head, out=h[1])
                if b + 1 < top_bit:
                    if b == 0:
                        d = d.copy()
                        ring = list(d)
                    r = (r - 1) % w
                    for t in taps:
                        i = (t + r) % w
                        np.bitwise_xor(ring[i], ring[r], out=ring[i])
        for out, unused in zip(outs, fresh):
            if unused:
                out.fill(0)
        return outs

    def fold(self, block) -> int:
        """``XOR_s alpha^s * X[s]`` over the symbols ``X[s]`` of a plane
        block.  GF-linear, so a codeword of blocks folds to a codeword of
        scalars; weighted by position, so an error hides only if its
        symbols cancel under the weights (every byte XOR a constant
        hides only when a plane is a multiple of ``2^w - 1`` bytes).

        Byte ``q`` of plane ``b``, read as a field element, carries the
        weight ``alpha^(8q + b)``.  ``alpha`` has order ``2^w - 1``, so
        each plane is first XORed down to one period of bytes; the planes
        shifted by ``b`` bits then make one polynomial in ``alpha``,
        wrapped modulo ``x^(2^w - 1) - 1`` and evaluated by Horner's rule
        on its ``w``-bit words.
        """
        w, period = self.width, self.size - 1
        planes = np.frombuffer(block, np.uint8).reshape(w, -1)
        cut = planes.shape[1] - planes.shape[1] % period
        if cut:
            rest = planes[:, cut:]
            planes = np.bitwise_xor.reduce(
                planes[:, :cut].reshape(w, -1, period), axis=1
            )
            planes[:, : rest.shape[1]] ^= rest
        poly = 0
        for b, plane in enumerate(planes):
            poly ^= int.from_bytes(plane.tobytes(), "little") << b
        mask = (1 << period) - 1
        while poly >> period:
            poly = (poly & mask) ^ (poly >> period)
        size = -(-poly.bit_length() // w) * self.sym_bytes
        words = np.frombuffer(poly.to_bytes(size, "little"), f"<u{self.sym_bytes}")
        shift, acc = self.exp[w], 0
        for word in reversed(words.tolist()):
            acc = self.mul(acc, shift) ^ word
        return acc

    def block_to_symbols(self, block) -> list[int]:
        """The symbols of a plane block, in order."""
        planes = np.frombuffer(block, np.uint8).reshape(self.width, -1)
        bits = np.unpackbits(planes, axis=1, bitorder="little").astype(np.int64)
        weights = np.left_shift(1, np.arange(self.width, dtype=np.int64))
        return (weights @ bits).tolist()

    def symbols_to_block(self, symbols: Sequence[int]) -> bytes:
        """Inverse of :meth:`block_to_symbols`; zero symbols pad the
        planes to whole bytes."""
        values = np.asarray(symbols, dtype=np.int64)
        shifts = np.arange(self.width, dtype=np.int64)[:, None]
        bits = ((values[None, :] >> shifts) & 1).astype(np.uint8)
        return np.packbits(bits, axis=1, bitorder="little").tobytes()

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
