"""The per-symbol Reed-Solomon reference path: one Python field
operation per symbol, kept as the block engine's oracle and never imported
from ``src/``.

:class:`SymbolReedSolomon` is a :class:`~repro.codes.reed_solomon.ReedSolomon`
that also codes single ``k``-symbol words (:meth:`~SymbolReedSolomon.encode`,
``decode_erasures`` by naive Lagrange interpolation, ``decode_errors`` by
Gao's decoder sharing the engine's ``_gao_finish``) and byte strings chunk
by chunk (``encode_bytes`` / ``decode_bytes``, big-endian symbols).  The
block engine is held to it symbol for symbol in ``test_block_rs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.codes.reed_solomon import DecodingFailure, ReedSolomon


@dataclass(frozen=True)
class Fragment:
    """One coded symbol: position ``index`` (0-based) and its ``value``."""

    index: int
    value: int


class SymbolReedSolomon(ReedSolomon):
    # -- encoding ---------------------------------------------------------------
    def encode(self, data: Sequence[int]) -> list[Fragment]:
        """Encode ``k`` data symbols into ``m`` fragments."""
        if len(data) != self.k:
            raise ValueError(f"data must have exactly k={self.k} symbols")
        for s in data:
            if not 0 <= s < self.field.size:
                raise ValueError(f"symbol {s} outside GF(2^{self.field.width})")
        out = []
        for j, x in enumerate(self.points):
            out.append(Fragment(index=j, value=self.field.poly_eval(data, x)))
        self.work_counter += self.m * self.k
        return out

    # -- erasure decoding ---------------------------------------------------------
    def decode_erasures(self, fragments: Sequence[Fragment]) -> list[int]:
        """Reconstruct data from any ``k`` correct fragments (Lagrange)."""
        unique = {f.index: f for f in fragments}
        if len(unique) < self.k:
            raise DecodingFailure(
                f"need {self.k} fragments, got {len(unique)} distinct"
            )
        chosen = list(unique.values())[: self.k]
        xs = [self.points[f.index] for f in chosen]
        ys = [f.value for f in chosen]
        data = self._interpolate(xs, ys)
        self.work_counter += self.k * self.k
        if len(data) > self.k:
            raise DecodingFailure("interpolation exceeded expected degree")
        return data + [0] * (self.k - len(data))

    def _interpolate(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """Coefficients of the unique poly of degree < len(xs) through points."""
        f = self.field
        result: list[int] = []
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            num = [1]
            den = 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                num = f.poly_mul(num, [xj, 1])  # (x - xj) == (x + xj) in char 2
                den = f.mul(den, xi ^ xj)
            term = f.poly_scale(num, f.div(yi, den))
            result = f.poly_add(result, term)
        return result

    # -- error decoding (Gao) --------------------------------------------------------
    def decode_errors(self, fragments: Sequence[Fragment]) -> list[int]:
        """Reconstruct from fragments containing up to
        ``(len(fragments) - k) // 2`` wrong values (Gao's decoder).

        Raises :class:`DecodingFailure` when the error budget is exceeded.
        """
        unique = {f.index: f for f in fragments}
        received = list(unique.values())
        r = len(received)
        if r < self.k:
            raise DecodingFailure(f"need at least k={self.k} fragments, got {r}")
        f = self.field
        xs = [self.points[frag.index] for frag in received]
        ys = [frag.value for frag in received]
        # g0 = prod (x - x_i); g1 interpolates the received word.
        g0 = [1]
        for x in xs:
            g0 = f.poly_mul(g0, [x, 1])
        g1 = self._interpolate(xs, ys)
        self.work_counter += r * r
        return self._gao_finish(xs, ys, g0, g1, r)

    # -- byte strings, chunk by chunk --------------------------------------------------
    def encode_bytes(self, data: bytes) -> tuple[list[list[Fragment]], int]:
        """Encode an arbitrary byte string chunk by chunk.

        Returns ``(blocks, original_length)`` where each block is the
        fragment list of one ``k``-symbol chunk.  Symbols are single bytes
        for GF(2^8), byte pairs for GF(2^16).
        """
        sym_bytes = self.field.width // 8
        chunk = self.k * sym_bytes
        padded = data + b"\x00" * ((-len(data)) % chunk)
        blocks = []
        for off in range(0, len(padded), chunk):
            piece = padded[off : off + chunk]
            symbols = [
                int.from_bytes(piece[i : i + sym_bytes], "big")
                for i in range(0, len(piece), sym_bytes)
            ]
            blocks.append(self.encode(symbols))
        return blocks, len(data)

    def decode_bytes(
        self, blocks: Sequence[Sequence[Fragment]], original_length: int
    ) -> bytes:
        """Inverse of :meth:`encode_bytes` using erasure decoding."""
        sym_bytes = self.field.width // 8
        out = bytearray()
        for fragments in blocks:
            symbols = self.decode_erasures(list(fragments))
            for s in symbols:
                out += s.to_bytes(sym_bytes, "big")
        return bytes(out[:original_length])
