"""The block kernel the coding engine had before it XORed in place:
Horner with one ``xor_blocks`` (two ``int.from_bytes``, a big-int ``^``,
one ``to_bytes``) per step, and a linear combination accumulated in the
int domain.  Kept as the reference the ``numpy`` accumulate must match
byte for byte (``test_block_kernel.py``); never imported from ``src/``.
Everything around the two kernels -- striping, bases, validation, work
counters -- is inherited, so the ``*_blocks`` entry points of
:class:`BigIntReedSolomon` differ from ``ReedSolomon``'s only in how
blocks are added."""

from __future__ import annotations

from typing import Sequence

from repro.codes.gf2m import xor_blocks
from repro.codes.reed_solomon import ReedSolomon


class BigIntReedSolomon(ReedSolomon):
    def _eval_block(self, shards: Sequence[bytes], x: int) -> bytes:
        scale = self.field.scale_block
        acc = shards[-1]
        for i in range(self.k - 2, -1, -1):
            acc = xor_blocks(scale(x, acc), shards[i])
        return acc

    def _combine_blocks(
        self, coeffs: Sequence[int], blocks: Sequence[bytes]
    ) -> bytes:
        scale = self.field.scale_block
        blen = len(blocks[0])
        acc = 0
        for c, b in zip(coeffs, blocks):
            if c:
                acc ^= int.from_bytes(scale(c, b), "little")
        return acc.to_bytes(blen, "little")
