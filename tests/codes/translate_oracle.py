"""The block kernel the coding engine had before bit planes: multiply a
block of big-endian byte symbols by one scalar with ``bytes.translate``
against a per-scalar 256-byte row, and add blocks as big integers.

``GF(2^16)`` symbols split into high/low byte halves, each handled by its
own rows -- ``s*(h*z^8 + l) == (s*z^8)*h + s*l`` -- and the half-products
are added with :func:`xor_blocks`.  Kept as an independent reference for
the plane kernel (``test_block_kernel.py``: symbols are read out of plane
blocks with ``plane_reader``, scaled here, and compared); never imported
from ``src/``.
"""

from __future__ import annotations

from typing import Sequence

from repro.codes.gf2m import GF2m


def xor_blocks(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length blocks (one big-int XOR)."""
    if len(a) != len(b):
        raise ValueError("cannot XOR blocks of different lengths")
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


def symbols_to_block(field: GF2m, symbols: Sequence[int]) -> bytes:
    """Pack symbols as big-endian bytes, ``width // 8`` each."""
    return b"".join(s.to_bytes(field.width // 8, "big") for s in symbols)


def block_to_symbols(field: GF2m, block: bytes) -> list[int]:
    """Inverse of :func:`symbols_to_block`."""
    size = field.width // 8
    return [
        int.from_bytes(block[i : i + size], "big")
        for i in range(0, len(block), size)
    ]


def _row(field: GF2m, s: int) -> list[int]:
    """``row[v] == s * v`` for every byte ``v``."""
    exp, log = field.exp, field.log
    return [0] + [exp[log[s] + log[v]] for v in range(1, 256)]


def scale_block(field: GF2m, s: int, block: bytes) -> bytes:
    """Multiply every symbol of a big-endian symbol block by ``s``."""
    if not block:
        return b""
    if s == 0:
        return bytes(len(block))
    if field.width == 8:
        return block.translate(bytes(_row(field, s)))
    if field.width == 16:
        arow = _row(field, field.mul(s, 0x100))
        brow = _row(field, s)
        hi, lo = block[0::2], block[1::2]
        out = bytearray(len(block))
        out[0::2] = xor_blocks(
            hi.translate(bytes(e >> 8 for e in arow)),
            lo.translate(bytes(e >> 8 for e in brow)),
        )
        out[1::2] = xor_blocks(
            hi.translate(bytes(e & 0xFF for e in arow)),
            lo.translate(bytes(e & 0xFF for e in brow)),
        )
        return bytes(out)
    raise ValueError("block operations need width 8 or 16")


def combine(
    field: GF2m, rows: Sequence[Sequence[int]], blocks: Sequence[bytes]
) -> list[bytes]:
    """``out[o] = XOR_j rows[o][j] * blocks[j]`` on symbol blocks."""
    out = []
    for row in rows:
        acc = bytes(len(blocks[0]))
        for c, block in zip(row, blocks):
            acc = xor_blocks(acc, scale_block(field, c, block))
        out.append(acc)
    return out
