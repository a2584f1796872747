"""A pure-Python reader and writer of the bit-plane block layout, written
from its definition and sharing no code with ``src/``.

A block of ``B`` bytes over ``GF(2^w)`` is ``w`` planes of ``B / w``
bytes; bit ``b`` of symbol ``s`` is bit ``s % 8`` (least significant
first) of byte ``s // 8`` of plane ``b``.  A payload of ``L`` bytes coded
``(k, m)`` covers ``ceil(L / (k * w / 8))`` stripes, a block holds one bit
per stripe in each plane rounded up to whole bytes, and data shard ``i``
is bytes ``[i*B, (i+1)*B)`` of the zero-padded payload.
"""

from __future__ import annotations

from typing import Sequence


def block_length(payload_len: int, k: int, width: int) -> int:
    stripes = -(-payload_len // (k * width // 8))
    return width * -(-stripes // 8)


def read_symbols(block: bytes, width: int) -> list[int]:
    """Every symbol of a plane block, one bit read at a time."""
    plane = len(block) // width
    return [
        sum(((block[b * plane + s // 8] >> (s % 8)) & 1) << b for b in range(width))
        for s in range(8 * plane)
    ]


def write_block(symbols: Sequence[int], width: int) -> bytes:
    """The plane block holding ``symbols`` (padded with zero symbols to a
    multiple of 8)."""
    plane = -(-len(symbols) // 8)
    out = bytearray(width * plane)
    for s, value in enumerate(symbols):
        for b in range(width):
            if value >> b & 1:
                out[b * plane + s // 8] |= 1 << (s % 8)
    return bytes(out)


def data_words(payload: bytes, k: int, width: int) -> list[list[int]]:
    """The ``k``-symbol data word at every symbol position of the shards."""
    blen = block_length(len(payload), k, width)
    padded = bytes(payload) + bytes(k * blen - len(payload))
    shards = [read_symbols(padded[i * blen : (i + 1) * blen], width) for i in range(k)]
    return [list(word) for word in zip(*shards)]
