"""Erasure / error-correcting codes: GF(2^w) arithmetic with a
vectorized block kernel and Reed-Solomon encoding with erasure (Lagrange)
and error (Gao) decoding -- per-symbol reference path plus the
block-striped engine (paper, Section 5)."""

from .gf2m import GF256, GF65536, GF2m, xor_blocks
from .reed_solomon import (
    BlockFragment,
    DecodingFailure,
    Fragment,
    ReedSolomon,
    min_message_symbols,
)

__all__ = [
    "GF2m",
    "GF256",
    "GF65536",
    "xor_blocks",
    "ReedSolomon",
    "Fragment",
    "BlockFragment",
    "DecodingFailure",
    "min_message_symbols",
]
