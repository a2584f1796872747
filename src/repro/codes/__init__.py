"""Erasure / error-correcting codes: GF(2^w) arithmetic with a bit-plane
block kernel, and Reed-Solomon coding of byte payloads as bit-plane
blocks with erasure (Lagrange) and error (Gao) decoding (paper,
Section 5)."""

from .gf2m import GF256, GF65536, GF2m
from .reed_solomon import (
    BlockFragment,
    DecodingFailure,
    ReedSolomon,
    min_message_symbols,
)

__all__ = [
    "GF2m",
    "GF256",
    "GF65536",
    "ReedSolomon",
    "BlockFragment",
    "DecodingFailure",
    "min_message_symbols",
]
