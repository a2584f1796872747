"""The bit-plane kernel against the translate kernel it replaced, and its
memory bound.

``translate_oracle`` multiplies big-endian byte-symbol blocks by a scalar
with ``bytes.translate``; ``plane_reader`` reads the symbols of a plane
block bit by bit.  For both field widths, blocks from one plane byte to
130-byte planes, scalars 0, 1, alpha and random ones, and ``bytes`` /
``bytearray`` / ``memoryview`` inputs, ``GF2m.combine`` must give the
symbols the oracle gives -- and never write to a block it was handed.
"""

import random
import tracemalloc

import numpy as np
import pytest
import translate_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from plane_reader import read_symbols, write_block

from repro.codes.gf2m import GF256, GF65536, GF2m
from repro.codes.reed_solomon import ReedSolomon

FIELDS = st.sampled_from([GF256, GF65536])
#: bytes per plane: one byte, odd counts, and a few hundred symbols (the
#: bit-by-bit reader bounds the size; ``TestMemory`` codes 200 KB blocks)
PLANE_BYTES = st.sampled_from([1, 3, 5, 33, 130])
KINDS = st.sampled_from([bytes, bytearray, memoryview])
SEEDS = st.integers(0, 2**32)


def _scalars(field: GF2m):
    return st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, field.size - 1))


def _symbol_blocks(field: GF2m, blocks) -> list[bytes]:
    """Plane blocks rewritten as the oracle's big-endian symbol blocks."""
    return [
        translate_oracle.symbols_to_block(field, read_symbols(bytes(b), field.width))
        for b in blocks
    ]


def _planes(field: GF2m, out: np.ndarray) -> bytes:
    assert out.dtype == np.uint8 and out.shape[0] == field.width
    return out.tobytes()


class TestEqualsTranslateOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        field=FIELDS,
        plane=PLANE_BYTES,
        kind=KINDS,
        seed=SEEDS,
        data=st.data(),
    )
    def test_combine(self, field, plane, kind, seed, data):
        rng = random.Random(seed)
        count = data.draw(st.integers(1, 4))
        rows = data.draw(
            st.lists(
                st.lists(_scalars(field), min_size=count, max_size=count),
                min_size=1,
                max_size=4,
            )
        )
        blocks = [rng.randbytes(field.width * plane) for _ in range(count)]
        outs = field.combine(rows, [kind(b) for b in blocks])
        expect = translate_oracle.combine(field, rows, _symbol_blocks(field, blocks))
        got = _symbol_blocks(field, [_planes(field, o) for o in outs])
        assert got == expect

    @settings(max_examples=30, deadline=None)
    @given(field=FIELDS, plane=st.sampled_from([1, 2, 9]), seed=SEEDS)
    def test_doubling_walks_every_bit(self, field, plane, seed):
        """``2^b * X`` for every ``b < w``: one doubling step per bit."""
        block = random.Random(seed).randbytes(field.width * plane)
        symbols = read_symbols(block, field.width)
        for b in range(field.width):
            (out,) = field.combine([[1 << b]], [block])
            assert read_symbols(out.tobytes(), field.width) == [
                field.mul(1 << b, v) for v in symbols
            ]

    def test_taps_are_the_primitive_polynomials_low_terms(self):
        assert GF256.taps == (2, 3, 4)  # x^8 + x^4 + x^3 + x^2 + 1
        assert GF65536.taps == (1, 3, 12)  # x^16 + x^12 + x^3 + x + 1

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("plane", [1, 4, 17, 254, 255, 256, 600])
    def test_fold_is_the_alpha_weighted_sum_of_the_symbols(self, field, plane):
        """``fold = XOR_s alpha^s * X[s]``, also past one period of
        ``2^8 - 1`` plane bytes, where GF(2^8) wraps the weights."""
        block = random.Random(plane).randbytes(field.width * plane)
        expect = 0
        for s, v in enumerate(read_symbols(block, field.width)):
            expect ^= field.mul(field.pow(field.alpha, s), v)
        assert field.fold(block) == expect

    @settings(max_examples=30, deadline=None)
    @given(field=FIELDS, count=st.sampled_from([8, 16, 72]), seed=SEEDS)
    def test_symbol_conversions_match_the_reader(self, field, count, seed):
        rng = random.Random(seed)
        symbols = [rng.randrange(field.size) for _ in range(count)]
        block = field.symbols_to_block(symbols)
        assert block == write_block(symbols, field.width)
        assert field.block_to_symbols(block) == symbols

    def test_rows_without_terms_are_zero(self):
        block = bytes(range(16))
        outs = GF256.combine([[0, 0], [1, 0], [0, 0]], [block, block])
        assert [o.tobytes() for o in outs] == [bytes(16), block, bytes(16)]


class TestInputsAreNeverWritten:
    @settings(max_examples=30, deadline=None)
    @given(field=FIELDS, plane=st.sampled_from([1, 7, 1024]), seed=SEEDS)
    def test_combine_leaves_its_blocks_alone(self, field, plane, seed):
        rng = random.Random(seed)
        frozen = [rng.randbytes(field.width * plane) for _ in range(3)]
        blocks = [bytearray(b) for b in frozen]
        rows = [[rng.randrange(field.size) for _ in range(3)] for _ in range(4)]
        first = [o.tobytes() for o in field.combine(rows, blocks)]
        assert blocks == frozen
        assert [o.tobytes() for o in field.combine(rows, blocks)] == first
        for block in blocks:
            block[:] = bytes(len(block))
        assert [o.tobytes() for o in field.combine(rows, frozen)] == first


class TestMemory:
    def test_encode_peak_is_the_fragments_plus_two_blocks(self):
        """The kernel keeps one doubled block beside the outputs, and each
        output is handed out as ``bytes`` as soon as the map is done: an
        encode never holds more than ``m + 2`` blocks (the fragments, the
        scratch block, and the padded last shard or the block being
        copied out).  A kernel that kept every doubling of a block, or
        the arrays and the fragments at once, would hold ``m + w`` or
        ``2m``.  The slack covers the kernel's array views (two per output
        and ring rotation, ~50 KB here) -- well under one 200 KB block."""
        k, m = 6, 22
        rs = ReedSolomon(k, m)
        payload = random.Random(3).randbytes(k * 200_000 - 7)
        blen = rs.block_length(len(payload))
        tracemalloc.start()
        try:
            fragments = rs.encode_blocks(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fragments) == m
        assert peak <= (m + 2) * blen + 96 * 1024
        chosen = {j: fragments[j] for j in (20, 3, 11, 7, 0, 15)}
        assert rs.decode_erasures_blocks(chosen, len(payload)) == payload
