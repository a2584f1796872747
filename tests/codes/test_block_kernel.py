"""The in-place block kernel equals the big-int kernel it replaced, and
never writes to a buffer it was handed.

``bigint_oracle`` keeps ``_eval_block`` / ``_combine_blocks`` as they were
when every block addition went through ``int.from_bytes`` / ``to_bytes``.
For both field widths, block lengths from empty to 64 KiB, the scalars 0
and 1, and ``bytes`` / ``bytearray`` / ``memoryview`` inputs, the
``numpy`` accumulate gives the same bytes.  XORing in place adds one bug
class the old kernel could not have -- writing into a caller's buffer, or
handing out a buffer that is still being written -- so inputs are
compared before and after, and every returned block is immutable.
"""

import random

from bigint_oracle import BigIntReedSolomon
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.gf2m import GF256, GF65536, GF2m
from repro.codes.reed_solomon import ReedSolomon

FIELDS = st.sampled_from([GF256, GF65536])
#: symbols per block: empty, one symbol, odd counts, and a 64 KiB block
#: of one-byte symbols (128 KiB in GF(2^16))
SYMBOLS = st.sampled_from([0, 1, 3, 7, 33, 65536])
KINDS = st.sampled_from([bytes, bytearray, memoryview])
SEEDS = st.integers(0, 2**32)


def _scalars(field: GF2m):
    return st.one_of(st.sampled_from([0, 1]), st.integers(0, field.size - 1))


def _blocks(seed: int, count: int, length: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(length) for _ in range(count)]


@st.composite
def _geometry(draw):
    """``(code, oracle, seed)`` for one ``(k, m)`` over either field."""
    field = draw(FIELDS)
    k = draw(st.integers(1, 5))
    m = k + draw(st.integers(0, 4))
    return (
        ReedSolomon(k, m, field=field),
        BigIntReedSolomon(k, m, field=field),
        draw(SEEDS),
    )


class TestEqualsBigIntOracle:
    @settings(max_examples=60, deadline=None)
    @given(geometry=_geometry(), symbols=SYMBOLS, kind=KINDS, data=st.data())
    def test_eval_block(self, geometry, symbols, kind, data):
        rs, oracle, seed = geometry
        x = data.draw(_scalars(rs.field))
        shards = _blocks(seed, rs.k, symbols * rs.field.sym_bytes)
        got = rs._eval_block([kind(s) for s in shards], x)
        assert type(got) is bytes
        assert got == oracle._eval_block(shards, x)

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=_geometry(),
        symbols=SYMBOLS,
        kind=st.sampled_from([bytes, bytearray]),
        data=st.data(),
    )
    def test_combine_blocks(self, geometry, symbols, kind, data):
        rs, oracle, seed = geometry
        coeffs = data.draw(
            st.lists(_scalars(rs.field), min_size=rs.k, max_size=rs.k)
        )
        blocks = _blocks(seed, rs.k, symbols * rs.field.sym_bytes)
        got = rs._combine_blocks(coeffs, [kind(b) for b in blocks])
        assert type(got) is bytes
        assert got == oracle._combine_blocks(coeffs, blocks)

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=_geometry(),
        symbols=SYMBOLS,
        short=st.integers(0, 3),
        kind=KINDS,
        systematic=st.booleans(),
    )
    def test_encode_and_erasure_decode(
        self, geometry, symbols, short, kind, systematic
    ):
        rs, oracle, seed = geometry
        # `short` bytes under a whole number of stripes: the padded tail
        length = max(0, symbols * rs.k * rs.field.sym_bytes - short)
        payload = random.Random(seed).randbytes(length)
        blocks = rs.encode_blocks(kind(payload), systematic=systematic)
        assert all(type(b) is bytes for b in blocks)
        assert blocks == oracle.encode_blocks(payload, systematic=systematic)
        assert rs.work_counter == oracle.work_counter
        chosen = random.Random(seed + 1).sample(range(rs.m), rs.k)
        got = rs.decode_erasures_blocks(
            {i: kind(blocks[i]) for i in chosen}, length, systematic=systematic
        )
        assert type(got) is bytes
        assert got == payload
        assert got == oracle.decode_erasures_blocks(
            {i: blocks[i] for i in chosen}, length, systematic=systematic
        )
        assert rs.work_counter == oracle.work_counter


class TestInputsAreNeverWritten:
    """Shards and fragments handed in as ``bytearray`` come back byte for
    byte, and what was returned does not change when they are overwritten
    afterwards (so no result is a view of an input)."""

    @settings(max_examples=30, deadline=None)
    @given(geometry=_geometry(), symbols=st.sampled_from([1, 7, 1024]))
    def test_eval_and_combine_leave_their_blocks_alone(self, geometry, symbols):
        rs, _, seed = geometry
        frozen = _blocks(seed, rs.k, symbols * rs.field.sym_bytes)
        shards = [bytearray(b) for b in frozen]
        points = rs.points
        first = [rs._eval_block(shards, x) for x in points]
        assert shards == frozen
        assert [rs._eval_block(shards, x) for x in points] == first
        combined = rs._combine_blocks(points[: rs.k], shards)
        assert shards == frozen
        for shard in shards:
            shard[:] = bytes(len(shard))
        assert first == [rs._eval_block(frozen, x) for x in points]
        assert combined == rs._combine_blocks(points[: rs.k], frozen)

    @settings(max_examples=30, deadline=None)
    @given(
        geometry=_geometry(),
        symbols=st.sampled_from([1, 7, 1024]),
        systematic=st.booleans(),
    )
    def test_encode_twice_then_decode_from_bytearrays(
        self, geometry, symbols, systematic
    ):
        rs, _, seed = geometry
        frozen = random.Random(seed).randbytes(symbols * rs.k * rs.field.sym_bytes)
        payload = bytearray(frozen)
        blocks = rs.encode_blocks(payload, systematic=systematic)
        assert payload == frozen
        assert rs.encode_blocks(payload, systematic=systematic) == blocks
        payload[:] = bytes(len(payload))
        assert blocks == rs.encode_blocks(frozen, systematic=systematic)

        chosen = random.Random(seed + 1).sample(range(rs.m), rs.k)
        fragments = {i: bytearray(blocks[i]) for i in chosen}
        got = rs.decode_erasures_blocks(
            fragments, len(frozen), systematic=systematic
        )
        assert got == frozen
        assert fragments == {i: blocks[i] for i in chosen}
        for block in fragments.values():
            block[:] = bytes(len(block))
        assert got == frozen

    def test_error_decode_leaves_bytearray_fragments_alone(self):
        rs = ReedSolomon(3, 9)
        payload = random.Random(5).randbytes(3 * 40)
        blocks = rs.encode_blocks(payload)
        fragments = {i: bytearray(b) for i, b in enumerate(blocks)}
        fragments[4][:] = bytes(40)  # one corrupted fragment, budget is 3
        before = {i: bytes(b) for i, b in fragments.items()}
        assert rs.decode_errors_blocks(fragments, len(payload)) == payload
        assert fragments == before


class TestOneScalarPerEvaluationPoint:
    def test_encode_builds_at_most_m_translation_rows(self):
        """Horner evaluation multiplies by one scalar per fragment, so an
        encode caches at most ``m`` GF(2^16) plane sets.  A combine over
        an ``m x k`` Vandermonde matrix gives the same fragments from
        ``m * k`` distinct scalars, and building their planes makes this
        encode 4.8x slower (423 -> 2046 ms)."""
        field = GF2m(16, GF65536.primitive_poly)
        k, m = 100, 400
        ReedSolomon(k, m, field=field).encode_blocks(
            random.Random(3).randbytes(1024 * k)
        )
        assert 0 < len(field._rows) <= m
