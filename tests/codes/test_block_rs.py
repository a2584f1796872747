"""Property tests: the bit-plane block engine against the per-symbol
reference oracle.

``symbol_oracle.SymbolReedSolomon`` codes one ``k``-symbol word at a
time; ``plane_reader`` reads the symbols out of a block from the layout's
definition, one bit at a time.  On randomized ``(k, m, payload)`` draws
over both fields, the symbols at every position of the engine's fragments
must be the oracle's codeword of the data symbols at that position
(non-systematic), or the codeword through the data at the first ``k``
points (systematic), and every decoder must return the payload --
including corruption the fold cannot see, which must go through the
per-stripe fallback.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from plane_reader import block_length, data_words, read_symbols, write_block
from symbol_oracle import Fragment, SymbolReedSolomon

from repro.codes.gf2m import GF256, GF65536
from repro.codes.reed_solomon import (
    BlockFragment,
    DecodingFailure,
    ReedSolomon,
)

FIELDS = st.sampled_from([GF256, GF65536])
KINDS = st.sampled_from([bytes, bytearray, memoryview])


def _oracle_codewords(rs, payload: bytes, systematic: bool) -> list[list[int]]:
    """``words[s][j]``: fragment ``j``'s symbol at position ``s``, from
    the per-symbol oracle alone."""
    oracle = SymbolReedSolomon(rs.k, rs.m, field=rs.field)
    words = []
    for data in data_words(payload, rs.k, rs.field.width):
        if systematic:
            # the codeword whose values at the first k points are the data
            data = oracle.decode_erasures(
                [Fragment(i, v) for i, v in enumerate(data)]
            )
        words.append([f.value for f in oracle.encode(data)])
    return words


def _engine_codewords(rs, blocks) -> list[list[int]]:
    symbols = [read_symbols(b, rs.field.width) for b in blocks]
    return [list(word) for word in zip(*symbols)]


@st.composite
def _codes(draw, max_k=6, max_extra=6):
    field = draw(FIELDS)
    k = draw(st.integers(1, max_k))
    return ReedSolomon(k, k + draw(st.integers(0, max_extra)), field=field)


class TestEncodeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        rs=_codes(max_k=10, max_extra=12),
        payload=st.binary(min_size=0, max_size=300),
        systematic=st.booleans(),
    )
    def test_symbols_match_per_symbol_oracle(self, rs, payload, systematic):
        blocks = rs.encode_blocks(payload, systematic=systematic)
        width = rs.field.width
        assert all(type(b) is bytes for b in blocks)
        assert {len(b) for b in blocks} == {block_length(len(payload), rs.k, width)}
        assert _engine_codewords(rs, blocks) == _oracle_codewords(
            rs, payload, systematic
        )

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("systematic", [False, True])
    @pytest.mark.parametrize(
        "k, m, length",
        [
            (1, 1, 9),  # k = m = 1
            (1, 7, 33),  # k = 1: every fragment is the data
            (5, 5, 61),  # k = m
            (3, 9, 3 * 16 * 2 - 5),  # a padded tail inside the last plane byte
            (4, 11, 4 * 2 * 8 * 3),  # whole planes, no padding
        ],
    )
    def test_edge_geometries(self, field, systematic, k, m, length):
        rs = ReedSolomon(k, m, field=field)
        payload = random.Random(length).randbytes(length)
        blocks = rs.encode_blocks(payload, systematic=systematic)
        assert _engine_codewords(rs, blocks) == _oracle_codewords(
            rs, payload, systematic
        )
        chosen = random.Random(m).sample(range(m), k)
        assert (
            rs.decode_erasures_blocks(
                {i: blocks[i] for i in chosen}, length, systematic=systematic
            )
            == payload
        )

    def test_gf65536_many_fragments(self):
        rs = ReedSolomon(k=5, m=270)
        assert rs.field is GF65536
        payload = random.Random(0).randbytes(123)
        blocks = rs.encode_blocks(payload)
        assert _engine_codewords(rs, blocks) == _oracle_codewords(rs, payload, False)

    def test_systematic_prefix_is_the_data(self):
        rs = ReedSolomon(k=4, m=9)
        payload = random.Random(1).randbytes(40)
        blocks = rs.encode_blocks(payload, systematic=True)
        blen = rs.block_length(len(payload))
        padded = payload + bytes(rs.k * blen - len(payload))
        # data shard i is the contiguous slice i of the padded payload
        assert blocks[: rs.k] == [
            padded[i * blen : (i + 1) * blen] for i in range(rs.k)
        ]
        assert (
            rs.decode_erasures_blocks(
                {j: blocks[j] for j in range(rs.k)}, len(payload), systematic=True
            )
            == payload
        )

    @pytest.mark.parametrize("systematic", [False, True])
    def test_empty_payload(self, systematic):
        rs = ReedSolomon(k=3, m=7)
        blocks = rs.encode_blocks(b"", systematic=systematic)
        assert blocks == [b""] * 7
        assert rs.decode_erasures_blocks({0: b"", 4: b"", 2: b""}, 0) == b""
        assert rs.decode_errors_blocks({i: b"" for i in range(5)}, 0) == b""

    def test_block_length_is_whole_byte_planes(self):
        # avid-bulk: a 4 MiB object, k = 6, m = 22 -> 699 051 stripes
        rs = ReedSolomon(k=6, m=22)
        assert rs.stripe_count(4 << 20) == 699_051
        assert rs.block_length(4 << 20) == 699_056
        wide = ReedSolomon(k=3, m=300)
        assert wide.stripe_count(100) == 17
        assert wide.block_length(100) == 16 * 3


class TestErasureEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        rs=_codes(max_k=10, max_extra=12),
        payload=st.binary(min_size=1, max_size=300),
        seed=st.integers(min_value=0, max_value=10**6),
        systematic=st.booleans(),
    )
    def test_any_scattered_k_blocks_reconstruct(self, rs, payload, seed, systematic):
        rng = random.Random(seed)
        blocks = rs.encode_blocks(payload, systematic=systematic)
        # more than k, in scattered order: the decoder takes the first k
        subset = rng.sample(range(rs.m), rng.randint(rs.k, rs.m))
        got = rs.decode_erasures_blocks(
            [(j, blocks[j]) for j in subset], len(payload), systematic=systematic
        )
        assert got == payload

    def test_matches_oracle_decode_symbol_for_symbol(self):
        """Same scattered index set -> the oracle's data word at every
        symbol position."""
        rng = random.Random(2)
        rs = ReedSolomon(k=4, m=11)
        oracle = SymbolReedSolomon(4, 11)
        payload = rng.randbytes(64)
        blocks = rs.encode_blocks(payload)
        subset = [9, 2, 7, 4]
        got = rs.decode_erasures_blocks(
            [(j, blocks[j]) for j in subset], len(payload)
        )
        symbols = {j: read_symbols(blocks[j], 8) for j in subset}
        words = [
            oracle.decode_erasures([Fragment(j, symbols[j][s]) for j in subset])
            for s in range(len(symbols[9]))
        ]
        shards = [write_block([w[i] for w in words], 8) for i in range(rs.k)]
        assert got == b"".join(shards)[: len(payload)] == payload

    def test_insufficient_blocks(self):
        rs = ReedSolomon(k=3, m=6)
        blocks = rs.encode_blocks(b"abcdef")
        with pytest.raises(DecodingFailure):
            rs.decode_erasures_blocks({0: blocks[0], 1: blocks[1]}, 6)

    def test_inconsistent_lengths_rejected(self):
        rs = ReedSolomon(k=2, m=4)
        blocks = rs.encode_blocks(b"abcd" * 8)
        with pytest.raises(DecodingFailure):
            rs.decode_erasures_blocks({0: blocks[0], 1: blocks[1] + bytes(8)}, 32)

    def test_partial_plane_rejected(self):
        rs = ReedSolomon(k=2, m=4)
        blocks = rs.encode_blocks(b"abcd")
        with pytest.raises(DecodingFailure, match="bit planes"):
            rs.decode_erasures_blocks({0: blocks[0][:-1], 1: blocks[1][:-1]}, 4)

    def test_accepts_block_fragments_and_pairs(self):
        rs = ReedSolomon(k=2, m=5)
        payload = b"hello world!"
        blocks = rs.encode_blocks(payload)
        frags = [BlockFragment(j, blocks[j]) for j in (1, 3)]
        assert rs.decode_erasures_blocks(frags, len(payload)) == payload
        pairs = [(j, blocks[j]) for j in (4, 2)]
        assert rs.decode_erasures_blocks(pairs, len(payload)) == payload

    def test_index_out_of_range_rejected(self):
        rs = ReedSolomon(k=2, m=4)
        blocks = rs.encode_blocks(b"abcd")
        with pytest.raises(DecodingFailure):
            rs.decode_erasures_blocks({0: blocks[0], 9: blocks[1]}, 4)


class TestInputsAreLeftAlone:
    """Payloads and fragments handed in as ``bytearray`` or ``memoryview``
    come back byte for byte, and nothing returned changes when they are
    overwritten afterwards (so no result is a view of an input)."""

    @settings(max_examples=30, deadline=None)
    @given(
        rs=_codes(),
        stripes=st.sampled_from([1, 7, 8, 1024]),
        kind=KINDS,
        systematic=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_encode_then_decode_from_mutable_inputs(
        self, rs, stripes, kind, systematic, seed
    ):
        frozen = random.Random(seed).randbytes(stripes * rs.k * rs.field.sym_bytes)
        buffer = bytearray(frozen)
        blocks = rs.encode_blocks(kind(buffer), systematic=systematic)
        assert buffer == frozen
        assert all(type(b) is bytes for b in blocks)
        buffer[:] = bytes(len(buffer))
        assert blocks == rs.encode_blocks(frozen, systematic=systematic)

        chosen = random.Random(seed + 1).sample(range(rs.m), rs.k)
        held = {i: bytearray(blocks[i]) for i in chosen}
        got = rs.decode_erasures_blocks(
            {i: kind(b) for i, b in held.items()}, len(frozen), systematic=systematic
        )
        assert type(got) is bytes
        assert got == frozen
        assert held == {i: blocks[i] for i in chosen}
        for block in held.values():
            block[:] = bytes(len(block))
        assert got == frozen

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_error_decode_leaves_fragments_alone(self, kind):
        rs = ReedSolomon(3, 9)
        payload = random.Random(5).randbytes(3 * 40)
        blocks = rs.encode_blocks(payload)
        held = {i: bytearray(b) for i, b in enumerate(blocks)}
        held[4][:] = bytes(len(held[4]))  # one corrupted fragment, budget is 3
        before = {i: bytes(b) for i, b in held.items()}
        got = rs.decode_errors_blocks(
            {i: kind(b) for i, b in held.items()}, len(payload)
        )
        assert got == payload
        assert held == before


def _corrupt(rng, blocks_map, victims):
    out = dict(blocks_map)
    for j in victims:
        b = bytearray(out[j])
        pos = rng.randrange(len(b))
        b[pos] ^= rng.randint(1, 255)
        out[j] = bytes(b)
    return out


class TestErrorEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=8),
        e=st.integers(min_value=0, max_value=4),
        payload=st.binary(min_size=1, max_size=200),
        seed=st.integers(min_value=0, max_value=10**6),
        systematic=st.booleans(),
    )
    def test_corrects_up_to_the_bound(self, k, e, payload, seed, systematic):
        rng = random.Random(seed)
        m = min(k + 2 * e + rng.randrange(3), 60)
        rs = ReedSolomon(k=k, m=m)
        blocks = rs.encode_blocks(payload, systematic=systematic)
        r = rng.randint(k + 2 * e, m)
        received = rng.sample(range(m), r)
        victims = rng.sample(received, e)
        corrupted = _corrupt(rng, {j: blocks[j] for j in received}, victims)
        got = rs.decode_errors_blocks(corrupted, len(payload), systematic=systematic)
        assert got == payload

    def test_whole_fragment_garbling(self):
        """The Byzantine pattern protocols actually produce: every byte
        of a corrupted fragment garbled, across several stripes."""
        rng = random.Random(3)
        rs = ReedSolomon(k=5, m=20)
        payload = rng.randbytes(7 * rs.k)
        blocks = rs.encode_blocks(payload)
        corrupted = {j: blocks[j] for j in range(rs.m)}
        for j in rng.sample(range(rs.m), (rs.m - rs.k) // 2):
            corrupted[j] = bytes(b ^ 0x2A for b in corrupted[j])
        assert rs.decode_errors_blocks(corrupted, len(payload)) == payload

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf256", "gf65536"])
    def test_fold_blind_corruption_falls_back(self, field, monkeypatch):
        """The fold weighs symbol ``s`` by ``alpha^s``, so an error ``e``
        at symbol 1 and ``e * alpha^-5`` at symbol 6 of one fragment
        cancel: the fast path's verification must reject its decode and
        the per-stripe fallback must return the payload."""
        rs = ReedSolomon(k=2, m=8, field=field)
        payload = random.Random(7).randbytes(40)
        blocks = rs.encode_blocks(payload)
        width = field.width
        symbols = read_symbols(blocks[0], width)
        symbols[1] ^= 0x5A
        symbols[6] ^= field.div(0x5A, field.pow(2, 5))
        corrupted = {j: blocks[j] for j in range(rs.m)}
        # fragment 0 is among the first k, so the fast path interpolates
        # through it
        corrupted[0] = write_block(symbols, width)
        assert rs.field.fold(corrupted[0]) == rs.field.fold(blocks[0])
        calls = []
        fallback = ReedSolomon._decode_errors_per_stripe

        def spy(self, unique):
            calls.append(len(unique))
            return fallback(self, unique)

        monkeypatch.setattr(ReedSolomon, "_decode_errors_per_stripe", spy)
        assert rs.decode_errors_blocks(corrupted, len(payload)) == payload
        assert calls == [rs.m]

    @pytest.mark.parametrize("plane_bytes", [2, 4, 100])
    def test_constant_garbling_stays_on_the_fast_path(self, plane_bytes, monkeypatch):
        """``GarbageEcParty`` XORs every byte of a fragment with ``0x2A``:
        with an even number of bytes per plane its error symbols XOR to
        zero, but their position-weighted sum does not, so the fold
        locates the garbled fragments without the per-stripe fallback."""
        rs = ReedSolomon(k=3, m=9)
        payload = random.Random(9).randbytes(rs.k * 8 * plane_bytes)
        blocks = rs.encode_blocks(payload)
        assert len(blocks[0]) == 8 * plane_bytes
        corrupted = {j: blocks[j] for j in range(rs.m)}
        for j in (0, 4, 7):
            corrupted[j] = bytes(b ^ 0x2A for b in blocks[j])

        def refuse(self, unique):
            raise AssertionError("constant garbling reached the fallback")

        monkeypatch.setattr(ReedSolomon, "_decode_errors_per_stripe", refuse)
        assert rs.decode_errors_blocks(corrupted, len(payload)) == payload

    def test_visible_corruption_stays_on_the_fast_path(self, monkeypatch):
        rs = ReedSolomon(k=3, m=9)
        payload = random.Random(8).randbytes(90)
        blocks = rs.encode_blocks(payload)
        corrupted = {j: blocks[j] for j in range(rs.m)}
        for j in (0, 5, 8):
            corrupted[j] = bytes(len(blocks[j]))
        assert all(rs.field.fold(blocks[j]) for j in (0, 5, 8))

        def refuse(self, unique):
            raise AssertionError("fold-visible corruption reached the fallback")

        monkeypatch.setattr(ReedSolomon, "_decode_errors_per_stripe", refuse)
        assert rs.decode_errors_blocks(corrupted, len(payload)) == payload

    def test_beyond_budget_never_returns_wrong_original(self):
        """Whole-fragment garbling one past the budget corrupts every
        stripe beyond its correction radius: the decoder must raise or
        land on a different codeword, never quietly return the original."""
        rng = random.Random(4)
        rs = ReedSolomon(k=3, m=9)
        payload = rng.randbytes(12)
        blocks = rs.encode_blocks(payload)
        corrupted = {j: blocks[j] for j in range(rs.m)}
        for j in rng.sample(range(rs.m), (rs.m - rs.k) // 2 + 1):
            corrupted[j] = bytes(b ^ rng.randint(1, 255) for b in corrupted[j])
        try:
            decoded = rs.decode_errors_blocks(corrupted, len(payload))
        except DecodingFailure:
            return
        assert decoded != payload

    def test_gf65536_error_blocks(self):
        rng = random.Random(5)
        rs = ReedSolomon(k=3, m=280)
        payload = rng.randbytes(50)
        blocks = rs.encode_blocks(payload)
        received = rng.sample(range(rs.m), 11)
        corrupted = _corrupt(
            rng, {j: blocks[j] for j in received}, rng.sample(received, 4)
        )
        assert rs.decode_errors_blocks(corrupted, len(payload)) == payload

    def test_systematic_error_decode(self):
        rng = random.Random(6)
        rs = ReedSolomon(k=4, m=12)
        payload = rng.randbytes(30)
        blocks = rs.encode_blocks(payload, systematic=True)
        corrupted = _corrupt(
            rng, {j: blocks[j] for j in range(rs.m)}, rng.sample(range(rs.m), 4)
        )
        got = rs.decode_errors_blocks(corrupted, len(payload), systematic=True)
        assert got == payload


class TestWorkCounters:
    def test_block_work_counts_symbol_equivalents(self):
        """Table 1's overhead ratios rely on block work being counted in
        the same units as the per-symbol oracle (ops per codeword times
        stripes), however many symbol positions the planes round up to."""
        rs = ReedSolomon(k=3, m=9)
        oracle = SymbolReedSolomon(k=3, m=9)
        payload = bytes(range(9))  # 3 stripes, 8 symbol positions
        blocks = rs.encode_blocks(payload)
        oracle.encode_bytes(payload)
        assert rs.work_counter == oracle.work_counter == 9 * 3 * 3
        before = rs.work_counter
        rs.decode_erasures_blocks({j: blocks[j] for j in range(3)}, len(payload))
        assert rs.work_counter - before == 3 * 3 * 3  # k^2 * stripes
        before = rs.work_counter
        rs.decode_errors_blocks(dict(enumerate(blocks)), len(payload))
        assert rs.work_counter - before == 9 * 9 * 3  # r^2 * stripes

    def test_basis_cache_shared_across_instances(self):
        """AVID constructs a fresh ReedSolomon per retrieval; the cached
        Lagrange basis must survive instance churn."""
        from repro.codes import reed_solomon as mod

        payload = bytes(range(20))
        blocks = ReedSolomon(k=4, m=10).encode_blocks(payload)
        subset = {j: blocks[j] for j in (1, 4, 6, 9)}
        ReedSolomon(k=4, m=10).decode_erasures_blocks(subset, len(payload))
        hits_before = mod._lagrange_basis.cache_info().hits
        ReedSolomon(k=4, m=10).decode_erasures_blocks(subset, len(payload))
        assert mod._lagrange_basis.cache_info().hits > hits_before
