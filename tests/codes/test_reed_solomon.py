"""Tests for Reed-Solomon encoding, erasure and error decoding of single
words, on the per-symbol reference path (``symbol_oracle``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbol_oracle import Fragment, SymbolReedSolomon

from repro.codes.gf2m import GF256, GF65536
from repro.codes.reed_solomon import (
    DecodingFailure,
    ReedSolomon,
    min_message_symbols,
)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomon(k=5, m=4)
        with pytest.raises(ValueError):
            ReedSolomon(k=0, m=4)
        with pytest.raises(ValueError):
            ReedSolomon(k=1, m=256, field=GF256)

    def test_field_autoselect(self):
        assert ReedSolomon(k=2, m=100).field is GF256
        assert ReedSolomon(k=2, m=300).field is GF65536

    def test_rate(self):
        assert ReedSolomon(k=1, m=4).rate == 0.25

    def test_min_message_symbols(self):
        # k * log2(m) lower bound from Section 5.1.
        assert min_message_symbols(4, 16) == 16
        assert min_message_symbols(3, 2) == 3


class TestErasureDecoding:
    def test_roundtrip_any_k_fragments(self):
        rng = random.Random(0)
        rs = SymbolReedSolomon(k=4, m=10)
        data = [rng.randrange(256) for _ in range(4)]
        fragments = rs.encode(data)
        for _ in range(10):
            subset = rng.sample(fragments, 4)
            assert rs.decode_erasures(subset) == data

    def test_insufficient_fragments(self):
        rs = SymbolReedSolomon(k=3, m=5)
        fragments = rs.encode([1, 2, 3])
        with pytest.raises(DecodingFailure):
            rs.decode_erasures(fragments[:2])

    def test_duplicates_do_not_count(self):
        rs = SymbolReedSolomon(k=3, m=5)
        fragments = rs.encode([1, 2, 3])
        with pytest.raises(DecodingFailure):
            rs.decode_erasures([fragments[0]] * 3)

    def test_wrong_data_length(self):
        rs = SymbolReedSolomon(k=3, m=5)
        with pytest.raises(ValueError):
            rs.encode([1, 2])

    def test_symbol_range_validated(self):
        rs = SymbolReedSolomon(k=2, m=4, field=GF256)
        with pytest.raises(ValueError):
            rs.encode([1, 256])

    def test_zero_data(self):
        rs = SymbolReedSolomon(k=3, m=6)
        fragments = rs.encode([0, 0, 0])
        assert all(f.value == 0 for f in fragments)
        assert rs.decode_erasures(fragments[2:5]) == [0, 0, 0]

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_roundtrip(self, k, extra, seed):
        rng = random.Random(seed)
        m = k + extra
        rs = SymbolReedSolomon(k=k, m=m)
        data = [rng.randrange(256) for _ in range(k)]
        fragments = rs.encode(data)
        subset = rng.sample(fragments, k)
        assert rs.decode_erasures(subset) == data


class TestErrorDecoding:
    def _corrupt(self, fragments, indices):
        out = list(fragments)
        for i in indices:
            out[i] = Fragment(index=out[i].index, value=out[i].value ^ 0xA5 or 1)
        return out

    def test_corrects_up_to_budget(self):
        rng = random.Random(1)
        rs = SymbolReedSolomon(k=4, m=12)
        data = [rng.randrange(256) for _ in range(4)]
        fragments = rs.encode(data)
        for e in range(5):  # (12-4)//2 == 4 errors max
            received = self._corrupt(fragments, list(range(e)))
            if e <= 4:
                assert rs.decode_errors(received) == data

    def test_too_many_errors_detected(self):
        rng = random.Random(2)
        rs = SymbolReedSolomon(k=4, m=12)
        data = [rng.randrange(256) for _ in range(4)]
        fragments = rs.encode(data)
        received = self._corrupt(fragments, list(range(5)))
        with pytest.raises(DecodingFailure):
            rs.decode_errors(received)

    def test_no_errors_is_fine(self):
        rng = random.Random(3)
        rs = SymbolReedSolomon(k=5, m=9)
        data = [rng.randrange(256) for _ in range(5)]
        assert rs.decode_errors(rs.encode(data)) == data

    def test_needs_k_fragments(self):
        rs = SymbolReedSolomon(k=4, m=8)
        fragments = rs.encode([1, 2, 3, 4])
        with pytest.raises(DecodingFailure):
            rs.decode_errors(fragments[:3])

    def test_partial_reception_with_errors(self):
        """The online-error-correction case: r < m fragments received,
        e <= (r - k) / 2 of them wrong."""
        rng = random.Random(4)
        rs = SymbolReedSolomon(k=3, m=12)
        data = [rng.randrange(256) for _ in range(3)]
        fragments = rs.encode(data)
        received = rng.sample(fragments, 7)  # r=7 -> e up to 2
        received = self._corrupt(received, [0, 1])
        assert rs.decode_errors(received) == data

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        e=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_error_correction(self, k, e, seed):
        rng = random.Random(seed)
        m = k + 2 * e + rng.randrange(3)
        if m > 60:
            return
        rs = SymbolReedSolomon(k=k, m=m)
        data = [rng.randrange(256) for _ in range(k)]
        fragments = rs.encode(data)
        received = self._corrupt(fragments, rng.sample(range(m), e))
        assert rs.decode_errors(received) == data


class TestLargeField:
    def test_gf65536_roundtrip(self):
        rng = random.Random(5)
        rs = SymbolReedSolomon(k=6, m=400)
        data = [rng.randrange(65536) for _ in range(6)]
        fragments = rs.encode(data)
        subset = rng.sample(fragments, 6)
        assert rs.decode_erasures(subset) == data

    def test_gf65536_error_correction(self):
        rng = random.Random(6)
        rs = SymbolReedSolomon(k=3, m=300)
        data = [rng.randrange(65536) for _ in range(3)]
        fragments = rs.encode(data)
        received = rng.sample(fragments, 9)
        received[0] = Fragment(received[0].index, received[0].value ^ 0xFFFF or 1)
        received[1] = Fragment(received[1].index, received[1].value ^ 0x1234 or 1)
        assert rs.decode_errors(received) == data


class TestByteInterface:
    @settings(max_examples=20, deadline=None)
    @given(
        blob=st.binary(min_size=0, max_size=200),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_property_bytes_roundtrip(self, blob, k):
        rs = SymbolReedSolomon(k=k, m=k + 4)
        blocks, length = rs.encode_bytes(blob)
        assert rs.decode_bytes(blocks, length) == blob

    def test_bytes_roundtrip_gf65536(self):
        rs = SymbolReedSolomon(k=4, m=260)
        blob = bytes(range(256)) * 2
        blocks, length = rs.encode_bytes(blob)
        trimmed = [list(b)[:4] for b in blocks]
        assert rs.decode_bytes(trimmed, length) == blob

    def test_work_counter_increases(self):
        rs = SymbolReedSolomon(k=3, m=9)
        before = rs.work_counter
        rs.encode([1, 2, 3])
        assert rs.work_counter > before
