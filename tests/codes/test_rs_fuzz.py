"""Fuzz round-trips for Reed-Solomon over GF(2^m), on the per-symbol
reference path (``symbol_oracle``).

Seeded random payloads and random erasure/error patterns, swept up to the
decoding bound -- any k fragments reconstruct, up to ``(r - k) // 2``
corrupted values correct -- plus expected-failure cases strictly beyond
the bound.  Deterministic seeds make every failing draw reproducible.
"""

import random

import pytest

from symbol_oracle import Fragment, SymbolReedSolomon

from repro.codes.gf2m import GF65536
from repro.codes.reed_solomon import DecodingFailure


def _random_code(rng: random.Random, *, max_m: int = 40) -> SymbolReedSolomon:
    k = rng.randint(1, 10)
    m = rng.randint(k, max_m)
    return SymbolReedSolomon(k, m)


def _random_data(rng: random.Random, rs: SymbolReedSolomon) -> list[int]:
    return [rng.randrange(rs.field.size) for _ in range(rs.k)]


class TestErasureFuzz:
    @pytest.mark.parametrize("seed", range(30))
    def test_any_k_fragments_reconstruct(self, seed):
        rng = random.Random(seed)
        rs = _random_code(rng)
        data = _random_data(rng, rs)
        fragments = rs.encode(data)
        chosen = rng.sample(fragments, rs.k)
        assert rs.decode_erasures(chosen) == data

    @pytest.mark.parametrize("seed", range(10))
    def test_below_threshold_fails(self, seed):
        rng = random.Random(100 + seed)
        rs = _random_code(rng)
        if rs.k == 1:
            rs = SymbolReedSolomon(2, max(2, rs.m))
            data = _random_data(rng, rs)
        else:
            data = _random_data(rng, rs)
        fragments = rs.encode(data)
        short = rng.sample(fragments, rs.k - 1)
        with pytest.raises(DecodingFailure):
            rs.decode_erasures(short)

    @pytest.mark.parametrize("seed", range(10))
    def test_bytes_round_trip_with_erasures(self, seed):
        rng = random.Random(200 + seed)
        rs = _random_code(rng)
        payload = rng.randbytes(rng.randint(1, 200))
        blocks, length = rs.encode_bytes(payload)
        surviving = [rng.sample(list(block), rs.k) for block in blocks]
        assert rs.decode_bytes(surviving, length) == payload

    def test_gf65536_large_fragment_count(self):
        rng = random.Random(7)
        rs = SymbolReedSolomon(8, 300)  # m >= 256 forces the 16-bit field
        assert rs.field is GF65536
        data = _random_data(rng, rs)
        fragments = rs.encode(data)
        chosen = rng.sample(fragments, rs.k)
        assert rs.decode_erasures(chosen) == data


def _corrupt(rng, rs, fragments, count):
    """Corrupt ``count`` distinct fragments to different random values."""
    victims = rng.sample(range(len(fragments)), count)
    out = list(fragments)
    for i in victims:
        original = out[i]
        wrong = original.value
        while wrong == original.value:
            wrong = rng.randrange(rs.field.size)
        out[i] = Fragment(index=original.index, value=wrong)
    return out


class TestErrorFuzz:
    @pytest.mark.parametrize("seed", range(30))
    def test_corrects_up_to_the_bound(self, seed):
        rng = random.Random(300 + seed)
        rs = _random_code(rng, max_m=30)
        data = _random_data(rng, rs)
        received = list(rs.encode(data))
        budget = (len(received) - rs.k) // 2
        errors = rng.randint(0, budget)
        corrupted = _corrupt(rng, rs, received, errors)
        assert rs.decode_errors(corrupted) == data

    @pytest.mark.parametrize("seed", range(20))
    def test_beyond_the_bound_never_silently_lies_as_success(self, seed):
        """One error past the budget: the decoder must either raise or
        land on a *different* codeword -- with random corruption it can
        never quietly return the original as if nothing happened while
        claiming the error count fit the budget."""
        rng = random.Random(400 + seed)
        k = rng.randint(1, 6)
        m = rng.randint(k + 2, 24)
        rs = SymbolReedSolomon(k, m)
        data = _random_data(rng, rs)
        received = list(rs.encode(data))
        budget = (len(received) - rs.k) // 2
        corrupted = _corrupt(rng, rs, received, budget + 1)
        try:
            decoded = rs.decode_errors(corrupted)
        except DecodingFailure:
            return  # the expected outcome for most draws
        # Rare legal alternative: the corrupted word fell within another
        # codeword's radius.  It must not equal the original data.
        assert decoded != data

    @pytest.mark.parametrize("seed", range(8))
    def test_erasures_and_errors_combined(self, seed):
        """Drop fragments first, then corrupt within the reduced budget."""
        rng = random.Random(500 + seed)
        rs = SymbolReedSolomon(4, 16)
        data = _random_data(rng, rs)
        fragments = rs.encode(data)
        keep = rng.randint(rs.k + 2, rs.m)
        received = rng.sample(fragments, keep)
        budget = (keep - rs.k) // 2
        corrupted = _corrupt(rng, rs, received, rng.randint(0, budget))
        assert rs.decode_errors(corrupted) == data
