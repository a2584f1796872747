"""Integration tests for online-error-correction dissemination.

Payloads are byte strings carried as block fragments; the online decoder
runs the block engine's fold-locate-verify error decoding per attempt."""

import random

import pytest

from repro.codes import BlockFragment, ReedSolomon
from repro.protocols.ec_broadcast import EcParty, GarbageEcParty, OnlineDecoder
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under, most_tickets_under
from repro.weighted.transform import error_correction_setup

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


def _fragments(code: ReedSolomon, payload: bytes) -> list[BlockFragment]:
    return [BlockFragment(j, b) for j, b in enumerate(code.encode_blocks(payload))]


class TestOnlineDecoder:
    def _make(self, k=3, m=9, seed=0, size=64):
        rng = random.Random(seed)
        code = ReedSolomon(k=k, m=m)
        data = rng.randbytes(size)
        fragments = _fragments(code, data)
        decoder = OnlineDecoder(
            ReedSolomon(k=k, m=m), OnlineDecoder.hash_data(data), len(data)
        )
        return data, fragments, decoder

    def test_decodes_with_k_clean_fragments(self):
        data, fragments, decoder = self._make()
        for f in fragments[:2]:
            assert decoder.add(f) is None
        assert decoder.add(fragments[2]) == data

    def test_garbage_absorbed_with_more_fragments(self):
        data, fragments, decoder = self._make()
        garbage = BlockFragment(0, bytes(b ^ 0x11 for b in fragments[0].block))
        decoder.add(garbage)
        for f in fragments[1:]:
            result = decoder.add(f)
        assert result == data

    def test_duplicate_index_keeps_first(self):
        data, fragments, decoder = self._make()
        decoder.add(fragments[0])
        decoder.add(BlockFragment(0, bytes(b ^ 1 for b in fragments[0].block)))
        assert len(decoder.fragments) == 1
        assert decoder.fragments[0] == fragments[0].block

    def test_out_of_range_index_ignored(self):
        data, fragments, decoder = self._make()
        decoder.add(BlockFragment(99, b"\x01" * len(fragments[0].block)))
        assert not decoder.fragments

    def test_attempt_counter(self):
        data, fragments, decoder = self._make()
        for f in fragments[:3]:
            decoder.add(f)
        assert decoder.attempts >= 1

    def test_wrong_hash_never_accepts(self):
        data, fragments, _ = self._make()
        decoder = OnlineDecoder(ReedSolomon(k=3, m=9), b"\x00" * 32, len(data))
        for f in fragments:
            assert decoder.add(f) is None


class TestEcProtocol:
    def _host(self, rate="1/4", seed=0, corrupt=frozenset(), size=48):
        # Section 5.2 layout: f_w = 1/3, code rate 1/4, beta_n = 5/8.
        setup = error_correction_setup(WEIGHTS, "1/3", rate)
        code = ReedSolomon(k=setup.data_shards, m=setup.total_shards)
        rng = random.Random(seed)
        data = rng.randbytes(size)
        fragments = _fragments(code, data)
        data_hash = OnlineDecoder.hash_data(data)

        def factory(pid):
            cls = GarbageEcParty if pid in corrupt else EcParty
            return cls(pid, code, setup.vmap)

        host = SimHost(factory, len(WEIGHTS), seed=seed)
        for pid in range(len(WEIGHTS)):
            mine = [fragments[v] for v in setup.vmap.virtual_ids(pid)]
            host.party(pid).install(mine, data_hash, len(data))
        return setup, data, host

    def test_all_honest_reconstruct(self):
        setup, data, host = self._host()
        host.party(0).reconstruct()
        host.simulator.run()
        assert host.party(0).reconstructed == data

    def test_reconstruction_despite_garbage_byzantine(self):
        """Corrupt parties (weight < 1/3) answer with garbage; the
        error-correction budget absorbs them (Section 5.2)."""
        corrupt = frozenset(heaviest_under(WEIGHTS, "1/3"))
        setup, data, host = self._host(seed=1, corrupt=corrupt)
        reconstructor = next(p for p in range(len(WEIGHTS)) if p not in corrupt)
        host.party(reconstructor).reconstruct()
        host.simulator.run()
        assert host.party(reconstructor).reconstructed == data

    def test_reconstruction_against_ticket_greedy_adversary(self):
        """The worst adversary for the layout -- grabbing the most
        fragments its weight budget buys -- is still absorbed: WQ plus the
        rate condition guarantee honest fragments >= k + 2e."""
        probe = error_correction_setup(WEIGHTS, "1/3", "1/4")
        tickets = probe.result.assignment.to_list()
        corrupt = frozenset(most_tickets_under(WEIGHTS, tickets, "1/3"))
        setup, data, host = self._host(seed=5, corrupt=corrupt)
        corrupt_frags = sum(setup.vmap.tickets[i] for i in corrupt)
        assert corrupt_frags <= setup.error_budget(setup.total_shards)
        reconstructor = next(p for p in range(len(WEIGHTS)) if p not in corrupt)
        host.party(reconstructor).reconstruct()
        host.simulator.run()
        assert host.party(reconstructor).reconstructed == data

    def test_fragment_position_authenticated(self):
        """Fragments claimed for indices the sender does not own are
        dropped (channel identity authenticates positions in ADD)."""
        setup, data, host = self._host(seed=2)
        party = host.party(0)
        party.reconstruct()
        from repro.protocols.ec_broadcast import EcFragment

        foreign_index = next(iter(setup.vmap.virtual_ids(1)))
        blen = len(party.my_fragments[0].block)
        before = dict(party.decoder.fragments)
        party._handle_fragment(
            EcFragment(BlockFragment(foreign_index, b"\x07" * blen)), sender=0
        )
        assert party.decoder.fragments == before

    def test_requires_install(self):
        setup, data, host = self._host(seed=3)
        fresh = EcParty(99, host.party(0).code, setup.vmap)
        with pytest.raises(RuntimeError):
            fresh.reconstruct()

    def test_decode_work_counted(self):
        setup, data, host = self._host(seed=4)
        host.party(0).reconstruct()
        host.simulator.run()
        assert host.party(0).counters["decode_work"] > 0


class TestMalformedBlocks:
    def test_wrong_length_block_does_not_wedge_decoder(self):
        """A Byzantine fragment with a wrong-length block is dropped like
        any other garbage: honest fragments arriving later still decode
        (regression: it used to poison every subsequent attempt)."""
        rng = random.Random(7)
        code = ReedSolomon(k=3, m=9)
        data = rng.randbytes(30)
        fragments = _fragments(code, data)
        decoder = OnlineDecoder(
            ReedSolomon(k=3, m=9), OnlineDecoder.hash_data(data), len(data)
        )
        assert decoder.add(BlockFragment(0, b"\x01\x02")) is None  # malformed
        assert not decoder.fragments
        result = None
        for f in fragments[1:]:
            result = decoder.add(f)
            if result is not None:
                break
        assert result == data
