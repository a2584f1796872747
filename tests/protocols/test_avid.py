"""Integration tests for AVID erasure-coded storage, weighted and nominal.

Payloads are byte strings carried as block fragments end to end (the
vectorized coding engine); retrieval must hand back the exact bytes."""

import random

import pytest

from repro.codes import ReedSolomon
from repro.protocols.avid import AvidParty, fragment_digest
from repro.runtime import Cluster
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under
from repro.sim.process import Party
from repro.weighted.quorum import NominalQuorums, WeightedQuorums
from repro.weighted.transform import qualification_setup
from repro.weighted.virtual import VirtualUserMap

from extremal import fewest_tickets_above

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


def _payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


class TestNominalAvid:
    def test_disperse_store_retrieve(self):
        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=0)
        code = ReedSolomon(k=t + 1, m=n)  # the (t+1, n) layout of [17]
        data = _payload(1, 100)
        vmap = VirtualUserMap([1] * n)
        commitment = host.party(0).disperse(data, code, vmap)
        host.simulator.run()
        assert all(p.stored_commitment == commitment for p in host.parties)
        host.party(3).retrieve(commitment)
        host.simulator.run()
        assert host.party(3).retrieved == data

    def test_retrieval_with_t_crashes_after_storage(self):
        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=1)
        code = ReedSolomon(k=t + 1, m=n)
        data = b"\x05\x06\x07"
        commitment = host.party(0).disperse(data, code, VirtualUserMap([1] * n))
        host.simulator.run()
        for pid in (1, 2):
            host.party(pid).crash()
        host.party(6).retrieve(commitment)
        host.simulator.run()
        assert host.party(6).retrieved == data

    def test_one_code_per_accepted_dispersal(self, monkeypatch):
        """A storer validates the (k, m, length) geometry once, when it
        accepts the dispersal, and decodes every retrieval with that
        instance: no code is built per fragments frame, and each decode
        bumps `decode_symbols` by its own work only."""
        from repro.protocols import avid

        built = []
        monkeypatch.setattr(
            avid, "ReedSolomon", lambda **kw: built.append(kw) or ReedSolomon(**kw)
        )
        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=2)
        code = ReedSolomon(k=t + 1, m=n)
        data = _payload(3, 10 * code.k)
        commitment = host.party(0).disperse(data, code, VirtualUserMap([1] * n))
        host.simulator.run()
        retriever = host.party(4)
        for _ in range(2):
            retriever.retrieve(commitment)
            host.simulator.run()
            assert retriever.retrieved == data
        assert built == [{"k": code.k, "m": code.m}] * n
        assert retriever.counters["decode_symbols"] == 2 * code.k * code.k * 10

    def test_a_second_dispersal_does_not_replace_the_first(self):
        """A storer keeps the first valid dispersal it accepts.  A second,
        different one -- here from another party, every field of it valid
        -- is not echoed and replaces no fragment, so a retrieval of the
        first commitment still decodes the first object."""
        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=12)
        code = ReedSolomon(k=t + 1, m=n)
        vmap = VirtualUserMap([1] * n)
        first, second = _payload(20, 30), _payload(21, 30)
        commitment = host.party(0).disperse(first, code, vmap)
        host.simulator.run()
        kept = [(p.my_fragments, p.hash_list) for p in host.parties]
        host.party(5).disperse(second, code, vmap)
        host.simulator.run()
        assert [(p.my_fragments, p.hash_list) for p in host.parties] == kept
        assert all(p.stored_commitment == commitment for p in host.parties)
        host.party(3).retrieve(commitment)
        host.simulator.run()
        assert host.party(3).retrieved == first

    def test_a_stored_party_forgets_its_echo_phase(self):
        """The first store wins, so once a party has stored, a late echo
        is dropped before the quorum policy is read and the echo tally --
        a losing commitment's votes included -- is gone."""
        from repro.protocols.avid import AvidEcho
        from repro.weighted.quorum import QuorumPolicy

        stored = []
        nominal = NominalQuorums(n=4, t=1)

        def read_before_the_store(name):
            def read(self):
                assert not stored, "quorum policy read after the store"
                return getattr(nominal, name)

            return property(read)

        class ReadOnlyBeforeTheStore(QuorumPolicy):
            vote_weights = read_before_the_store("vote_weights")
            storage_need = read_before_the_store("storage_need")

        party = AvidParty(
            0, ReadOnlyBeforeTheStore(), on_stored=lambda pid, c: stored.append(c)
        )
        party.receive(AvidEcho(b"loses"), 3)
        for sender in range(3):  # 2t + 1
            party.receive(AvidEcho(b"wins"), sender)
        assert stored == [b"wins"] and party._echoes is None
        party.receive(AvidEcho(b"wins"), 3)
        party.receive(AvidEcho(b"loses"), 1)
        assert stored == [b"wins"] and party._echoes is None
        assert party.stored_commitment == b"wins" and party.counters["stored"] == 1


class TestWeightedAvid:
    def _setup_host(self, beta_n="1/4", seed=0):
        setup = qualification_setup(WEIGHTS, "1/3", beta_n)
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        code = ReedSolomon(k=setup.data_shards, m=setup.total_shards)
        host = SimHost(lambda pid: AvidParty(pid, quorums), len(WEIGHTS), seed=seed)
        return setup, code, host

    def test_disperse_store_retrieve(self):
        setup, code, host = self._setup_host()
        data = _payload(2, 5 * code.k)  # several stripes
        commitment = host.party(0).disperse(data, code, setup.vmap)
        host.simulator.run()
        assert all(p.stored_commitment == commitment for p in host.parties)
        host.party(7).retrieve(commitment)
        host.simulator.run()
        assert host.party(7).retrieved == data

    @pytest.mark.parametrize("echoing, stored", [((0, 1, 6), False), ((0, 1, 6, 7), True)])
    def test_storage_needs_echoes_above_two_thirds_of_the_weight(self, echoing, stored):
        """W = 100, so the storage need is 66: echoes of weight exactly 66
        (parties 0, 1 and 6) store nothing, and one unit more stores."""
        setup, code, host = self._setup_host(seed=5)
        assert host.party(0).quorums.storage_need == 66
        for pid in set(range(len(WEIGHTS))) - set(echoing):
            host.party(pid).crash()
        commitment = host.party(0).disperse(b"\x02" * code.k, code, setup.vmap)
        host.simulator.run()
        expected = commitment if stored else None
        assert [host.party(pid).stored_commitment for pid in echoing] == [expected] * len(echoing)

    def test_fragments_follow_tickets(self):
        setup, code, host = self._setup_host()
        data = b"\x01" * code.k
        host.party(0).disperse(data, code, setup.vmap)
        host.simulator.run()
        for pid in range(len(WEIGHTS)):
            assert len(host.party(pid).my_fragments) == setup.vmap.tickets[pid]

    def test_retrieval_despite_corrupt_weight(self):
        """After storage, parties holding < f_w weight crash; the honest
        part of the storage quorum still reconstructs (Section 5.1)."""
        setup, code, host = self._setup_host(seed=3)
        data = _payload(3, 2 * code.k + 1)  # padding exercised
        commitment = host.party(0).disperse(data, code, setup.vmap)
        host.simulator.run()
        corrupt = heaviest_under(WEIGHTS, "1/3")
        for pid in corrupt:
            host.party(pid).crash()
        retriever = next(p for p in range(len(WEIGHTS)) if p not in corrupt)
        host.party(retriever).retrieve(commitment)
        host.simulator.run()
        assert host.party(retriever).retrieved == data

    def test_inconsistent_dealer_not_stored(self):
        """A dealer whose fragments do not match the hash list gets no
        echoes and the data is never marked stored."""
        setup, code, host = self._setup_host(seed=4)
        blocks = code.encode_blocks(b"\x09" * code.k)
        from repro.codes import BlockFragment
        from repro.protocols.avid import AvidDisperse

        fragments = [BlockFragment(j, b) for j, b in enumerate(blocks)]
        bogus_hashes = tuple(b"\x00" * 32 for _ in fragments)
        msg = AvidDisperse(
            fragments=tuple(fragments[:1]),
            hash_list=bogus_hashes,
            commitment=b"bogus",
            data_shards=code.k,
            total_shards=code.m,
            original_length=code.k,
        )
        host.party(0).send(1, msg)
        host.simulator.run()
        assert all(p.stored_commitment is None for p in host.parties)


class TestFragmentDigest:
    def test_deterministic_and_sensitive(self):
        from repro.codes import BlockFragment

        code = ReedSolomon(k=2, m=4)
        frags_a = [
            BlockFragment(j, b) for j, b in enumerate(code.encode_blocks(b"\x01\x02"))
        ]
        frags_b = [
            BlockFragment(j, b) for j, b in enumerate(code.encode_blocks(b"\x01\x03"))
        ]
        assert fragment_digest(frags_a) == fragment_digest(frags_a)
        assert fragment_digest(frags_a) != fragment_digest(frags_b)


class TestByzantineDealer:
    def test_mixed_length_blocks_cannot_crash_retriever(self):
        """A Byzantine dealer hands different parties blocks of different
        lengths (each matching its own hash-list entry).  Honest parties
        must refuse to echo the mismatched geometry and a retriever must
        never crash on an inconsistent fragment set (regression: the
        block decoder's length check used to escape the handler)."""
        import hashlib

        from repro.codes import BlockFragment
        from repro.protocols.avid import AvidDisperse, AvidFragments, fragment_digest

        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=9)
        code = ReedSolomon(k=t + 1, m=n)
        data = bytes(range(1, 21))  # 8-byte blocks: data in all three data shards
        blocks = code.encode_blocks(data, systematic=True)
        fragments = [BlockFragment(j, b) for j, b in enumerate(blocks)]
        # dealer equivocates: fragment 1's hash covers a 10-byte block
        long_block = blocks[1] + b"\x00\x00"
        mixed = list(fragments)
        mixed[1] = BlockFragment(1, long_block)
        hash_list = tuple(
            hashlib.sha256(f.block).digest() for f in mixed
        )
        commitment = fragment_digest(mixed)

        def disperse_to(pid, frag):
            host.party(0).send(
                pid,
                AvidDisperse(
                    fragments=(frag,),
                    hash_list=hash_list,
                    commitment=commitment,
                    data_shards=code.k,
                    total_shards=code.m,
                    original_length=len(data),
                ),
            )

        for pid in range(n):
            disperse_to(pid, mixed[pid])
        host.simulator.run()
        # party 1 got the over-long block: it must refuse to echo it
        assert not host.party(1).my_fragments
        # force-feed a retriever the mismatched fragment directly: it is
        # dropped, and a later decode with consistent fragments succeeds
        retriever = host.party(6)
        retriever._handle_fragments(
            AvidFragments(commitment=commitment, fragments=(mixed[1],)), sender=1
        )
        assert 1 not in retriever._collected
        for j in (0, 2, 3):
            retriever._handle_fragments(
                AvidFragments(commitment=commitment, fragments=(fragments[j],)),
                sender=j,
            )
        assert retriever.retrieved == data

    def test_malformed_geometry_cannot_crash_storer(self):
        """data_shards=0, out-of-range and negative fragment indices from
        a Byzantine dealer are refused without raising."""
        from repro.codes import BlockFragment
        from repro.protocols.avid import AvidDisperse, AvidFragments

        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=10)

        def send_disperse(**overrides):
            fields = dict(
                fragments=(BlockFragment(0, b"\x01"),),
                hash_list=tuple(b"\x00" * 32 for _ in range(n)),
                commitment=b"c" * 32,
                data_shards=3,
                total_shards=n,
                original_length=3,
            )
            fields.update(overrides)
            host.party(0).send(1, AvidDisperse(**fields))

        send_disperse(data_shards=0)                      # div-by-zero bait
        send_disperse(data_shards=9)                      # k > m
        send_disperse(original_length=-1)
        send_disperse(fragments=(BlockFragment(99, b"\x01"),))
        send_disperse(fragments=(BlockFragment(-1, b"\x01"),))
        send_disperse(hash_list=(b"\x00" * 32,))          # wrong list length
        host.simulator.run()  # must not raise
        assert all(p.stored_commitment is None for p in host.parties)

        # negative index on the retrieval path is dropped, not collected
        code = ReedSolomon(k=t + 1, m=n)
        data = b"\x01\x02\x03"
        commitment = host.party(0).disperse(data, code, VirtualUserMap([1] * n))
        host.simulator.run()
        retriever = host.party(5)
        block = retriever.my_fragments[0].block
        retriever.retrieve(commitment)
        retriever._handle_fragments(
            AvidFragments(
                commitment=commitment,
                fragments=(BlockFragment(5 - n, block),),
            ),
            sender=5,
        )
        assert all(i >= 0 for i in retriever._collected)

    def test_commitment_must_bind_hash_list(self):
        """An equivocating dealer reusing one commitment across two hash
        lists is refused: the storer recomputes the binding."""
        from repro.codes import BlockFragment
        from repro.protocols.avid import AvidDisperse, fragment_digest

        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=11)
        code = ReedSolomon(k=t + 1, m=n)
        blocks_a = code.encode_blocks(b"\x01\x02\x03")
        blocks_b = code.encode_blocks(b"\x04\x05\x06")
        frags_a = [BlockFragment(j, b) for j, b in enumerate(blocks_a)]
        frags_b = [BlockFragment(j, b) for j, b in enumerate(blocks_b)]
        commitment = fragment_digest(frags_a)
        import hashlib

        hashes_b = tuple(hashlib.sha256(f.block).digest() for f in frags_b)
        # commitment of list A shipped with list B: must be refused
        host.party(0).send(
            1,
            AvidDisperse(
                fragments=(frags_b[1],),
                hash_list=hashes_b,
                commitment=commitment,
                data_shards=code.k,
                total_shards=code.m,
                original_length=3,
            ),
        )
        host.simulator.run()
        assert not host.party(1).my_fragments


class TestOneDealer:
    """A dispersal has one dealer: ``AvidParty(pid, quorums, dealer=0)``
    drops an ``AvidDisperse`` from any other sender, so a dispersal that
    party 4 sends is stored nowhere -- on the simulator and live alike."""

    N, T = 7, 2

    def _disperse_from_4(self, host_type, **party_args):
        quorums = NominalQuorums(n=self.N, t=self.T)
        code, vmap = ReedSolomon(k=self.T + 1, m=self.N), VirtualUserMap([1] * self.N)
        data = _payload(28, 40)
        host = host_type(lambda pid: AvidParty(pid, quorums, **party_args), self.N)
        sent = []
        disperse = host.party(4).disperse
        host.run(lambda: sent.append(disperse(data, code, vmap)), lambda: True)
        return sent[0], host.parties

    @pytest.mark.parametrize("host_type", [SimHost, Cluster], ids=["sim", "inproc"])
    def test_a_dispersal_from_a_party_that_is_not_the_dealer_is_stored_nowhere(
        self, host_type
    ):
        _, parties = self._disperse_from_4(host_type)
        assert all(p.stored_commitment is None and not p.my_fragments for p in parties)

    @pytest.mark.parametrize("host_type", [SimHost, Cluster], ids=["sim", "inproc"])
    def test_the_designated_dealer_disperses(self, host_type):
        commitment, parties = self._disperse_from_4(host_type, dealer=4)
        assert all(p.stored_commitment == commitment for p in parties)


class TestBulkObjectOnInproc:
    def test_one_mib_survives_the_crash_and_the_dealer_hashes_each_block_once(
        self, monkeypatch
    ):
        """The ledger's `avid-bulk` shape at a quarter of its size: a
        1 MiB object on the weighted (6, 22) layout over the in-process
        runtime, retrieved after the heaviest-holding coalition under a
        third of the weight has crashed."""
        import asyncio

        from repro.api import Committee
        from repro.protocols import avid

        committee = Committee.synthetic("zipf", n=16, total=1600, skew=1.2, seed=0)
        layout = qualification_setup(committee.weights, "1/3", "1/4")
        code = ReedSolomon(k=layout.data_shards, m=layout.total_shards)
        assert (code.k, code.m) == (6, 22)
        quorums = committee.quorums("1/3")
        held, stake = list(layout.result.assignment), committee.int_weights
        crashed, crashed_weight = [], 0
        for pid in sorted(range(1, committee.n), key=lambda i: (-held[i], stake[i])):
            if 3 * (crashed_weight + stake[pid]) < sum(stake):
                crashed.append(pid)
                crashed_weight += stake[pid]
        assert crashed
        committee.validate(f_w="1/3", crashes=crashed)
        reader = max(set(range(1, committee.n)) - set(crashed))

        hashed = []
        hash_block = avid._hash_block
        monkeypatch.setattr(
            avid, "_hash_block", lambda block: hashed.append(1) or hash_block(block)
        )
        data = _payload(17, 2**20)

        async def drive():
            cluster = Cluster(lambda pid: AvidParty(pid, quorums), committee.n)
            async with cluster:
                commitment = cluster.party(0).disperse(data, code, layout.vmap)
                by_dealer = len(hashed)
                await cluster.run_until(
                    lambda: all(
                        p.stored_commitment == commitment for p in cluster.parties
                    ),
                    timeout=30.0,
                )
                for pid in crashed:
                    cluster.crash_node(pid)
                retriever = cluster.party(reader)
                retriever.retrieve(commitment)
                await cluster.run_until(
                    lambda: retriever.retrieved is not None, timeout=30.0
                )
                await cluster.settle()
                return by_dealer, retriever

        by_dealer, retriever = asyncio.run(drive())
        assert retriever.retrieved == data
        assert by_dealer == code.m
        stripes = code.stripe_count(len(data))
        assert retriever.counters["decode_symbols"] == code.k * code.k * stripes


class TestSystematicLayout:
    """AVID disperses on the systematic layout: fragments ``0..k-1`` are
    the payload's shards, and a retrieval combines only the shards it
    lacks."""

    N, T = 7, 2

    def _stored(self, seed: int):
        quorums = NominalQuorums(n=self.N, t=self.T)
        host = SimHost(lambda pid: AvidParty(pid, quorums), self.N, seed=seed)
        code = ReedSolomon(k=self.T + 1, m=self.N)
        data = _payload(seed, 100)  # 40-byte blocks: every data shard holds data
        commitment = host.party(0).disperse(data, code, VirtualUserMap([1] * self.N))
        host.simulator.run()
        assert all(p.stored_commitment == commitment for p in host.parties)
        return host, code, data, commitment

    @staticmethod
    def _count_combines(monkeypatch) -> list:
        from repro.codes.gf2m import GF2m

        rows_per_call = []
        combine = GF2m.combine

        def counted(self, rows, blocks):
            rows_per_call.append(len(rows))
            return combine(self, rows, blocks)

        monkeypatch.setattr(GF2m, "combine", counted)
        return rows_per_call

    def test_the_dealer_counts_only_the_parity_it_codes(self):
        host, code, data, _ = self._stored(seed=29)
        stripes = code.stripe_count(len(data))
        encoded = host.party(0).counters["encode_symbols"]
        assert encoded == (code.m - code.k) * code.k * stripes

    def test_the_dealers_first_k_blocks_are_the_payload(self):
        host, code, data, _ = self._stored(seed=30)
        blocks = [host.party(j).my_fragments[0].block for j in range(code.k)]
        assert all(host.party(j).my_fragments[0].index == j for j in range(code.k))
        padded = b"".join(blocks)
        assert padded == data + bytes(len(padded) - len(data))

    def test_a_retrieval_from_the_data_shards_combines_nothing(self, monkeypatch):
        host, code, data, commitment = self._stored(seed=31)
        for pid in range(code.k, self.N):
            host.party(pid).crash()
        rows_per_call = self._count_combines(monkeypatch)
        host.party(0).retrieve(commitment)
        host.simulator.run()
        assert host.party(0).retrieved == data
        assert rows_per_call == []

    def test_a_mixed_retrieval_combines_one_row_per_lacking_shard(self, monkeypatch):
        host, code, data, commitment = self._stored(seed=32)
        for pid in (1, 2):  # data shards 1 and 2 are lost; shard 0 is held
            host.party(pid).crash()
        rows_per_call = self._count_combines(monkeypatch)
        host.party(0).retrieve(commitment)
        host.simulator.run()
        assert host.party(0).retrieved == data
        assert rows_per_call == [2]


class TestWqBoundaryOnAptos:
    """Section 5.1's argument at its exact boundary: on the aptos
    ``qualification_setup(1/3, 1/4)`` layout the lightest-in-tickets set
    heavier than a third of the weight holds exactly ``k`` fragments (WQ
    has zero slack), which suffices for retrieval; one ticket holder
    fewer does not."""

    @pytest.fixture(scope="class")
    def aptos(self):
        from repro.datasets.chains import load_chain

        weights = load_chain("aptos").weights
        setup = qualification_setup(weights, "1/3", "1/4")
        tickets = list(setup.vmap.tickets)
        members = fewest_tickets_above(weights, tickets, "1/3")
        return weights, setup, tickets, members

    def test_the_fewest_tickets_above_a_third_are_exactly_k(self, aptos):
        weights, setup, tickets, members = aptos
        assert (setup.data_shards, setup.total_shards) == (35, 139)
        assert 3 * sum(weights[p] for p in members) > sum(weights)
        assert sum(tickets[p] for p in members) == setup.data_shards == 35

    def _retrieve_from(self, aptos, serving) -> tuple[bytes, object]:
        weights, setup, _, _ = aptos
        quorums = WeightedQuorums(weights, "1/3")
        code = ReedSolomon(k=setup.data_shards, m=setup.total_shards)
        host = SimHost(lambda pid: AvidParty(pid, quorums), len(weights), seed=40)
        data = _payload(40, 3 * code.k)
        commitment = host.party(0).disperse(data, code, setup.vmap)
        host.simulator.run()
        assert all(p.stored_commitment == commitment for p in host.parties)
        for pid in set(range(len(weights))) - set(serving):
            host.party(pid).crash()
        retriever = host.party(min(serving))
        retriever.retrieve(commitment)
        host.simulator.run()
        return data, retriever

    def test_that_set_alone_serves_a_retrieval(self, aptos):
        members = aptos[3]
        data, retriever = self._retrieve_from(aptos, members)
        assert retriever.retrieved == data

    def test_without_its_lightest_ticket_holder_retrieval_does_not_complete(self, aptos):
        weights, _, tickets, members = aptos
        lightest = min((p for p in members if tickets[p]), key=lambda p: weights[p])
        _, retriever = self._retrieve_from(aptos, [p for p in members if p != lightest])
        assert retriever.retrieved is None
        assert len(retriever._collected) == 35 - tickets[lightest]
