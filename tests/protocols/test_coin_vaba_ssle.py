"""Integration tests: beacon, VABA (nominal + black-box), SSLE, checkpoints."""

import random

import pytest

from repro.crypto import WeightedCoin
from repro.crypto.common_coin import epoch_message
from repro.crypto.group import TEST_GROUP_256 as G
from repro.protocols.checkpointing import CheckpointParty
from repro.protocols.common_coin import BeaconParty
from repro.protocols.ssle import SsleElection, chain_quality
from repro.protocols.vaba import VabaParty, black_box_parties
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under, most_tickets_under
from repro.weighted.transform import black_box_setup, blunt_setup

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


class TestBeaconProtocol:
    def _host(self, seed=0):
        rng = random.Random(seed)
        setup = blunt_setup(WEIGHTS, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", rng)
        host = SimHost(
            lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)),
            len(WEIGHTS),
            seed=seed,
        )
        return setup, coin, host

    def test_all_parties_agree_on_value(self):
        setup, coin, host = self._host()
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(1)
        host.simulator.run()
        values = {p.values.get(1) for p in host.parties}
        assert len(values) == 1 and None not in values

    def test_multiple_epochs_differ(self):
        setup, coin, host = self._host(seed=1)
        for epoch in (1, 2):
            for pid in setup.vmap.parties_with_tickets():
                host.party(pid).start_epoch(epoch)
        host.simulator.run()
        p0 = host.party(0)
        assert p0.values[1] != p0.values[2]

    def test_corrupt_coalition_cannot_open_alone(self):
        setup, coin, host = self._host(seed=2)
        tickets = setup.result.assignment.to_list()
        corrupt = most_tickets_under(WEIGHTS, tickets, "1/3")
        for pid in sorted(corrupt):
            host.party(pid).start_epoch(5)
        host.simulator.run()
        # Nobody reaches the threshold with only corrupt shares.
        assert all(5 not in p.values for p in host.parties)

    def test_share_counters(self):
        setup, coin, host = self._host(seed=3)
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(1)
        host.simulator.run()
        signed = sum(p.counters["shares_signed"] for p in host.parties)
        assert signed == setup.total_virtual

    def test_a_party_signs_what_shares_of_party_signs(self):
        # The beacon signs through CheckpointParty: the same shares, in
        # the same order, from the same RNG draws.
        setup, coin, host = self._host(seed=4)
        party = host.party(0)
        sent = []
        party.broadcast = sent.append
        party.start_epoch(3)
        assert {m.checkpoint for m in sent} == {epoch_message(3)}
        assert [m.share for m in sent] == coin.shares_of_party(0, 3, random.Random(1000))

    def test_the_value_is_the_coins_open_value(self):
        setup, coin, host = self._host(seed=5)
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(2)
        host.simulator.run()
        rng = random.Random(6)
        shares = [s for pid in range(len(WEIGHTS)) for s in coin.shares_of_party(pid, 2, rng)]
        oracle = coin.coin.open(shares[-coin.threshold :], 2)
        assert {p.values[2] for p in host.parties} == {oracle}


class TestNominalVaba:
    def run_vaba(self, n, t, inputs, crashed=(), seed=0, coin_seed=0):
        host = SimHost(
            lambda pid: VabaParty(pid, n, t, coin_seed=coin_seed), n, seed=seed
        )
        for pid in crashed:
            host.party(pid).crash()
        for pid, value in inputs.items():
            if pid not in crashed:
                host.party(pid).propose(value)
        host.simulator.run()
        return host

    def test_agreement_and_liveness(self):
        n = 7
        inputs = {i: f"v{i}".encode() for i in range(n)}
        host = self.run_vaba(n, 2, inputs)
        decided = {p.decided for p in host.parties}
        assert len(decided) == 1 and None not in decided

    def test_integrity(self):
        """All-honest run decides some party's input (Definition 4.3)."""
        n = 4
        inputs = {i: f"input-{i}".encode() for i in range(n)}
        host = self.run_vaba(n, 1, inputs, seed=2)
        decided = next(iter({p.decided for p in host.parties}))
        assert decided in inputs.values()

    def test_tolerates_t_crashes(self):
        n, t = 10, 3
        inputs = {i: b"shared" for i in range(n)}
        host = self.run_vaba(n, t, inputs, crashed=(0, 1, 2), seed=3)
        live = [host.party(p).decided for p in range(3, n)]
        assert all(d == b"shared" for d in live)

    def test_external_validity(self):
        n = 4
        valid = lambda v: v.startswith(b"ok")
        host = SimHost(
            lambda pid: VabaParty(pid, n, 1, validity_predicate=valid), n, seed=4
        )
        with pytest.raises(ValueError):
            host.party(0).propose(b"bad")
        # peers drop a non-bytes value, so the caller hears of it here
        with pytest.raises(TypeError):
            host.party(0).propose(bytearray(b"ok"))
        for pid in range(n):
            host.party(pid).propose(b"ok" + bytes([pid]))
        host.simulator.run()
        decided = next(iter({p.decided for p in host.parties}))
        assert decided.startswith(b"ok")

    def test_agreement_over_many_seeds(self):
        for seed in range(6):
            n = 4
            inputs = {i: f"s{seed}-{i}".encode() for i in range(n)}
            host = self.run_vaba(n, 1, inputs, seed=seed, coin_seed=seed)
            decided = {p.decided for p in host.parties}
            assert len(decided) == 1 and None not in decided, (seed, decided)


class TestBlackBoxVaba:
    def test_weighted_agreement_via_virtual_users(self):
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        outputs: dict[int, bytes] = {}
        parties = black_box_parties(
            setup, coin_seed=5, on_decide=lambda vid, v: outputs.setdefault(vid, v)
        )
        host = SimHost(lambda vid: parties[vid], setup.total_virtual, seed=6)
        # Real party i injects its input through all its virtual users.
        for real in range(len(WEIGHTS)):
            value = f"real-{real}".encode()
            for vid in setup.vmap.virtual_ids(real):
                host.party(vid).propose(value)
        host.simulator.run()
        assert len(set(outputs.values())) == 1
        real_out = setup.real_outputs(outputs)
        # Every real party (including zero-ticket ones) gets the value.
        assert set(real_out) == set(range(len(WEIGHTS)))
        assert len(set(real_out.values())) == 1


#: W = 100 and f_w = 1/4: parties 0-6 hold one ticket each, 7-9 none
FLAT = [14, 13, 12, 11, 11, 10, 10, 9, 5, 5]


class TestRealOutputs:
    """Section 4.4's output rule: a ticket holder outputs its first
    virtual user's decision; everyone else outputs once the holders of
    one value weigh more than ``f_w W``."""

    @pytest.fixture(scope="class")
    def setup(self):
        setup = black_box_setup(FLAT, "1/3", "1/12")
        assert setup.result.assignment.to_list() == [1] * 7 + [0] * 3
        return setup

    @staticmethod
    def _decided(setup, values):
        """Virtual outputs where real party ``p`` decided ``values[p]``."""
        return {setup.vmap.virtual_ids(p)[0]: v for p, v in values.items()}

    def test_holders_of_exactly_f_w_w_leave_the_others_without_output(self, setup):
        # 13 + 12 = 25 = f_w W: not above it
        real = setup.real_outputs(self._decided(setup, {1: b"v", 2: b"v"}))
        assert real == {1: b"v", 2: b"v"}
        # one more holder (10) lifts the value above f_w W
        real = setup.real_outputs(self._decided(setup, {1: b"v", 2: b"v", 5: b"v"}))
        assert real == {p: b"v" for p in range(len(FLAT))}

    def test_the_first_backed_value_in_party_order_wins(self, setup):
        # both above 25: b"z" (27) first in party order, b"a" (34) heavier
        # and smaller
        values = {0: b"z", 1: b"z", 2: b"a", 3: b"a", 4: b"a"}
        real = setup.real_outputs(self._decided(setup, values))
        assert {p: real[p] for p in values} == values
        assert {real[p] for p in range(5, len(FLAT))} == {b"z"}


class TestSsle:
    def test_only_owner_claims(self):
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        election = SsleElection(setup.vmap, beacon_seed=1)
        result = election.elect(epoch=10)
        for party in range(len(WEIGHTS)):
            assert election.claim(party, 10) == (party == result.leader)
            assert election.verify_claim(party, 10) == (party == result.leader)

    def test_chain_quality_bounded_by_ticket_fraction(self):
        """Corrupt win rate tracks the corrupt ticket fraction, which WR
        keeps below f_n (the relaxed chain-quality property)."""
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        tickets = setup.result.assignment.to_list()
        corrupt = most_tickets_under(WEIGHTS, tickets, setup.f_w)
        election = SsleElection(setup.vmap, beacon_seed=2)
        quality = chain_quality(election, corrupt, epochs=3000)
        ticket_frac = setup.vmap.corrupted_fraction(corrupt)
        assert ticket_frac < float(setup.f_n)
        # Sampling tolerance: 3000 epochs, noise well under 5 points.
        assert quality <= ticket_frac + 0.05

    def test_leader_distribution_uniform_over_tickets(self):
        vmap_tickets = [3, 1, 0, 2]
        from repro.weighted.virtual import VirtualUserMap

        election = SsleElection(VirtualUserMap(vmap_tickets), beacon_seed=3)
        wins = [0, 0, 0, 0]
        epochs = 6000
        for e in range(epochs):
            wins[election.elect(e).leader] += 1
        for party, t in enumerate(vmap_tickets):
            assert abs(wins[party] / epochs - t / 6) < 0.03

    def test_empty_map_rejected(self):
        from repro.weighted.virtual import VirtualUserMap

        with pytest.raises(ValueError):
            SsleElection(VirtualUserMap([0, 0]))

    def test_epochs_validation(self):
        setup = black_box_setup(WEIGHTS, "1/3", "1/12")
        election = SsleElection(setup.vmap)
        with pytest.raises(ValueError):
            chain_quality(election, set(), 0)


class TestCheckpointing:
    def _host(self, mode, seed=0):
        rng = random.Random(seed)
        setup = blunt_setup(WEIGHTS, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", rng)

        def factory(pid):
            return CheckpointParty(
                pid,
                coin,
                random.Random(5000 + pid),
                mode=mode,
                weights=WEIGHTS if mode == "tight" else None,
                beta="1/2" if mode == "tight" else None,
            )

        return setup, SimHost(factory, len(WEIGHTS), seed=seed)

    def test_blunt_certification(self):
        setup, host = self._host("blunt")
        cp = b"cp-100"
        for pid in range(len(WEIGHTS)):
            host.party(pid).sign_checkpoint(cp)
        host.simulator.run()
        certs = {p.certificates.get(cp) for p in host.parties}
        assert len(certs) == 1 and None not in certs

    def test_tight_requires_weighted_votes(self):
        setup, host = self._host("tight", seed=1)
        cp = b"cp-200"
        # Only a light coalition (< beta weight) signs: no certificate.
        for pid in (4, 5, 6, 7):  # weight 10 of 100
            host.party(pid).sign_checkpoint(cp)
        host.simulator.run()
        assert all(cp not in p.certificates for p in host.parties)
        # The heavy parties join: certificate forms.
        for pid in (0, 1, 2, 3):
            host.party(pid).sign_checkpoint(cp)
        host.simulator.run()
        assert all(cp in p.certificates for p in host.parties)

    def test_tight_mode_extra_round_costs_messages(self):
        """Tight mode sends the extra vote round (paper: +1 message delay
        per checkpoint)."""
        _, blunt_host = self._host("blunt", seed=2)
        _, tight_host = self._host("tight", seed=2)
        cp = b"cp-300"
        for host in (blunt_host, tight_host):
            for pid in range(len(WEIGHTS)):
                host.party(pid).sign_checkpoint(cp)
            host.simulator.run()
        assert (
            tight_host.metrics.by_type.get("CheckpointVote", 0)
            > 0
        )
        assert blunt_host.metrics.by_type.get("CheckpointVote", 0) == 0

    def test_mode_validation(self):
        setup = blunt_setup(WEIGHTS, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(0))
        with pytest.raises(ValueError):
            CheckpointParty(0, coin, random.Random(0), mode="loose")
        with pytest.raises(ValueError):
            CheckpointParty(0, coin, random.Random(0), mode="tight")
