"""Integration tests for Bracha broadcast, nominal and weighted."""

import pytest

from repro.adversary.byzantine import make_equivocator, make_silent
from repro.protocols.reliable_broadcast import BrachaSend, BroadcastParty
from repro.sim import SimHost, TargetedDelay, UniformDelay
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


def party_factory(quorums, sender, silent=()):
    """Honest ``BroadcastParty``s of ``sender``'s broadcast, those in
    ``silent`` patched mute."""

    def factory(pid):
        party = BroadcastParty(pid, quorums, sender)
        if pid in silent:
            make_silent(party)
        return party

    return factory


def honest_parties(host, corrupt=()):
    return [p for p in host.parties if p.pid not in corrupt]


def run_nominal(n=7, t=2, corrupt=(), sender=None, seed=0, delay=None):
    quorums = NominalQuorums(n=n, t=t)
    src = sender if sender is not None else n - 1
    host = SimHost(
        party_factory(quorums, src, corrupt), n, seed=seed, delay_model=delay
    )
    host.party(src).broadcast_value(b"payload")
    host.simulator.run()
    return host


class TestNominalBroadcast:
    def test_all_honest_deliver(self):
        host = run_nominal()
        for p in host.parties:
            if isinstance(p, BroadcastParty):
                assert p.delivered == b"payload"

    def test_tolerates_t_silent(self):
        host = run_nominal(corrupt=(0, 1))
        honest = honest_parties(host, corrupt=(0, 1))
        assert all(p.delivered == b"payload" for p in honest)

    def test_fails_beyond_t_silent(self):
        """With t+1 silent parties (more than tolerated), delivery may
        stall -- totality needs n - t responsive parties."""
        host = run_nominal(corrupt=(0, 1, 2))
        honest = honest_parties(host, corrupt=(0, 1, 2))
        assert all(p.delivered is None for p in honest)

    def test_message_complexity_quadratic(self):
        host = run_nominal()
        # SEND n + ECHO n^2 + READY n^2 order of magnitude.
        n = 7
        assert n <= host.metrics.messages <= 3 * n * n

    def test_agreement_under_equivocation(self):
        n, t = 7, 2
        quorums = NominalQuorums(n=n, t=t)
        host = SimHost(party_factory(quorums, 0), n, seed=3)
        # b"A" to the first half of the parties, a second payload to the rest
        make_equivocator(host.party(0), (range(n // 2), range(n // 2, n)))
        host.party(0).broadcast_value(b"A")
        host.simulator.run()
        delivered = {
            p.delivered
            for p in host.parties
            if isinstance(p, BroadcastParty) and p.pid != 0 and p.delivered
        }
        # Agreement: never both values.
        assert len(delivered) <= 1

    def test_adversarial_scheduling_preserves_totality(self):
        delay = TargetedDelay(
            base=UniformDelay(), slow_parties=frozenset({3, 4}), factor=40.0
        )
        host = run_nominal(delay=delay, seed=8)
        honest = [p for p in host.parties if isinstance(p, BroadcastParty)]
        assert all(p.delivered == b"payload" for p in honest)


class TestWeightedBroadcast:
    def test_all_deliver(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        host = SimHost(party_factory(quorums, 0), 8, seed=1)
        host.party(0).broadcast_value(b"w")
        host.simulator.run()
        assert all(p.delivered == b"w" for p in host.parties)

    def test_tolerates_corrupt_weight_below_third(self):
        from repro.sim.adversary import heaviest_under

        corrupt = heaviest_under(WEIGHTS, "1/3")
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        sender = next(p for p in range(8) if p not in corrupt)
        host = SimHost(party_factory(quorums, sender, corrupt), 8, seed=2)
        host.party(sender).broadcast_value(b"w")
        host.simulator.run()
        honest = honest_parties(host, corrupt)
        assert all(p.delivered == b"w" for p in honest)

    def test_same_code_both_models(self):
        """The same BroadcastParty class runs nominal and weighted --
        the weighted-voting observation of Section 1.2."""
        n = 4
        nominal = NominalQuorums(n=n, t=1)
        weighted = WeightedQuorums([1] * n, "1/3")
        for quorums in (nominal, weighted):
            host = SimHost(party_factory(quorums, 0), n, seed=5)
            host.party(0).broadcast_value(b"x")
            host.simulator.run()
            assert all(p.delivered == b"x" for p in host.parties)


class TestOneOrigin:
    """A broadcast has one origin: a SEND from anyone else is not echoed,
    so a party far inside the budget cannot start the designated
    sender's broadcast with its own value (Bracha validity)."""

    @pytest.mark.parametrize(
        "pid, frame",
        [
            (7, BrachaSend(0, 0, b"forged")),  # 2 % of the weight
            (7, BrachaSend(0, 7, b"forged")),
            (0, BrachaSend(1, 0, b"second")),
        ],
        ids=["sender-key", "own-key", "second-epoch"],
    )
    def test_a_forged_send_cannot_hijack_the_broadcast(self, pid, frame):
        # Under the sender's key the SEND is not the origin's; under any
        # other key -- the forger's own, the sender's second epoch -- it
        # opens no instance: only ``(0, sender)`` does.
        weights = (30, 25, 20, 10, 5, 5, 3, 2)
        quorums = WeightedQuorums(weights, "1/3")
        hijacked = []
        for seed in range(20):
            host = SimHost(party_factory(quorums, 0), len(weights), seed=seed)
            host.party(pid).broadcast(frame)
            host.party(0).broadcast_value(b"honest")
            host.simulator.run()
            if any(
                party.delivered != b"honest"
                or party.counters["deliveries"] != 1
                or list(party.instances) != [(0, 0)]
                for party in host.parties
            ):
                hijacked.append(seed)
        assert hijacked == []


class TestDecidedInstanceIsForgotten:
    """The RBC twin of the class of this name in ``test_smr.py``: once the
    broadcast delivers, the party's one instance drops its ECHO / READY
    tallies and ignores late votes."""

    def test_a_finished_run_leaves_nothing_behind(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        host = SimHost(party_factory(quorums, 0), 8, seed=7)
        host.party(0).broadcast_value(b"w")
        host.simulator.run()
        for party in host.parties:
            assert party.counters["deliveries"] == 1
            instance = party.instances[0, 0]
            assert instance.delivered
            assert instance.echoes is None
            assert instance.readies is None

    def test_late_votes_after_delivery_send_nothing_and_leave_no_entry(self):
        from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady

        # n = 7, t = 2: the deliver quorum (5) is met before the last two
        # READYs arrive, so every party sees late votes in any run.
        host = run_nominal()
        sent = host.metrics.messages
        party = host.party(3)
        for payload in (b"payload", b"other"):
            party.receive(BrachaEcho(0, 6, payload), 5)
            party.receive(BrachaReady(0, 6, payload), 5)
        host.simulator.run()
        assert host.metrics.messages == sent
        assert party.instances[0, 6].echoes is None
        assert party.instances[0, 6].readies is None
        assert party.delivered == b"payload" and party.counters["deliveries"] == 1
