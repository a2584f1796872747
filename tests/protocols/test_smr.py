"""Integration tests for the composed asynchronous SMR (Section 6.1)."""

import hashlib
import random

import pytest

from repro.protocols.smr import SmrParty, batch_position
from repro.sim import SimHost, TargetedDelay, UniformDelay
from repro.sim.adversary import heaviest_under
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]
N = len(WEIGHTS)


def deterministic_coin(epoch: int) -> int:
    """A stand-in coin: the real one is repro.protocols.common_coin."""
    return int.from_bytes(hashlib.sha256(f"smr|{epoch}".encode()).digest()[:4], "big")


def make_host(quorums, seed=0, delay=None, crashed=()):
    host = SimHost(
        lambda pid: SmrParty(pid, N, quorums, deterministic_coin),
        N,
        seed=seed,
        delay_model=delay,
    )
    for pid in crashed:
        host.party(pid).crash()
    return host


class TestBatchPosition:
    def test_deterministic_and_distinct(self):
        positions = [batch_position(p, 12345, N) for p in range(N)]
        assert sorted(positions) == list(range(N))

    def test_rotation_depends_on_coin(self):
        a = [batch_position(p, 1, N) for p in range(N)]
        b = [batch_position(p, 2, N) for p in range(N)]
        assert a != b


class TestWeightedSmr:
    def test_all_replicas_same_log(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        host = make_host(quorums, seed=1)
        for epoch in (0, 1):
            for pid in range(N):
                host.party(pid).propose_batch(epoch, f"e{epoch}-p{pid}".encode())
        host.simulator.run()
        reference = host.party(0).ordered_log(0)
        assert len(reference) == N
        for pid in range(1, N):
            assert host.party(pid).ordered_log(0) == reference
            assert host.party(pid).ordered_log(1) == host.party(0).ordered_log(1)

    def test_liveness_with_corrupt_weight_crashed(self):
        corrupt = heaviest_under(WEIGHTS, "1/3")
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        host = make_host(quorums, seed=2, crashed=tuple(corrupt))
        for pid in range(N):
            if pid not in corrupt:
                host.party(pid).propose_batch(0, f"b{pid}".encode())
        host.simulator.run()
        honest = [p for p in range(N) if p not in corrupt]
        logs = {tuple(host.party(p).ordered_log(0)) for p in honest}
        assert len(logs) == 1

    def test_positions_agree_under_adversarial_scheduling(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        delay = TargetedDelay(
            base=UniformDelay(), slow_parties=frozenset({2, 5}), factor=30.0
        )
        host = make_host(quorums, seed=3, delay=delay)
        for pid in range(N):
            host.party(pid).propose_batch(0, bytes([pid]))
        host.simulator.run()
        logs = {tuple(host.party(p).ordered_log(0)) for p in range(N)}
        assert len(logs) == 1

    def test_commit_counters(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        host = make_host(quorums, seed=4)
        host.party(0).propose_batch(0, b"solo")
        host.simulator.run()
        assert all(
            host.party(p).counters["batches_committed"] == 1 for p in range(N)
        )


class TestNominalSmr:
    def test_same_code_runs_nominal(self):
        def run(quorums):
            host = make_host(quorums, seed=5)
            for pid in range(N):
                host.party(pid).propose_batch(7, f"n{pid}".encode())
            host.simulator.run()
            logs = {tuple(host.party(p).ordered_log(7)) for p in range(N)}
            assert len(logs) == 1
            assert len(next(iter(logs))) == N
            return host.metrics

        nominal = run(NominalQuorums(n=N, t=2))
        # Table 1, first row: weighted voting changes the quorum arithmetic,
        # not the traffic -- the same proposals cost the same messages.
        weighted = run(WeightedQuorums(WEIGHTS, "1/3"))
        assert weighted.messages <= 1.05 * nominal.messages

    def test_non_proposer_send_ignored(self):
        quorums = NominalQuorums(n=N, t=2)
        host = make_host(quorums, seed=6)
        from repro.protocols.reliable_broadcast import BrachaSend

        # Party 3 forges a SEND claiming to be proposer 5.
        host.party(3).send(0, BrachaSend(epoch=0, origin=5, payload=b"forged"))
        host.simulator.run()
        assert host.party(0).ordered_log(0) == []

    def test_a_bool_key_is_dropped_at_the_door(self):
        from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend

        # ``True == 1``, but a frame keyed ``(True, 1)`` is not well typed:
        # it never reaches the open instance ``(1, 1)``, and each is counted.
        host = make_host(NominalQuorums(n=N, t=2), seed=10)
        party = host.party(0)
        said = []
        party.broadcast = lambda message, **kwargs: said.append(message)
        party.receive(BrachaEcho(1, 1, b"p"), 2)  # opens (1, 1)
        party.receive(BrachaSend(True, 1, b"p"), 1)
        for sender in range(1, N):
            party.receive(BrachaReady(True, 1, b"p"), sender)
        assert said == []
        assert party.counters["malformed"] == N
        assert party.committed == {}
        assert list(party.instances) == [(1, 1)]
        instance = party.instances[1, 1]
        assert not instance.echoed and instance.readies.votes == {}


class TestDecidedInstanceIsForgotten:
    """Once an instance delivers, its ECHO / READY tallies are dropped
    and late votes for it are ignored: the replica has sent its READY and
    the first commit wins, so they could change nothing it does."""

    @staticmethod
    def _pending(party):
        """Instances of ``party`` that hold an ECHO or a READY vote."""
        return {
            key
            for key, instance in party.instances.items()
            if instance.echoes is not None
            and (instance.echoes.votes or instance.readies.votes)
        }

    @staticmethod
    def _delivered(party):
        return {
            key for key, instance in party.instances.items() if instance.delivered
        }

    def test_long_run_leaves_nothing_behind(self):
        host = make_host(WeightedQuorums(WEIGHTS, "1/3"), seed=7)
        for epoch in range(30):
            for pid in range(N):
                host.party(pid).propose_batch(epoch, f"e{epoch}-p{pid}".encode())
        host.simulator.run()
        for pid in range(N):
            party = host.party(pid)
            assert party.counters["batches_committed"] == 30 * N
            assert self._pending(party) == set()
            assert len(self._delivered(party)) == 30 * N

    def test_late_votes_after_commit_send_nothing_and_leave_no_entry(self):
        from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady

        # n = 8, t = 2: the deliver quorum (6) is met before the last two
        # READYs arrive, so every replica sees late votes in any run.
        host = make_host(NominalQuorums(n=N, t=2), seed=8)
        host.party(0).propose_batch(0, b"solo")
        host.simulator.run()
        sent = host.metrics.messages
        party = host.party(3)
        for payload in (b"solo", b"other"):
            party.receive(BrachaEcho(0, 0, payload), 5)
            party.receive(BrachaReady(0, 0, payload), 5)
        host.simulator.run()
        assert host.metrics.messages == sent
        assert self._pending(party) == set()
        assert party.ordered_log(0) == [(0, b"solo")]

    def test_the_losing_payload_of_an_equivocator_goes_too(self):
        from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady

        host = make_host(NominalQuorums(n=N, t=2), seed=9)
        party = host.party(0)
        for sender in (1, 2):
            party.receive(BrachaEcho(0, 7, b"loses"), sender)
            party.receive(BrachaReady(0, 7, b"loses"), sender)
        assert self._pending(party) == {(0, 7)}
        # a deliver quorum (6) of READYs from senders that voted no other
        # payload: 1 and 2 have cast their READY, so theirs are dropped
        for sender in (1, 2, 0, *range(3, N)):
            party.receive(BrachaReady(0, 7, b"wins"), sender)
        assert party.ordered_log(0) == [(7, b"wins")]
        assert self._pending(party) == set()

    @pytest.fixture
    def sim_parties(self, monkeypatch):
        """The parties of the sim host(s) ``run_scenario`` builds."""
        parties = []
        spawn = SimHost.spawn

        def capture(host, *args, **kwargs):
            group = spawn(host, *args, **kwargs)
            parties.append({party.pid: party for party in group})
            return group

        monkeypatch.setattr(SimHost, "spawn", capture)
        return parties

    def test_equivocate_smr_keeps_only_the_undecided_instance(self, sim_parties):
        from repro.scenarios import get_scenario, run_scenario

        result = run_scenario(get_scenario("equivocate-smr"), backend="sim")
        assert result.completed
        (parties,) = sim_parties
        honest = [p for p in parties.values() if isinstance(p, SmrParty)]
        logs = {tuple(party.ordered_log(0)) for party in honest}
        assert len(logs) == 1  # one payload per instance, the same everywhere
        decided = {(0, proposer) for proposer, _ in next(iter(logs))}
        assert len(decided) == N - 1  # all but the equivocator's own
        for party in honest:
            assert self._pending(party).isdisjoint(decided)

    def test_crash_restarted_replica_still_rejoins_and_commits(self, sim_parties):
        from repro.scenarios import get_scenario, run_scenario

        result = run_scenario(get_scenario("crash-restart-smr"), backend="sim")
        assert result.completed
        (parties,) = sim_parties
        reborn = parties[2]
        assert reborn.restarts == 1 and reborn.recovered_from_peers > 0
        assert {epoch: len(log) for epoch, log in reborn.committed.items()} == {
            0: N,
            1: N,
        }
        # instances it delivered itself after the restart are forgotten
        assert self._pending(reborn).isdisjoint(self._delivered(reborn))
        assert all(self._pending(parties[pid]) == set() for pid in parties if pid != 2)
