"""``SimHost`` as the one sim host: its ``spawn`` generations are
successive party groups of one run -- one clock, nothing else shared."""

from repro.protocols.reliable_broadcast import BrachaEcho
from repro.sim import SimHost
from repro.sim.process import Party


class _Sink(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.on(BrachaEcho, lambda message, sender: self.got.append((sender, message)))


def test_two_spawns_share_the_clock_and_nothing_else():
    host = SimHost()
    first = host.spawn(_Sink, 3, seed="run|net|0")
    second = host.spawn(_Sink, 2, seed="run|net|1")
    assert first[0].network.simulator is second[0].network.simulator is host.simulator
    assert first[0].network is not second[0].network
    # the same pids twice, each in its own namespace
    assert first[0].network.party_ids == [0, 1, 2]
    assert second[0].network.party_ids == [0, 1]

    first[0].broadcast(BrachaEcho(0, 0, b"first"))
    second[1].send(0, BrachaEcho(0, 0, b"second"))
    host.simulator.run()  # one clock drives both generations
    assert [p.got for p in first] == [[(0, BrachaEcho(0, 0, b"first"))]] * 3
    assert [p.got for p in second] == [[(1, BrachaEcho(0, 0, b"second"))], []]
    assert host.metrics.messages == 4  # one counter for both
    assert host.simulator.now > 0 and host.simulator.events_processed == 4


def test_a_factory_is_one_spawn_on_a_fresh_simulator():
    host = SimHost(_Sink, 3, seed=5)
    assert [party.pid for party in host.parties] == [0, 1, 2]
    assert host.party(2) is host.parties[2]
    assert SimHost(_Sink, 1).simulator is not SimHost(_Sink, 1).simulator


def test_retire_then_spawn_hosts_the_successor_at_the_same_pids():
    host = SimHost()
    old = host.spawn(_Sink, 2)
    old[0].send(1, BrachaEcho(0, 0, b"in flight"))
    host.retire(old)
    assert host.parties == [] and all(party.crashed for party in old)
    new = host.spawn(_Sink, 2)
    assert host.parties == new and host.party(1) is new[1]
    host.simulator.run()
    assert old[1].got == [] and new[1].got == []  # retired, and a fresh namespace
