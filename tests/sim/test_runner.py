"""``build_world`` as the one sim host: worlds built on one simulator are
successive party groups of one run -- one clock, nothing else shared."""

from repro.protocols.reliable_broadcast import BrachaEcho
from repro.sim import Simulator, build_world
from repro.sim.process import Party


class _Sink(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.on(BrachaEcho, lambda message, sender: self.got.append((sender, message)))


def test_worlds_on_one_simulator_share_the_clock_and_nothing_else():
    simulator = Simulator()
    first = build_world(_Sink, 3, seed="run|net|0", simulator=simulator)
    second = build_world(_Sink, 2, seed="run|net|1", simulator=simulator)
    assert first.simulator is second.simulator is simulator
    assert first.network is not second.network
    # the same pids twice, each in its own namespace
    assert sorted(first.network.parties) == [0, 1, 2]
    assert sorted(second.network.parties) == [0, 1]

    first.party(0).broadcast(BrachaEcho(0, 0, b"first"))
    second.party(1).send(0, BrachaEcho(0, 0, b"second"))
    second.run()  # either world's run drives the one clock
    assert [p.got for p in first.parties] == [[(0, BrachaEcho(0, 0, b"first"))]] * 3
    assert [p.got for p in second.parties] == [[(1, BrachaEcho(0, 0, b"second"))], []]
    assert (first.metrics.messages, second.metrics.messages) == (3, 1)
    assert simulator.now > 0 and simulator.events_processed == 4


def test_a_world_gets_a_fresh_simulator_by_default():
    assert build_world(_Sink, 1).simulator is not build_world(_Sink, 1).simulator
