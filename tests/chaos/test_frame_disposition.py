"""Send-point frame disposition: a frame to a partitioned (or crashed)
peer is deterministically dropped-and-counted at the *send* point on every
backend -- never buffered into an ambiguous in-flight fate."""

import asyncio
from dataclasses import dataclass

from repro.protocols.reliable_broadcast import BroadcastParty
from repro.runtime import FaultController, run_cluster
from repro.runtime.transport import InProcTransport
from repro.sim.events import Simulator
from repro.sim.network import Network, UniformDelay
from repro.sim.process import Party
from repro.weighted.quorum import WeightedQuorums


@dataclass(frozen=True)
class Ping:
    payload: bytes = b""


class Recorder(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.inbox = []
        self.on(Ping, lambda m, s: self.inbox.append((s, m)))


class TestCondemnAtSend:
    def test_partitioned_send_condemned_once(self):
        faults = FaultController()
        faults.partition({0}, {1})
        assert faults.condemn(0, 1)
        assert faults.dropped_messages == 1
        # the trace records the fate at the send point
        assert list(faults.trace)[-1] == (0, 1, "condemned")

    def test_clean_send_traced_but_not_counted(self):
        faults = FaultController()
        assert not faults.condemn(0, 1)
        assert faults.dropped_messages == 0
        assert list(faults.trace)[-1] == (0, 1, "sent")

    def test_crashed_peer_condemned(self):
        faults = FaultController()
        faults.crash(1)
        assert faults.condemn(0, 1)
        assert faults.condemn(1, 0)  # both directions
        assert faults.dropped_messages == 2


class TestSimNetwork:
    def test_partitioned_frame_never_scheduled(self):
        sim = Simulator()
        faults = FaultController()
        faults.partition({0}, {1})
        net = Network(sim, UniformDelay(), seed=0, faults=faults)
        a, b = Recorder(0), Recorder(1)
        net.register(a)
        net.register(b)
        net.send(0, 1, Ping())
        sim.run()
        assert b.inbox == []
        assert faults.dropped_messages == 1
        # metered before condemnation: counts stay comparable under faults
        assert net.metrics.messages == 1


class TestInProcTransport:
    def test_partitioned_frame_dropped_at_send(self):
        async def scenario():
            faults = FaultController()
            faults.partition({0}, {1})
            from repro.protocols.reliable_broadcast import RbcSend
            from repro.runtime.codec import default_registry

            transport = InProcTransport(default_registry(), faults=faults)
            received = []
            transport.bind(0, lambda src, m: received.append((src, m)))
            transport.bind(1, lambda src, m: received.append((src, m)))
            await transport.start()
            await transport.send(0, 1, RbcSend(payload=b"doomed"))
            assert transport.quiescent  # fate decided at send: no in-flight
            await transport.stop()
            return faults.dropped_messages, received

        dropped, received = asyncio.run(scenario())
        assert dropped == 1
        assert received == []

    def test_drop_counts_match_the_sim_exactly(self):
        # One broadcast across a static partition: the cross-group frames
        # are condemned at send on both backends, so the counters -- not
        # just the outcomes -- agree exactly.
        weights = [10, 10, 10, 10]
        quorums = WeightedQuorums(weights, "1/3")
        groups = ({0, 1}, {2, 3})

        sim = Simulator()
        sim_faults = FaultController()
        sim_faults.partition(*groups)
        net = Network(sim, UniformDelay(), seed=0, faults=sim_faults)
        sim_parties = [BroadcastParty(i, quorums, 0) for i in range(4)]
        for p in sim_parties:
            net.register(p)
        sim_parties[0].broadcast_value(b"split")
        sim.run()

        live_faults = FaultController()

        def setup(cluster):
            live_faults.partition(*groups)
            cluster.party(0).broadcast_value(b"split")

        run_cluster(
            lambda pid: BroadcastParty(pid, quorums, 0),
            4,
            faults=live_faults,
            setup=setup,
        )
        assert sim_faults.dropped_messages > 0
        assert live_faults.dropped_messages == sim_faults.dropped_messages
