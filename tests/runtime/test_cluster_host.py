"""``Cluster`` as a host of successive party groups: ``spawn`` / ``retire``
on one transport, one metrics stream and one failure check -- what the
epoch service's committee generations run on.
"""

import asyncio

import pytest

from repro.api import Committee
from repro.protocols.reliable_broadcast import BrachaEcho, BrachaSend
from repro.runtime import Cluster, FaultController
from repro.runtime.transport import InProcTransport
from repro.sim.process import Party

N = 4


class _Sink(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.on(BrachaSend, lambda message, sender: self.got.append((sender, message)))
        self.on(BrachaEcho, lambda message, sender: self.got.append((sender, message)))


def _run(drive):
    """Run ``drive()``; afterwards no task but the caller's may be left."""

    async def checked():
        result = await drive()
        assert asyncio.all_tasks() == {asyncio.current_task()}
        return result

    return asyncio.run(checked())


class TestConstruction:
    def test_no_factory_is_an_empty_host(self):
        cluster = Cluster()
        assert cluster.n == 0 and cluster.nodes == [] and cluster.parties == []
        assert isinstance(cluster.transport, InProcTransport)
        assert cluster.transport.node_ids == []

        async def drive():
            async with cluster:
                await cluster.settle()

        _run(drive)
        assert cluster.metrics.messages == 0

    def test_factory_is_one_spawn(self):
        cluster = Cluster(_Sink, N)
        assert cluster.n == N
        assert [node.pid for node in cluster.nodes] == list(range(N))
        assert cluster.transport.node_ids == list(range(N))
        assert cluster.party(2) is cluster.nodes[2].party

    def test_committee_sizes_it_and_n_is_checked(self):
        committee = Committee.from_weights((4, 3, 2, 1))
        cluster = Cluster(_Sink, committee=committee)
        assert cluster.n == 4 and cluster.committee is committee
        with pytest.raises(ValueError, match="needs n or a committee"):
            Cluster(_Sink)
        with pytest.raises(ValueError, match="at least one node"):
            Cluster(_Sink, 0)


class TestSpawnRetire:
    def test_spawn_mid_run_delivers_a_frame_sent_in_the_same_turn(self):
        async def drive():
            async with Cluster() as cluster:
                nodes = cluster.spawn(_Sink, N)
                nodes[0].party.send(1, BrachaEcho(0, 0, b"first"))  # no await in between
                await cluster.settle()
                return cluster.n, cluster.party(1).got

        n, got = _run(drive)
        assert n == N
        assert got == [(0, BrachaEcho(0, 0, b"first"))]

    def test_spawn_before_start_waits_for_start(self):
        async def drive():
            cluster = Cluster()
            nodes = cluster.spawn(_Sink, N)
            nodes[3].party.broadcast(BrachaSend(0, 0, b"queued"))
            async with cluster:
                await cluster.settle()
            return [party.got for party in cluster.parties]

        assert _run(drive) == [[(3, BrachaSend(0, 0, b"queued"))]] * N

    def test_retire_then_spawn_reuses_the_pids_on_one_transport(self):
        async def drive():
            faults = FaultController()
            async with Cluster(faults=faults) as cluster:
                transport = cluster.transport
                old = cluster.spawn(_Sink, N)
                old[0].party.broadcast(BrachaSend(0, 0, b"old generation"))
                await cluster.settle()
                counted = cluster.metrics.messages
                assert counted == N

                # Frames to the generation about to retire, caught in both
                # places a frame can wait: a destination's queue and a
                # delay timer.
                faults.delay_link(2, 3, 0.05)
                old[2].party.send(3, BrachaEcho(0, 0, b"on a timer"))
                while faults.delayed_messages < 1:
                    await asyncio.sleep(0)
                faults.delay_link(2, 3, 0.0)
                await transport.send(0, 1, BrachaEcho(0, 0, b"queued"))  # never suspends
                assert transport.in_flight == 2
                cluster.retire(old)
                assert cluster.nodes == [] and transport.node_ids == []
                assert transport.in_flight == 1  # the queued one died with its node

                new = cluster.spawn(_Sink, N)
                assert [node.pid for node in new] == list(range(N))
                assert cluster.nodes == new and cluster.party(1) is new[1].party
                new[1].party.broadcast(BrachaSend(0, 0, b"new generation"))
                await cluster.settle()
                assert transport.quiescent and all(node.idle for node in new)
                assert cluster.metrics.messages == counted + 2 + N
                return [node.party for node in old], [node.party for node in new]

        old, new = _run(drive)
        assert all(party.crashed for party in old)
        assert all(len(party.got) == 1 for party in old)  # nothing after retiring
        fresh = [(1, BrachaSend(0, 0, b"new generation"))]
        assert [party.got for party in new] == [fresh] * N

    def test_retire_from_inside_a_handler(self):
        """The epoch service retires a generation from the handler that
        sees its last commit: the running dispatch task cancels itself."""

        async def drive():
            async with Cluster() as cluster:
                nodes = cluster.spawn(_Sink, N)
                nodes[1].party.on(BrachaEcho, lambda message, sender: cluster.retire(nodes))
                nodes[0].party.send(1, BrachaEcho(0, 0, b"last commit"))
                await cluster.run_until(lambda: cluster.n == 0, timeout=5.0)
                successors = cluster.spawn(_Sink, 2)
                successors[0].party.send(1, BrachaSend(0, 0, b"next"))
                await cluster.settle()
                return successors[1].party.got

        assert _run(drive) == [(0, BrachaSend(0, 0, b"next"))]

    def test_a_failure_in_a_spawned_group_is_raised(self):
        def broken(message, sender):
            raise ValueError("handler bug")

        async def drive():
            async with Cluster() as cluster:
                nodes = cluster.spawn(_Sink, N)
                nodes[2].party.on(BrachaEcho, broken)
                nodes[0].party.send(2, BrachaEcho(0, 0, b"boom"))
                await cluster.run_until(lambda: False, timeout=5.0)

        with pytest.raises(RuntimeError, match="node 2 failed while pumping") as info:
            _run(drive)
        assert str(info.value.__cause__) == "handler bug"


class TestWake:
    def test_wake_ends_a_long_poll_at_once(self):
        async def drive():
            async with Cluster() as cluster:
                loop = asyncio.get_running_loop()
                done = []
                loop.call_later(0.05, lambda: (done.append(True), cluster.wake()))
                started = loop.time()
                await cluster.run_until(lambda: bool(done), timeout=5.0, poll=2.0)
                cluster.wake()  # nobody waiting: a no-op
                return loop.time() - started

        assert 0.04 < _run(drive) < 1.0
