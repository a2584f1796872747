"""``Cluster`` as the one live host: successive party groups (``spawn`` /
``retire``) on one transport, one clock, one metrics stream and one
failure check -- what the epoch service's committee generations and
every live scenario run on.
"""

import asyncio
import time

import pytest

from repro.protocols.reliable_broadcast import BrachaEcho, BrachaSend
from repro.runtime import Cluster, FaultController
from repro.runtime.transport import InProcTransport
from repro.sim import SimHost
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
        assert cluster.nodes == [] and cluster.parties == []
        assert isinstance(cluster.transport, InProcTransport)
        assert cluster.transport.node_ids == []

        async def drive():
            async with cluster:
                await cluster.settle()

        _run(drive)
        assert cluster.metrics.messages == 0

    def test_factory_is_one_spawn(self):
        cluster = Cluster(_Sink, N)
        assert len(cluster.parties) == N
        assert [node.pid for node in cluster.nodes] == list(range(N))
        assert cluster.transport.node_ids == list(range(N))
        assert cluster.party(2) is cluster.nodes[2].party

    def test_n_is_checked(self):
        with pytest.raises(ValueError, match="at least one node"):
            Cluster(_Sink)
        with pytest.raises(ValueError, match="at least one node"):
            Cluster(_Sink, 0)


class TestSpawnRetire:
    def test_spawn_mid_run_delivers_a_frame_sent_in_the_same_turn(self):
        async def drive():
            async with Cluster() as cluster:
                parties = cluster.spawn(_Sink, N)
                parties[0].send(1, BrachaEcho(0, 0, b"first"))  # no await in between
                await cluster.settle()
                return len(cluster.parties), cluster.party(1).got

        n, got = _run(drive)
        assert n == N
        assert got == [(0, BrachaEcho(0, 0, b"first"))]

    def test_spawn_before_start_waits_for_start(self):
        async def drive():
            cluster = Cluster()
            parties = cluster.spawn(_Sink, N)
            parties[3].broadcast(BrachaSend(0, 0, b"queued"))
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
                old[0].broadcast(BrachaSend(0, 0, b"old generation"))
                await cluster.settle()
                counted = cluster.metrics.messages
                assert counted == N

                # Frames to the generation about to retire, caught in both
                # places a frame can wait: a destination's queue and a
                # delay timer.
                faults.delay_link(2, 3, 0.05)
                old[2].send(3, BrachaEcho(0, 0, b"on a timer"))
                while faults.delayed_messages < 1:
                    await asyncio.sleep(0)
                faults.delay_link(2, 3, 0.0)
                await transport.send(0, 1, BrachaEcho(0, 0, b"queued"))  # never suspends
                assert transport.in_flight == 2
                cluster.retire(old)
                assert cluster.nodes == [] and transport.node_ids == []
                assert transport.in_flight == 1  # the queued one died with its node

                new = cluster.spawn(_Sink, N)
                assert [party.pid for party in new] == list(range(N))
                assert cluster.parties == new and cluster.party(1) is new[1]
                new[1].broadcast(BrachaSend(0, 0, b"new generation"))
                await cluster.settle()
                assert transport.quiescent and all(node.idle for node in cluster.nodes)
                assert cluster.metrics.messages == counted + 2 + N
                return old, new

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
                parties = cluster.spawn(_Sink, N)
                parties[1].on(BrachaEcho, lambda message, sender: cluster.retire(parties))
                parties[0].send(1, BrachaEcho(0, 0, b"last commit"))
                await cluster.run_until(lambda: not cluster.parties, timeout=5.0)
                successors = cluster.spawn(_Sink, 2)
                successors[0].send(1, BrachaSend(0, 0, b"next"))
                await cluster.settle()
                return successors[1].got

        assert _run(drive) == [(0, BrachaSend(0, 0, b"next"))]

    def test_a_failure_in_a_spawned_group_is_raised(self):
        def broken(message, sender):
            raise ValueError("handler bug")

        async def drive():
            async with Cluster() as cluster:
                parties = cluster.spawn(_Sink, N)
                parties[2].on(BrachaEcho, broken)
                parties[0].send(2, BrachaEcho(0, 0, b"boom"))
                await cluster.run_until(lambda: False, timeout=5.0)

        with pytest.raises(RuntimeError, match="node 2 failed while pumping") as info:
            _run(drive)
        assert str(info.value.__cause__) == "handler bug"


class TestPartyByPid:
    """``party(pid)`` and ``crash_node(pid)`` find a hosted party by its
    pid, not by its place among the hosted nodes."""

    @pytest.mark.parametrize("host_type", [SimHost, Cluster], ids=["sim", "inproc"])
    def test_retiring_a_middle_party_leaves_the_others_at_their_pids(self, host_type):
        host = host_type(_Sink, 3)
        middle = host.party(1)
        host.retire([middle])
        assert middle.crashed
        assert [party.pid for party in host.parties] == [0, 2]
        assert (host.party(0).pid, host.party(2).pid) == (0, 2)
        with pytest.raises(KeyError):
            host.party(1)

    def test_crash_node_crashes_the_party_with_that_pid(self):
        cluster = Cluster(_Sink, 3)
        cluster.retire([cluster.party(0)])
        cluster.crash_node(2)
        assert [party.crashed for party in cluster.parties] == [False, True]
        assert cluster.faults.crashed == {2}

    def test_a_node_id_cluster_finds_its_one_party_by_pid(self):
        cluster = Cluster(_Sink, N, transport="tcp", node_id=2)
        assert cluster.party(2).pid == 2
        with pytest.raises(KeyError):
            cluster.party(0)


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


class TestHostSurface:
    """What the harness and the epoch service reach through a host."""

    def test_a_raising_callback_ends_the_run_with_its_exception(self):
        cluster = Cluster(_Sink, N)
        started = time.perf_counter()
        with pytest.raises(ZeroDivisionError):
            cluster.run(
                lambda: cluster.call_later(0.01, lambda: 1 / 0), lambda: False, timeout=5.0
            )
        assert time.perf_counter() - started < 1.0
        assert isinstance(cluster.failure, ZeroDivisionError)

    def test_only_the_first_callback_failure_is_kept(self):
        async def drive():
            async with Cluster() as cluster:
                cluster.call_later(0.0, lambda: 1 / 0)
                cluster.call_later(0.0, lambda: [][0])
                await asyncio.sleep(0.01)
                return cluster.failure

        assert isinstance(_run(drive), ZeroDivisionError)

    def test_now_counts_from_start_and_call_later_fires_on_it(self):
        cluster = Cluster()
        fired = []
        cluster.run(
            lambda: cluster.call_later(0.05, lambda: fired.append(cluster.now())),
            lambda: bool(fired),
            timeout=5.0,
        )
        assert 0.05 <= fired[0] < 1.0
        assert cluster.metrics.elapsed_seconds >= fired[0]

    def test_a_node_id_hosts_only_that_node_of_each_group(self):
        cluster = Cluster(transport="tcp", node_id=2)
        group = cluster.spawn(_Sink, N)
        assert [party.pid for party in group] == [2] and cluster.parties == group
        assert cluster.nodes[0].party_ids == list(range(N))
        assert cluster.transport.node_ids == [2]
