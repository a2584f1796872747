"""``RuntimeNode``: one class, one queue, one task per live node.

A frame is dispatched where it is decoded -- ``party.receive`` runs
where the transport took the frame out (the in-process pump task, the
inbound TCP stream's ``data_received`` callback, a delay timer, or the
node's own sender task for a TCP self-send).  The outbox and its sender
task are all the machinery a node owns; they are what keeps a handler
from running inside another handler.  Every test runs on ``inproc`` and
(tcp-marked) on ``tcp``.
"""

import asyncio
import gc
import logging
import sys
import time

import pytest

from repro.protocols.reliable_broadcast import BrachaEcho, BrachaReady, BrachaSend
from repro.runtime import Cluster, RuntimeNode, default_registry
from repro.runtime.cluster import TRANSPORTS
from repro.runtime.transport import _Inbound
from repro.sim.process import Party

N = 3

TRANSPORT = pytest.mark.parametrize(
    "transport", ["inproc", pytest.param("tcp", marks=pytest.mark.tcp)]
)


def _inside_inbound_callback():
    """Whether the caller runs inside an inbound TCP stream's
    ``data_received``."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is _Inbound.data_received.__code__:
            return True
        frame = frame.f_back
    return False


class _Probe(Party):
    """Records what it is handed, on which task and whether inside an
    inbound stream's callback; answers a ``BrachaSend`` with an ``BrachaEcho``
    broadcast that includes itself."""

    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.tasks = []
        self.in_callback = []
        self.depth = 0
        self.reentered = False
        self.on(BrachaSend, self._handle_send)
        self.on(BrachaEcho, self._record)
        self.on(BrachaReady, self._record)

    def _record(self, message, sender):
        self.reentered |= self.depth > 0
        self.got.append((sender, message))
        self.tasks.append(asyncio.current_task())
        self.in_callback.append(_inside_inbound_callback())

    def _handle_send(self, message, sender):
        self._record(message, sender)
        self.depth += 1
        self.broadcast(BrachaEcho(0, 0, message.payload), include_self=True)
        self.depth -= 1


@pytest.fixture(autouse=True)
def no_orphaned_task(caplog):
    """No run may leave asyncio a task to complain about ("Task exception
    was never retrieved", "Task was destroyed but it is pending")."""
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        yield
        gc.collect()
    assert [record.getMessage() for record in caplog.records] == []


def _run(drive):
    """Run ``drive()``; afterwards no task but the caller's may be left."""

    async def checked():
        result = await drive()
        assert asyncio.all_tasks() == {asyncio.current_task()}
        return result

    return asyncio.run(checked())


@TRANSPORT
class TestDispatchWhereDecoded:
    def test_handler_runs_where_the_frame_is_taken_out_and_the_node_owns_one_task(
        self, transport
    ):
        async def drive():
            async with Cluster(_Probe, N, transport=transport) as cluster:
                assert all(len(node._tasks) == 1 for node in cluster.nodes)
                cluster.party(0).broadcast(BrachaReady(0, 0, b"hello"))
                await cluster.settle()
                assert all(len(node._tasks) == 1 for node in cluster.nodes)
                senders = {node.pid: node._tasks[0] for node in cluster.nodes}
                return (
                    [party.got for party in cluster.parties],
                    [node.messages_dispatched for node in cluster.nodes],
                    [
                        (
                            party.tasks[0] in cluster.transport._tasks,
                            party.tasks[0] is senders[party.pid],
                            party.tasks[0] is None,
                            party.in_callback[0],
                        )
                        for party in cluster.parties
                    ],
                )

        got, dispatched, ran_on = _run(drive)
        assert got == [[(0, BrachaReady(0, 0, b"hello"))]] * N
        assert dispatched == [1] * N
        # (a transport task, the node's own sender task, no task, inside
        # an inbound stream's callback)
        if transport == "tcp":
            # a self-send short-circuits into the sender task; a remote
            # frame is handled in the event loop's call of data_received
            sender = (False, True, False, False)
            assert ran_on == [sender] + [(False, False, True, True)] * (N - 1)
        else:
            # every frame is handled on the destination's pump task
            assert ran_on == [(True, False, False, False)] * N

    def test_one_link_is_fifo(self, transport):
        frames = [BrachaEcho(0, 0, index.to_bytes(2, "big")) for index in range(200)]

        async def drive():
            async with Cluster(_Probe, N, transport=transport) as cluster:
                for frame in frames:
                    cluster.party(0).send(1, frame)
                await cluster.settle()
                return cluster.party(1).got

        assert _run(drive) == [(0, frame) for frame in frames]

    def test_a_handler_never_sees_its_own_send_before_it_returns(self, transport):
        async def drive():
            async with Cluster(_Probe, N, transport=transport) as cluster:
                cluster.party(1).send(1, BrachaSend(0, 0, b"to myself"))
                cluster.party(0).broadcast(BrachaSend(0, 0, b"to all"))
                await cluster.settle()
                return cluster.parties

        parties = _run(drive)
        assert not any(party.reentered for party in parties)
        # every BrachaSend handled was echoed to everyone, the echoer included
        assert sorted(len(party.got) for party in parties) == [1 + 4, 1 + 4, 2 + 4]

    def test_a_bound_node_handles_frames_before_start_and_ships_after(self, transport):
        """A proc worker binds its node before the parent says start: a
        frame from a peer released earlier is handled at once, the reply
        waits in the outbox."""

        async def drive():
            mesh = TRANSPORTS[transport](default_registry())
            early, late = (RuntimeNode(_Probe(pid), mesh, [0, 1]) for pid in (0, 1))
            await mesh.start()
            early.start()
            try:
                early.party.send(1, BrachaSend(0, 0, b"are you there"))
                while not late.party.got:
                    await asyncio.sleep(0.001)
                await asyncio.sleep(0.02)
                assert late.party.got == [(0, BrachaSend(0, 0, b"are you there"))]
                assert late.outbox.qsize() == 1 and not late.idle and late._tasks == []
                assert early.party.got == [] and mesh.quiescent
                late.start()
                while not (early.party.got and len(late.party.got) == 2):
                    await asyncio.sleep(0.001)
                assert late.idle
                return early.party.got
            finally:
                await early.stop()
                await late.stop()
                await mesh.stop()

        assert _run(drive) == [(1, BrachaEcho(0, 0, b"are you there"))]

    def test_retire_from_inside_a_handler_during_dispatch(self, transport):
        """The retiring handler runs where the transport has more frames
        for the same node behind it (the pump's queue, the rest of the
        inbound chunk)."""

        async def drive():
            async with Cluster(_Probe, N, transport=transport) as cluster:
                victim = cluster.nodes[1]
                seen = []

                def last_commit(message, sender):
                    seen.append(message)
                    cluster.retire([victim])
                    victim.party.broadcast(BrachaReady(0, 0, b"never shipped"))

                victim.party.on(BrachaEcho, last_commit)
                for index in range(5):
                    cluster.party(0).send(1, BrachaEcho(0, 0, bytes([index])))
                cluster.party(0).broadcast(BrachaReady(0, 0, b"to the living"))
                await cluster.settle()
                assert cluster.quiescent
                return seen, [node.pid for node in cluster.nodes], cluster.parties

        seen, live, parties = _run(drive)
        assert seen == [BrachaEcho(0, 0, b"\x00")]  # the four behind it died with the node
        assert live == [0, 2]
        living = [(0, BrachaReady(0, 0, b"to the living"))]
        assert [party.got for party in parties] == [living] * 2


@TRANSPORT
class TestHandlerFailure:
    """One failure path on both transports: recorded once on the node,
    never raised into the transport (its pump task or inbound stream
    callback), surfaced by the cluster."""

    K = 3

    def _cluster(self, transport):
        cluster = Cluster(_Probe, N, transport=transport)
        faulty = cluster.party(1)
        raised = {}

        def bug(message, sender):
            faulty.got.append((sender, message))
            if len(faulty.got) >= self.K:
                raised.setdefault("at", time.perf_counter())
                raise ValueError(f"handler bug #{len(faulty.got)}")

        faulty.on(BrachaEcho, bug)
        return cluster, raised

    def test_failure_is_recorded_once_and_the_node_is_handed_nothing_more(
        self, transport
    ):
        async def drive():
            cluster, _ = self._cluster(transport)
            async with cluster:
                for index in range(6):
                    cluster.party(0).send(1, BrachaEcho(0, 0, bytes([index])))
                    cluster.party(0).send(2, BrachaEcho(0, 0, bytes([index])))
                while not cluster.quiescent:
                    await asyncio.sleep(0.001)
                failed = cluster.nodes[1]
                first = failed.failure
                # the transport survived it: the mesh still delivers
                cluster.party(2).broadcast(BrachaReady(0, 0, b"still running"))
                while not (cluster.quiescent and cluster.party(0).got):
                    await asyncio.sleep(0.001)
                assert failed.failure is first and cluster.transport.failure is None
                assert [node.failure for node in (cluster.nodes[0], cluster.nodes[2])] == [
                    None,
                    None,
                ]
                return str(first), failed.messages_dispatched, cluster.parties

        cause, dispatched, parties = _run(drive)
        assert cause == f"handler bug #{self.K}"
        assert dispatched == self.K and len(parties[1].got) == self.K
        assert len(parties[2].got) == 6 + 1
        assert parties[0].got == [(2, BrachaReady(0, 0, b"still running"))]

    @pytest.mark.parametrize("wait", ["run_until", "settle"])
    def test_the_cluster_raises_it_within_one_poll(self, transport, wait):
        raised_at = {}

        async def drive():
            cluster, raised = self._cluster(transport)
            async with cluster:
                for index in range(self.K):
                    cluster.party(0).send(1, BrachaEcho(0, 0, bytes([index])))
                try:
                    if wait == "run_until":
                        await cluster.run_until(lambda: False, timeout=5.0, poll=0.01)
                    else:
                        await cluster.settle(timeout=5.0)
                finally:
                    raised_at["late"] = time.perf_counter() - raised["at"]

        with pytest.raises(
            RuntimeError, match="^node 1 failed while pumping messages$"
        ) as info:
            _run(drive)
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"handler bug #{self.K}"
        assert raised_at["late"] < 0.25  # one 10 ms poll, with slack for CI
