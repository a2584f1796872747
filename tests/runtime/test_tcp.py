"""TCP transport smoke tests (marked ``tcp``: real localhost sockets)."""

import asyncio
import logging
import random
import socket

import pytest

from repro.codes import ReedSolomon
from repro.protocols.avid import AvidParty
from repro.protocols.common_coin import deterministic_coin
from repro.protocols.reliable_broadcast import BrachaEcho, BroadcastParty, BrachaSend
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster
from repro.runtime.codec import CodecError, default_registry
from repro.runtime.transport import _FRAME, _HELLO, TcpTransport
from repro.weighted.quorum import NominalQuorums, WeightedQuorums
from repro.weighted.transform import qualification_setup

pytestmark = pytest.mark.tcp

WEIGHTS = [7, 5, 2, 1]
N = len(WEIGHTS)


_coin = deterministic_coin("tcp")


class TestTcpSmoke:
    def test_rbc_over_tcp_n4(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        cluster = Cluster(lambda pid: BroadcastParty(pid, quorums, 0), N, transport="tcp")
        cluster.run(
            lambda: cluster.party(0).broadcast_value(b"over-the-wire"),
            lambda: all(p.delivered == b"over-the-wire" for p in cluster.parties),
        )
        # n SENDs + n^2 ECHOs + n^2 READYs, all actually serialized.
        assert cluster.metrics.by_type == {
            "BrachaSend": N,
            "BrachaEcho": N * N,
            "BrachaReady": N * N,
        }
        assert cluster.metrics.bytes > 0
        assert cluster.metrics.elapsed_seconds > 0

    def test_smr_epoch_over_tcp_n4(self):
        quorums = NominalQuorums(n=N, t=1)
        cluster = Cluster(lambda pid: SmrParty(pid, N, quorums, _coin), N, transport="tcp")
        cluster.run(
            lambda: [
                cluster.party(pid).propose_batch(0, f"tcp-batch-{pid}".encode())
                for pid in range(N)
            ],
            lambda: all(len(p.ordered_log(0)) == N for p in cluster.parties),
        )
        logs = {tuple(p.ordered_log(0)) for p in cluster.parties}
        assert len(logs) == 1 and len(next(iter(logs))) == N

    def test_tcp_matches_inproc_outputs(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        def factory(pid):
            return BroadcastParty(pid, quorums, 1)

        results = {}
        for transport in ("inproc", "tcp"):
            cluster = Cluster(factory, N, transport=transport)
            cluster.run(
                lambda: cluster.party(1).broadcast_value(b"same-everywhere"),
                lambda: all(p.delivered for p in cluster.parties),
            )
            results[transport] = (
                [p.delivered for p in cluster.parties],
                cluster.metrics.bytes,
                dict(cluster.metrics.by_type),
            )
        assert results["inproc"] == results["tcp"]

    def test_a_wrong_typed_echo_is_dropped_at_the_door(self):
        # The codec carries a ``str`` payload over the socket; the
        # receiver's door counts it, and the honest broadcast completes.
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(factory_quorums(quorums), N, transport="tcp") as cluster:
                cluster.party(3).send(1, BrachaEcho(0, 0, "not-bytes"))
                cluster.party(0).broadcast_value(b"honest")
                await cluster.run_until(
                    lambda: all(p.delivered == b"honest" for p in cluster.parties),
                    timeout=10,
                )
                await cluster.settle()
                return cluster.parties

        parties = asyncio.run(drive())
        assert [p.delivered for p in parties] == [b"honest"] * N
        assert [p.counters["malformed"] for p in parties] == [0, 1, 0, 0]

    def test_listeners_close_on_stop(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            cluster = Cluster(factory_quorums(quorums), N, transport="tcp")
            await cluster.start()
            ports = [cluster.transport.address(pid)[1] for pid in range(N)]
            assert len(set(ports)) == N  # one listener per node
            await cluster.stop()
            # After stop, dialing any port must fail.
            for port in ports:
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(drive())


def factory_quorums(quorums):
    def factory(pid):
        return BroadcastParty(pid, quorums, 0)

    return factory


async def _until(predicate, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition not reached"
        await asyncio.sleep(0.001)


class _Mesh:
    """A bare ``TcpTransport`` hosting ``hosted`` with recording handlers."""

    def __init__(self, hosted):
        self.registry = default_registry()
        self.transport = TcpTransport(self.registry)
        self.got = {pid: [] for pid in hosted}
        for pid in hosted:
            self.transport.bind(
                pid, lambda src, message, pid=pid: self.got[pid].append((src, message))
            )

    def watermarks(self):
        return {key: link.watermark for key, link in self.transport._links.items()}

    def frame(self, seq, message):
        body = self.registry.encode(message)
        return _FRAME.pack(seq, len(body)) + body

    async def dial(self, dst, src, incarnation):
        """A raw dialer posing as (remote) node ``src``."""
        _, writer = await asyncio.open_connection(*self.transport.address(dst))
        writer.write(_HELLO.pack(src, incarnation))
        return writer


class TestOneMesh:
    """What the hosted set decides: slot ownership, dedup, incarnations."""

    def test_hosted_frame_holds_its_slot_until_dispatched(self):
        async def drive():
            mesh = _Mesh([0, 1])
            transport = mesh.transport
            await transport.start()
            try:
                await transport.send(0, 1, BrachaSend(0, 0, b"buffered"))
                # on the link's queue, not yet written or read: in flight here
                assert mesh.got[1] == []
                assert transport.in_flight == 1
                assert transport.quiescent is False
                await _until(lambda: mesh.got[1])
                assert mesh.got[1] == [(0, BrachaSend(0, 0, b"buffered"))]
                assert transport.in_flight == 0 and transport.quiescent
                assert transport.frames_sent == transport.frames_received == 1
            finally:
                await transport.stop()

        asyncio.run(drive())

    def test_self_send_skips_the_socket(self):
        async def drive():
            mesh = _Mesh([0])
            await mesh.transport.start()
            try:
                await mesh.transport.send(0, 0, BrachaSend(0, 0, b"me"))
                assert mesh.got[0] == [(0, BrachaSend(0, 0, b"me"))]  # synchronously
                assert not mesh.transport._links  # no stream was ever dialed
                assert mesh.transport.quiescent
            finally:
                await mesh.transport.stop()

        asyncio.run(drive())

    def test_redelivered_frame_is_dropped_on_a_tcp_cluster(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(factory_quorums(quorums), N, transport="tcp") as cluster:
                transport = cluster.transport
                cluster.party(0).broadcast_value(b"once")
                await cluster.settle()
                dispatched = cluster.nodes[1].messages_dispatched
                received = transport.frames_received
                assert transport._links[0, 1].watermark >= 1
                # what a retry queue does after a write that half-succeeded
                body = transport.registry.encode(BrachaSend(0, 0, b"once"))
                transport._links[0, 1].writer.write(_FRAME.pack(1, len(body)) + body)
                await _until(lambda: transport.duplicates_dropped == 1)
                await cluster.settle()
                assert cluster.nodes[1].messages_dispatched == dispatched
                assert transport.frames_received == received
                assert transport.in_flight == 0

        asyncio.run(drive())

    def test_higher_incarnation_resets_only_that_links_watermark(self):
        async def drive():
            mesh = _Mesh([1])
            transport = mesh.transport
            await transport.start()
            try:
                old = {src: await mesh.dial(1, src, 0) for src in (7, 8)}
                for src, writer in old.items():
                    for seq in (1, 2, 3):
                        writer.write(mesh.frame(seq, BrachaSend(0, 0, b"%d" % seq)))
                await _until(lambda: len(mesh.got[1]) == 6)
                assert mesh.watermarks() == {(7, 1): 3, (8, 1): 3}

                reborn = await mesh.dial(1, 7, 1)
                reborn.write(mesh.frame(1, BrachaSend(0, 0, b"reborn")))
                await _until(lambda: len(mesh.got[1]) == 7)
                assert mesh.got[1][-1] == (7, BrachaSend(0, 0, b"reborn"))
                assert mesh.watermarks() == {(7, 1): 1, (8, 1): 3}

                # the other link still dedups below its own watermark, and
                # the same incarnation dialing again resets nothing
                old[8].write(mesh.frame(2, BrachaSend(0, 0, b"stale")))
                again = await mesh.dial(1, 7, 1)
                again.write(mesh.frame(1, BrachaSend(0, 0, b"stale")))
                await _until(lambda: transport.duplicates_dropped == 2)
                assert len(mesh.got[1]) == 7
                # remote frames reopened a slot on arrival and closed it
                assert transport.in_flight == 0
                assert transport.frames_received == 7
                for writer in (*old.values(), reborn, again):
                    writer.close()
            finally:
                await transport.stop()

        asyncio.run(drive())


class TestInboundOverSockets:
    """The inbound protocol on real streams: big frames span many reads,
    and garbage fails the run loudly without a word from asyncio."""

    def test_a_4_mib_avid_object_disperses_and_retrieves_intact(self):
        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        layout = qualification_setup(weights, "1/3", "1/4")
        code = ReedSolomon(k=layout.data_shards, m=layout.total_shards)
        quorums = WeightedQuorums(weights, "1/3")
        data = random.Random(4).randbytes(4 << 20)

        async def drive():
            cluster = Cluster(lambda pid: AvidParty(pid, quorums), len(weights), transport="tcp")
            async with cluster:
                commitment = cluster.party(0).disperse(data, code, layout.vmap)
                await cluster.run_until(
                    lambda: all(p.stored_commitment == commitment for p in cluster.parties),
                    timeout=60.0,
                )
                retriever = cluster.party(5)
                retriever.retrieve(commitment)
                await cluster.run_until(lambda: retriever.retrieved is not None, timeout=60.0)
                await cluster.settle()
                metrics = cluster.metrics
                disperse = metrics.bytes_by_type["AvidDisperse"] / metrics.by_type["AvidDisperse"]
                return retriever.retrieved, cluster.transport, disperse

        retrieved, transport, disperse = asyncio.run(drive())
        assert retrieved == data
        assert disperse > 1 << 19  # frames far larger than one read
        assert transport.failure is None and transport.duplicates_dropped == 0
        assert transport.frames_sent == transport.frames_received

    def test_garbage_after_a_valid_hello_fails_the_run_loudly(self, caplog):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        garbage = b"\x00garbage-frame"

        async def drive():
            async with Cluster(factory_quorums(quorums), N, transport="tcp") as cluster:
                transport = cluster.transport
                reader, writer = await asyncio.open_connection(*transport.address(1))
                writer.write(_HELLO.pack(9, 0) + _FRAME.pack(1, len(garbage)) + garbage)
                assert await reader.read() == b""  # the receiver hung up
                writer.close()
                with pytest.raises(RuntimeError, match="delivery point") as raised:
                    await cluster.run_until(lambda: False, timeout=5.0)
                # only that stream closed: the mesh itself still delivers
                cluster.party(0).broadcast_value(b"still up")
                await _until(lambda: all(p.delivered == b"still up" for p in cluster.parties))
                return raised.value.__cause__, transport.in_flight

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            cause, in_flight = asyncio.run(drive())
        assert isinstance(cause, CodecError)
        assert in_flight == 0
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestLinkQueue:
    """One outbound queue and one writer task per link: a burst is one
    write, the queue of a healthy link has no bound, and a reconnect
    keeps per-link FIFO with the watermark absorbing what was re-sent."""

    @staticmethod
    def payloads(mesh, pid):
        return [message.payload for _, message in mesh.got[pid]]

    def test_frames_queued_in_one_turn_make_one_write(self):
        async def drive():
            mesh = _Mesh([0, 1])
            transport = mesh.transport
            await transport.start()
            try:
                await transport.send(0, 1, BrachaSend(0, 0, b"dial"))
                await _until(lambda: len(mesh.got[1]) == 1)
                writer = transport._links[0, 1].writer
                writes = []
                real_write = writer.write
                writer.write = lambda data: (writes.append(len(data)), real_write(data))
                sizes = [
                    await transport.send(0, 1, BrachaSend(0, 0, b"burst-%d" % i))
                    for i in range(12)
                ]
                assert writes == []  # send() queues; the link's writer task writes
                await _until(lambda: len(mesh.got[1]) == 13)
                assert writes == [sum(sizes) + 12 * _FRAME.size]
                assert self.payloads(mesh, 1)[1:] == [b"burst-%d" % i for i in range(12)]
                assert transport.in_flight == 0
            finally:
                await transport.stop()

        asyncio.run(drive())

    def test_a_healthy_link_sheds_nothing_past_the_retry_limit(self):
        async def drive():
            mesh = _Mesh([0, 1])
            transport = mesh.transport
            transport.retry_limit = 3
            await transport.start()
            try:
                for i in range(40):
                    await transport.send(0, 1, BrachaSend(0, 0, b"%d" % i))
                assert len(transport._links[0, 1].queue) == 40
                await _until(lambda: len(mesh.got[1]) == 40)
                assert self.payloads(mesh, 1) == [b"%d" % i for i in range(40)]
                assert transport.retries_dropped == 0
                assert transport.frames_sent == transport.frames_received == 40
            finally:
                await transport.stop()

        asyncio.run(drive())

    def test_fifo_and_dedup_hold_across_a_forced_reconnect(self):
        async def drive():
            mesh = _Mesh([0, 1])
            transport = mesh.transport
            await transport.start()
            try:
                await transport.send(0, 1, BrachaSend(0, 0, b"0"))
                await _until(lambda: len(mesh.got[1]) == 1)
                link = transport._links[0, 1]
                first = link.writer
                real_drain = first.drain

                async def drain_then_fail():
                    await real_drain()  # the burst really left ...
                    raise ConnectionResetError("forced")  # ... and looks lost

                first.drain = drain_then_fail
                for i in (1, 2, 3):
                    await transport.send(0, 1, BrachaSend(0, 0, b"%d" % i))
                await _until(lambda: link.down)
                assert len(link.queue) == 3  # kept for the next stream
                for i in (4, 5):  # queued behind them while the link is down
                    await transport.send(0, 1, BrachaSend(0, 0, b"%d" % i))
                await _until(lambda: len(mesh.got[1]) == 6)
                await _until(lambda: transport.duplicates_dropped == 3)
                # 1-3 arrived on the first stream and again on the second
                assert self.payloads(mesh, 1) == [b"%d" % i for i in range(6)]
                assert transport.reconnects == 1
                assert link.writer is not first and not link.down
                assert link.watermark == link.seq == 6
                assert transport.frames_sent == transport.frames_received == 6
                await _until(lambda: transport.in_flight == 0)
                first.close()
            finally:
                await transport.stop()

        asyncio.run(drive())

    def test_dead_peer_sheds_then_flushes_in_order_when_it_returns(self):
        """End to end: the dial fails, the queue becomes a retry queue and
        is bounded; the peer comes back on a new port, ``configure`` says
        where, and what was kept flushes there in order."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()
        # closed: nothing listens on ``dead`` any more

        async def scenario():
            sender = TcpTransport(default_registry())
            sender.retry_limit = 3
            sender.bind(0, lambda src, message: None)
            await sender.listen(0)
            sender.configure({1: dead})
            peer = TcpTransport(default_registry())
            got = []
            peer.bind(1, lambda src, message: got.append((src, message.payload)))
            try:
                for i in range(5):
                    await sender.send(0, 1, BrachaSend(0, 0, b"frame-%d" % i))
                link = sender._links[0, 1]
                assert len(link.queue) == 5  # not known to be down yet
                await _until(lambda: sender.retries_dropped == 2)
                assert [_FRAME.unpack(header)[0] for header, _ in link.queue] == [3, 4, 5]
                assert sender.in_flight == 3
                assert sender.reconnects >= 1

                port = await peer.listen(1)
                sender.configure({1: ("127.0.0.1", port)})
                await _until(lambda: len(got) == 3)
                await sender.send(0, 1, BrachaSend(0, 0, b"frame-5"))  # healthy again
                await _until(lambda: len(got) == 4)
                assert got == [(0, b"frame-%d" % i) for i in (2, 3, 4, 5)]
                # bound for another process: slots close on drain, and the
                # receiving endpoint reopened and closed its own
                assert sender.in_flight == 0 and peer.in_flight == 0
                assert sender.retries_dropped == 2 and not link.down
            finally:
                await sender.stop()
                await peer.stop()

        asyncio.run(scenario())
