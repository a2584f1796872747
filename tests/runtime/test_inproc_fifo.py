"""``InProcTransport`` is one FIFO of ``(src, dst, payload)`` frames,
drained by one ``call_soon`` callback that the first send finding none
armed arms.  What that must keep:

* ``unbind`` drops the pid's queued frames and closes each slot once,
  also from inside a handler while a drain is running;
* a pid bound again (the next generation) never receives the frames
  queued for its predecessor;
* a frame that fails to decode is recorded as the transport's failure
  and closes its slot; the frames behind it are still delivered, and
  nothing is raised into the event loop;
* a drain delivers only the frames queued when it began.
"""

import asyncio
import time

import pytest

from repro.protocols.reliable_broadcast import BrachaEcho
from repro.runtime import Cluster, default_registry
from repro.runtime.codec import CodecError
from repro.runtime.transport import InProcTransport
from repro.sim.process import Party


def _echo(tag):
    return BrachaEcho(0, 0, tag)


def _send_now(transport, src, dst, message):
    """``InProcTransport.send`` never suspends: run it to completion
    here, as a synchronous caller (a handler) would have to."""
    with pytest.raises(StopIteration):
        transport.send(src, dst, message).send(None)


async def _mesh(n, registry=None):
    """A started transport with ``n`` recording handlers: returns it and
    ``got``, one ``(dst, src, payload)`` per delivery, in order."""
    transport = InProcTransport(registry or default_registry())
    got = []
    for pid in range(n):
        transport.bind(pid, lambda src, m, pid=pid: got.append((pid, src, m.payload)))
    await transport.start()
    return transport, got


def _checked(drive):
    """Run ``drive()`` on a loop whose exception handler must stay idle."""
    raised = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: raised.append(context)
        )
        return await drive()

    result = asyncio.run(main())
    assert raised == []
    return result


class TestUnbind:
    def test_drops_the_pids_queued_frames_and_closes_their_slots(self):
        async def drive():
            transport, got = await _mesh(3)
            frames = [(0, 1, b"a"), (0, 2, b"b"), (2, 1, b"c"), (1, 2, b"d")]
            for src, dst, tag in frames:
                await transport.send(src, dst, _echo(tag))
            assert transport.in_flight == 4
            transport.unbind(1)
            assert transport.in_flight == 2
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return got

        assert _checked(drive) == [(2, 0, b"b"), (2, 1, b"d")]

    def test_inside_a_handler_while_a_drain_runs(self):
        async def drive():
            transport, got = await _mesh(3)
            seen = []

            def unbinding(src, message):
                seen.append(transport.in_flight)
                transport.unbind(2)
                seen.append(transport.in_flight)

            transport.unbind(1)
            transport.bind(1, unbinding)
            for dst, tag in [(1, b"a"), (2, b"b1"), (0, b"x"), (2, b"b2")]:
                await transport.send(0, dst, _echo(tag))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return seen, got

        seen, got = _checked(drive)
        # the running frame keeps its slot; b1 and b2 close theirs once
        assert seen == [4, 2]
        assert got == [(0, 0, b"x")]


class TestRebind:
    def test_a_successor_never_receives_its_predecessors_frames(self):
        async def drive():
            transport, got = await _mesh(2)
            await transport.send(0, 1, _echo(b"old"))
            transport.unbind(1)
            transport.bind(1, lambda src, m: got.append(("new", src, m.payload)))
            await transport.send(0, 1, _echo(b"new"))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return got

        assert _checked(drive) == [("new", 0, b"new")]

    def test_rebound_from_inside_a_handler_while_a_drain_runs(self):
        async def drive():
            transport, got = await _mesh(3)

            def rotating(src, message):
                transport.unbind(2)
                transport.bind(2, lambda src, m: got.append(("new", src, m.payload)))

            transport.unbind(1)
            transport.bind(1, rotating)
            for dst, tag in [(1, b"rotate"), (2, b"old1"), (0, b"x"), (2, b"old2")]:
                await transport.send(0, dst, _echo(tag))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.send(0, 2, _echo(b"new"))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return got

        assert _checked(drive) == [(0, 0, b"x"), ("new", 0, b"new")]

    def test_a_generation_retired_and_respawned_from_a_handler(self):
        class Sink(Party):
            def __init__(self, pid):
                super().__init__(pid)
                self.got = []
                self.on(BrachaEcho, lambda message, _: self.got.append(message.payload))

        async def drive():
            async with Cluster() as cluster:
                old = cluster.spawn(Sink, 3)
                new = []

                def last_commit(message, sender):
                    cluster.retire(old)
                    new.extend(cluster.spawn(Sink, 3))

                old[1].on(BrachaEcho, last_commit)
                frames = [(1, b"last"), (2, b"stale"), (1, b"stale"), (0, b"stale")]
                for dst, tag in frames:
                    await cluster.transport.send(0, dst, _echo(tag))
                await cluster.settle()
                new[0].broadcast(_echo(b"fresh"))
                await cluster.settle()
                assert cluster.transport.in_flight == 0
                return [p.got for p in old], [p.got for p in new]

        old, new = _checked(drive)
        assert old == [[], [], []]
        assert new == [[b"fresh"]] * 3


class TestDecodeFailure:
    def test_recorded_raised_by_the_cluster_and_the_frames_behind_it_flow(self):
        registry = default_registry()
        decode = registry.decode

        def failing(data):
            message = decode(data)
            if message.payload == b"bad":
                raise CodecError("undecodable")
            return message

        registry.decode = failing

        async def drive():
            transport, got = await _mesh(3, registry)
            for dst, tag in [(1, b"a"), (1, b"bad"), (2, b"b"), (1, b"c")]:
                await transport.send(0, dst, _echo(tag))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            assert isinstance(transport.failure, CodecError)
            await transport.stop()
            return got

        assert _checked(drive) == [(1, 0, b"a"), (2, 0, b"b"), (1, 0, b"c")]

        class Sink(Party):
            def __init__(self, pid):
                super().__init__(pid)
                self.on(BrachaEcho, lambda message, sender: None)

        async def cluster_drive():
            async with Cluster(Sink, 2, registry=registry) as cluster:
                cluster.party(0).send(1, _echo(b"bad"))
                await cluster.settle(timeout=5.0)

        with pytest.raises(RuntimeError, match="delivery point") as info:
            _checked(cluster_drive)
        assert isinstance(info.value.__cause__, CodecError)


    def test_a_raising_bound_handler_is_kept_the_same_way(self):
        async def drive():
            transport, got = await _mesh(2)
            transport.unbind(1)
            transport.bind(1, lambda src, m: 1 / 0)
            await transport.send(0, 1, _echo(b"boom"))
            await transport.send(0, 0, _echo(b"after"))
            await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return transport.failure, got

        failure, got = _checked(drive)
        assert isinstance(failure, ZeroDivisionError)
        assert got == [(0, 0, b"after")]


class TestDrainBoundary:
    def test_a_frame_sent_during_a_drain_waits_for_the_next_one(self):
        async def drive():
            transport, got = await _mesh(2)
            loop = asyncio.get_running_loop()
            order = []

            def sending(src, message):
                order.append(message.payload)
                if message.payload == b"first":
                    loop.call_soon(order.append, "scheduled meanwhile")
                    _send_now(transport, 1, 0, _echo(b"sent meanwhile"))

            transport.unbind(0)
            transport.bind(0, sending)
            await transport.send(1, 0, _echo(b"first"))
            await transport.send(1, 0, _echo(b"queued with it"))
            for _ in range(3):
                await asyncio.sleep(0)
            assert transport.in_flight == 0
            await transport.stop()
            return order

        assert _checked(drive) == [
            b"first",
            b"queued with it",
            "scheduled meanwhile",
            b"sent meanwhile",
        ]

    def test_a_timer_due_during_a_drain_runs_before_the_frames_it_sent(self):
        class Slow(Party):
            def __init__(self, pid, order):
                super().__init__(pid)
                self.on(BrachaEcho, self._echo)
                self.order = order

            def _echo(self, message, sender):
                self.order.append((self.pid, message.payload))
                if message.payload == b"ping":
                    loop = asyncio.get_running_loop()
                    loop.call_later(0.001, self.order.append, "timer")
                    time.sleep(0.005)  # the timer falls due in this drain
                    self.send(sender, _echo(b"pong"))

        async def drive():
            order = []
            async with Cluster(lambda pid: Slow(pid, order), 2) as cluster:
                cluster.party(0).send(1, _echo(b"ping"))
                await cluster.settle()
            return order

        assert _checked(drive) == [(1, b"ping"), "timer", (0, b"pong")]
