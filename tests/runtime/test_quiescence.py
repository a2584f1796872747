"""``Cluster.settle()`` is exact: it returns at the first quiescent poll,
and that poll is final.

One loop hosts every node.  A frame holds an in-flight slot from ``send``
until its handler has returned (delay timers, weather duplicates and tcp
link queues hold their own), and a handler's sends are on its node's
outbox before that slot closes.  So a cluster found quiescent stays
quiescent until a caller injects work: after ``settle()`` returns, no
counter may move.  Every test runs on ``inproc`` and (tcp-marked) on
``tcp``.
"""

import asyncio
import time

import pytest

from repro.chaos.weather import NetworkWeather, WeatherSpec
from repro.protocols.reliable_broadcast import BrachaEcho, BroadcastParty
from repro.runtime import Cluster, FaultController
from repro.sim.process import Party
from repro.weighted.quorum import WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
QUORUMS = WeightedQuorums(WEIGHTS, "1/3")

TRANSPORT = pytest.mark.parametrize(
    "transport", ["inproc", pytest.param("tcp", marks=pytest.mark.tcp)]
)


def _no_faults(faults):
    pass


def _delay_all(faults):
    faults.delay_all(0.02)


def _duplicate(faults):
    faults.weather = NetworkWeather(WeatherSpec(duplicate=1.0), seed=0)


FAULTS = pytest.mark.parametrize(
    "arm",
    [_no_faults, _delay_all, _duplicate],
    ids=["none", "delay_all", "duplicate"],
)


def _broadcaster(pid):
    return BroadcastParty(pid, QUORUMS, 0)


class _Sink(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.on(BrachaEcho, lambda message, sender: self.got.append((sender, message)))


def _counters(cluster):
    """Everything that moves when a frame is sent or dispatched."""
    frames = getattr(cluster.transport, "frames_received", None)
    dispatched = [node.messages_dispatched for node in cluster.nodes]
    return dispatched, cluster.metrics.messages, frames


async def _assert_settled_for_good(cluster):
    assert cluster.transport.in_flight == 0
    assert all(node.idle for node in cluster.nodes)
    before = _counters(cluster)
    await asyncio.sleep(0.05)
    assert _counters(cluster) == before


@TRANSPORT
class TestSettleIsExact:
    @FAULTS
    def test_nothing_moves_after_settle(self, transport, arm):
        faults = FaultController()
        arm(faults)

        async def drive():
            async with Cluster(
                _broadcaster, N, transport=transport, faults=faults
            ) as cluster:
                cluster.party(0).broadcast_value(b"exact")
                await cluster.settle()
                await _assert_settled_for_good(cluster)
                return [party.delivered for party in cluster.parties]

        assert asyncio.run(drive()) == [b"exact"] * N
        if arm is _duplicate:
            assert faults.weather.duplicated > 0

    def test_nothing_moves_after_a_retirement(self, transport):
        """A retired generation leaves one frame queued and one on a delay
        timer; ``settle()`` waits both out, and then nothing moves -- nor
        after the next generation's traffic."""
        faults = FaultController()

        async def drive():
            async with Cluster(
                _Sink, 4, transport=transport, faults=faults
            ) as cluster:
                old = cluster.parties
                faults.delay_link(2, 3, 0.05)
                old[2].send(3, BrachaEcho(0, 0, b"on a timer"))
                while faults.delayed_messages < 1:
                    await asyncio.sleep(0.001)
                faults.delay_link(2, 3, 0.0)
                await cluster.transport.send(0, 1, BrachaEcho(0, 0, b"queued"))
                cluster.retire(old)
                assert not cluster.quiescent  # the timer still holds its slot
                await cluster.settle()
                await _assert_settled_for_good(cluster)
                new = cluster.spawn(_Sink, 4)
                new[1].broadcast(BrachaEcho(0, 0, b"new generation"))
                await cluster.settle()
                await _assert_settled_for_good(cluster)
                return old, new

        old, new = asyncio.run(drive())
        assert all(party.got == [] for party in old)
        fresh = [(1, BrachaEcho(0, 0, b"new generation"))]
        assert [party.got for party in new] == [fresh] * 4

    def test_settling_a_quiescent_cluster_is_immediate(self, transport):
        async def drive():
            async with Cluster(_broadcaster, N, transport=transport) as cluster:
                cluster.party(0).broadcast_value(b"once")
                await cluster.settle()
                start = time.perf_counter()
                await cluster.settle()
                return time.perf_counter() - start

        assert asyncio.run(drive()) < 0.01


@TRANSPORT
class TestSettleReports:
    def test_a_failure_on_the_last_frame_still_raises(self, transport):
        """The failing frame is the last one, so the first poll already
        finds the cluster quiescent; the failure must surface anyway."""

        def factory(pid):
            party = _Sink(pid)
            if pid == 1:
                party.on(BrachaEcho, lambda message, sender: 1 / 0)
            return party

        async def drive():
            async with Cluster(factory, 3, transport=transport) as cluster:
                cluster.party(0).send(1, BrachaEcho(0, 0, b"last"))
                while not cluster.quiescent:
                    await asyncio.sleep(0.001)
                assert cluster.nodes[1].failure is not None
                await cluster.settle()

        with pytest.raises(
            RuntimeError, match="^node 1 failed while pumping messages$"
        ) as info:
            asyncio.run(drive())
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_a_timeout_names_what_is_still_in_flight(self, transport):
        faults = FaultController()
        faults.delay_link(0, 1, 5.0)

        async def drive():
            async with Cluster(
                _Sink, 3, transport=transport, faults=faults
            ) as cluster:
                cluster.party(0).send(1, BrachaEcho(0, 0, b"late"))
                await cluster.settle(timeout=0.05)

        with pytest.raises(
            TimeoutError,
            match=r"outbox depth per node: \{0: 0, 1: 0, 2: 0\}, "
            r"transport in flight: 1\)$",
        ):
            asyncio.run(drive())
