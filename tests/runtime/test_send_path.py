"""Each thing on the send path happens once: a broadcast is one outbox
entry and one encode, whatever the number of destinations, while the
fault check, the byte metric and the in-flight slot stay per destination.
"""

import asyncio

import pytest

from repro.protocols.reliable_broadcast import BrachaEcho, BrachaSend
from repro.runtime import TRANSPORTS, Cluster, FaultController
from repro.runtime.codec import default_registry
from repro.sim.process import Party

N = 5


class _Sink(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.got = []
        self.on(BrachaSend, lambda message, sender: self.got.append((sender, message)))
        self.on(BrachaEcho, lambda message, sender: self.got.append((sender, message)))


class _Counts:
    """A registry and a fault controller that count their calls."""

    def __init__(self):
        self.registry = default_registry()
        self.faults = FaultController()
        self.encodes = []
        self.condemned = []
        encode, condemn = self.registry.encode, self.faults.condemn

        def counted_encode(message):
            self.encodes.append(message)
            return encode(message)

        def counted_condemn(src, dst):
            self.condemned.append((src, dst))
            return condemn(src, dst)

        self.registry.encode = counted_encode
        self.faults.condemn = counted_condemn

    def cluster(self, transport, record):
        wired = TRANSPORTS[transport](self.registry, faults=self.faults, record=record)
        return Cluster(_Sink, N, transport=wired, registry=self.registry, faults=self.faults)


def _broadcast_counts(transport):
    counts = _Counts()
    recorded = []

    async def drive():
        async with counts.cluster(
            transport, lambda name, size: recorded.append((name, size))
        ) as cluster:
            node = cluster.nodes[2]
            message = BrachaSend(0, 0, b"to-everyone" * 20)
            node.party.broadcast(message)
            assert len(node.outbox) == 1  # one entry, not N
            await cluster.settle()
            # the same value again, as a new object: a second encode
            again = BrachaSend(0, 0, b"to-everyone" * 20)
            node.party.broadcast(again, include_self=False)
            node.party.send(4, BrachaEcho(0, 0, b"just-one"))
            await cluster.settle()
            assert cluster.transport.in_flight == 0
            return message, [party.got for party in cluster.parties]

    message, got = asyncio.run(drive())
    size = len(default_registry().encode(message))
    names = [type(m).__name__ for m in counts.encodes]
    assert names == ["BrachaSend", "BrachaSend", "BrachaEcho"]
    assert counts.encodes[0] is message
    assert counts.condemned == (
        [(2, dst) for dst in range(N)]
        + [(2, dst) for dst in range(N) if dst != 2]
        + [(2, 4)]
    )
    assert recorded[: 2 * N - 1] == [("BrachaSend", size)] * (2 * N - 1)
    echo_size = len(default_registry().encode(BrachaEcho(0, 0, b"just-one")))
    assert recorded[2 * N - 1 :] == [("BrachaEcho", echo_size)]
    for pid, seen in enumerate(got):
        expected = [(2, message)] * (1 if pid == 2 else 2)
        if pid == 4:
            expected.append((2, BrachaEcho(0, 0, b"just-one")))
        assert seen == expected


def test_inproc_broadcast_encodes_once_and_judges_every_destination():
    _broadcast_counts("inproc")


@pytest.mark.tcp
def test_tcp_broadcast_encodes_once_and_judges_every_destination():
    _broadcast_counts("tcp")


def test_condemned_destinations_still_count_and_share_the_encode():
    """A crashed peer's copy is condemned at the send point: metrics
    counted, nothing delivered -- and no extra encode either way."""
    counts = _Counts()
    recorded = []

    async def drive():
        async with counts.cluster(
            "inproc", lambda name, size: recorded.append(name)
        ) as cluster:
            counts.faults.crash(3)
            cluster.party(0).broadcast(BrachaSend(0, 0, b"x"))
            await cluster.settle()
            return [len(party.got) for party in cluster.parties]

    assert asyncio.run(drive()) == [1, 1, 1, 0, 1]
    assert len(counts.encodes) == 1
    assert len(counts.condemned) == N and len(recorded) == N
    assert counts.faults.dropped_messages == 1
