"""Tests for the simulated network, delay models, and metrics."""

import random
import tracemalloc
from dataclasses import dataclass

import pytest

from repro.protocols.reliable_broadcast import BrachaSend
from repro.runtime.codec import CodecError
from repro.sim.events import Simulator
from repro.sim.network import Network, TargetedDelay, UniformDelay
from repro.sim.process import Party


@dataclass(frozen=True)
class Ping:
    payload: bytes = b""


class Recorder(Party):
    def __init__(self, pid):
        super().__init__(pid)
        self.inbox = []
        self.on(Ping, lambda m, s: self.inbox.append((s, m)))


def make_net(n=3, seed=0, delay=None):
    sim = Simulator()
    net = Network(sim, delay or UniformDelay(), seed=seed)
    net.registry.register(Ping)
    parties = [Recorder(i) for i in range(n)]
    for p in parties:
        net.register(p)
    return sim, net, parties


class TestDelivery:
    def test_send_delivers(self):
        sim, net, parties = make_net()
        net.send(0, 1, Ping())
        sim.run()
        assert len(parties[1].inbox) == 1
        assert parties[1].inbox[0][0] == 0

    def test_broadcast_includes_self_by_default(self):
        sim, net, parties = make_net()
        net.broadcast(0, Ping())
        sim.run()
        assert all(len(p.inbox) == 1 for p in parties)

    def test_broadcast_exclude_self(self):
        sim, net, parties = make_net()
        net.broadcast(0, Ping(), include_self=False)
        sim.run()
        assert len(parties[0].inbox) == 0
        assert len(parties[1].inbox) == 1

    def test_unknown_destination(self):
        sim, net, parties = make_net()
        with pytest.raises(KeyError):
            net.send(0, 99, Ping())

    def test_duplicate_registration_rejected(self):
        sim, net, parties = make_net()
        with pytest.raises(ValueError):
            net.register(Recorder(0))

    def test_crashed_party_ignores(self):
        sim, net, parties = make_net()
        parties[2].crash()
        net.send(0, 2, Ping())
        sim.run()
        assert parties[2].inbox == []

    def test_determinism_for_fixed_seed(self):
        def trace(seed):
            sim, net, parties = make_net(seed=seed)
            for i in range(3):
                net.broadcast(i, Ping())
            events = []
            while sim.step():
                events.append(round(sim.now, 9))
            return events

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestMetrics:
    def test_message_and_byte_counts(self):
        sim, net, parties = make_net()
        net.send(0, 1, Ping(payload=b"abcd"))
        net.send(0, 2, Ping())
        assert net.metrics.messages == 2
        assert net.metrics.by_type["Ping"] == 2
        # the codec's lengths: the tag (2-byte length + "Ping"), then the
        # bytes field (marker, 4-byte length, the bytes themselves)
        assert net.metrics.bytes == (6 + 5 + 4) + (6 + 5)

    def test_unregistered_type_raises_before_metering(self):
        @dataclass(frozen=True)
        class Stray:
            payload: bytes = b""

        sim, net, parties = make_net()
        with pytest.raises(CodecError):
            net.send(0, 1, Stray())
        with pytest.raises(CodecError):
            net.broadcast(0, Stray())
        assert net.metrics.messages == 0
        assert net.metrics.bytes == 0
        assert dict(net.metrics.by_type) == {}
        assert sim.pending == 0

    def test_broadcast_encodes_once(self):
        n = 5
        sim, net, parties = make_net(n=n)
        calls = []
        encode = net.registry.encode

        def counting_encode(message):
            calls.append(message)
            return encode(message)

        net.registry.encode = counting_encode
        net.broadcast(0, Ping(payload=b"xyz"))
        assert len(calls) == 1
        size = len(encode(Ping(payload=b"xyz")))
        assert net.metrics.messages == n
        assert net.metrics.bytes == n * size
        assert net.metrics.bytes_by_type == {"Ping": n * size}
        assert sim.pending == n


class TestQueuedMemory:
    def test_an_in_flight_message_holds_little_memory(self):
        """A queued delivery is one heap entry and its argument tuple: at
        chain scale (400 parties, one SEND broadcast each) every pending
        event retains at most 300 bytes (~200 B: the entry, its time and
        sequence number, the args; a closure per message would add more)."""
        n = 400
        sim = Simulator()
        net = Network(sim, UniformDelay(), seed=0)
        for pid in range(n):
            net.register(Party(pid))
        sends = [BrachaSend(0, pid, payload=b"x" * 32) for pid in range(n)]
        net.broadcast(0, sends[0])  # warm the codec and the metric counters
        sim.run()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for pid, message in enumerate(sends):
                net.broadcast(pid, message)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sim.pending == n * n
        assert retained / sim.pending <= 300


class TestDelayModels:
    def test_uniform_within_bounds(self):
        model = UniformDelay(low=0.5, high=1.0)
        rng = random.Random(0)
        for _ in range(100):
            d = model.delay(0, 1, rng)
            assert 0.5 <= d <= 1.0

    def test_targeted_slows_selected(self):
        base = UniformDelay(low=1.0, high=1.0)
        model = TargetedDelay(base=base, slow_parties=frozenset({3}), factor=10.0)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == 1.0
        assert model.delay(0, 3, rng) == 10.0
        assert model.delay(3, 0, rng) == 10.0

    def test_targeted_preserves_eventual_delivery(self):
        """Slowed traffic still arrives -- asynchrony, not partition."""
        model = TargetedDelay(
            base=UniformDelay(), slow_parties=frozenset({1}), factor=100.0
        )
        sim, net, parties = make_net(delay=model)
        net.send(0, 1, Ping())
        sim.run()
        assert len(parties[1].inbox) == 1
