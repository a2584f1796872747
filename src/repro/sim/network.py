"""Simulated asynchronous message-passing network with metrics.

Messages between honest parties are delivered after finite delays drawn
from a :class:`DelayModel`; the adversarial variant can stretch delays to
and from targeted parties (but never drop honest-to-honest traffic --
that would violate asynchrony rather than model it).  The network counts
messages and payload bytes per type, which is how the benchmark harness
measures the communication-overhead columns of the paper's Table 1.

Injected faults are consulted through the same two-point interface the
live runtime's :class:`~repro.runtime.faults.FaultController` exposes:
``condemn(src, dst)`` at the send point (terminal faults -- crash,
partition, weather loss) and ``decide(src, dst)`` at the delivery point
(delay, jitter, duplication, plus a terminal re-check for in-flight
messages), so one fault plan produces the same drop/delay behavior on
every execution backend.  Metrics are recorded at send time on all
backends, which keeps message counts comparable even under faults.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .events import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .process import Party

__all__ = ["DelayModel", "UniformDelay", "TargetedDelay", "Network", "NetworkMetrics"]


class DelayModel:
    """Strategy interface: choose the delivery delay of one message."""

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        raise NotImplementedError


@dataclass
class UniformDelay(DelayModel):
    """Delays uniform in ``[low, high]`` -- the benign asynchronous run."""

    low: float = 0.01
    high: float = 0.1

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass
class TargetedDelay(DelayModel):
    """Adversarial scheduler: traffic touching ``slow_parties`` is slowed
    by ``factor`` -- the classic way an asynchronous adversary biases
    quorum formation without violating eventual delivery."""

    base: DelayModel
    slow_parties: frozenset[int]
    factor: float = 50.0

    def delay(self, src: int, dst: int, rng: random.Random) -> float:
        d = self.base.delay(src, dst, rng)
        if src in self.slow_parties or dst in self.slow_parties:
            return d * self.factor
        return d


@dataclass
class NetworkMetrics:
    """Message and byte counters, total and per message type."""

    messages: int = 0
    bytes: int = 0
    by_type: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_type: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, type_name: str, size: int) -> None:
        self.messages += 1
        self.bytes += size
        self.by_type[type_name] += 1
        self.bytes_by_type[type_name] += size

    def add(self, other: "NetworkMetrics") -> None:
        """Fold ``other``'s counters into this one (per-worker and
        per-fabric totals)."""
        self.messages += other.messages
        self.bytes += other.bytes
        for type_name, count in other.by_type.items():
            self.by_type[type_name] += count
        for type_name, size in other.bytes_by_type.items():
            self.bytes_by_type[type_name] += size


def _default_size(message) -> int:
    """Estimate a message's wire size.

    Messages may provide ``wire_size()``; otherwise a flat header cost is
    charged plus the length of any ``payload`` bytes attribute.
    """
    if hasattr(message, "wire_size"):
        return int(message.wire_size())
    size = 64
    payload = getattr(message, "payload", None)
    if isinstance(payload, (bytes, bytearray)):
        size += len(payload)
    return size


class Network:
    """The message fabric connecting :class:`~repro.sim.process.Party` objects."""

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
        *,
        seed: int = 0,
        faults=None,
    ) -> None:
        self.simulator = simulator
        self.delay_model = delay_model or UniformDelay()
        self.rng = random.Random(seed)
        self.parties: dict[int, "Party"] = {}
        self.metrics = NetworkMetrics()
        #: optional fault plan with a ``decide(src, dst)`` method (duck-typed
        #: so :class:`repro.runtime.faults.FaultController` plugs in without
        #: the sim importing the runtime package)
        self.faults = faults

    def register(self, party: "Party") -> None:
        """Attach a party; its ``pid`` must be unique."""
        if party.pid in self.parties:
            raise ValueError(f"duplicate party id {party.pid}")
        self.parties[party.pid] = party
        party.network = self

    @property
    def party_ids(self) -> list[int]:
        return sorted(self.parties)

    def send(self, src: int, dst: int, message) -> None:
        """Queue ``message`` for asynchronous delivery ``src -> dst``.

        Terminal faults (crash, partition, weather loss) are checked at
        the *send point* -- a condemned message is counted and never
        scheduled, matching the live transports, so a partition means the
        same thing on every backend regardless of in-flight buffering.
        Metrics are recorded first: counts stay comparable under faults.
        """
        if dst not in self.parties:
            raise KeyError(f"unknown destination {dst}")
        self.metrics.record(type(message).__name__, _default_size(message))
        condemn = getattr(self.faults, "condemn", None)
        if condemn is not None and condemn(src, dst):
            return
        delay = self.delay_model.delay(src, dst, self.rng)
        receiver = self.parties[dst]
        self.simulator.schedule(
            delay, lambda m=message, s=src, r=receiver: self._deliver(s, r, m)
        )

    def _deliver(self, src: int, receiver: "Party", message) -> None:
        """Fault check at the delivery point, then dispatch.

        Delivery re-checks the terminal faults (a crash or partition
        injected *after* the send still stops an in-flight message) and
        applies the re-timing faults: link delay, weather jitter, and
        duplication (extra copies are dispatched as distinct arrivals a
        few milliseconds apart), matching
        :meth:`repro.runtime.transport.Transport._deliver`.
        """
        if self.faults is not None:
            decision = self.faults.decide(src, receiver.pid)
            if not decision.deliver:
                return
            for copy in range(decision.duplicates):
                self.simulator.schedule(
                    decision.delay + 0.005 * (copy + 1),
                    lambda m=message, s=src, r=receiver: r.receive(m, s),
                )
            if decision.delay > 0:
                self.simulator.schedule(
                    decision.delay,
                    lambda m=message, s=src, r=receiver: r.receive(m, s),
                )
                return
        receiver.receive(message, src)

    def broadcast(self, src: int, message, *, include_self: bool = True) -> None:
        """Send ``message`` to every registered party."""
        for dst in self.party_ids:
            if dst == src and not include_self:
                continue
            self.send(src, dst, message)

    def run(self, **kwargs) -> None:
        """Convenience passthrough to the simulator."""
        self.simulator.run(**kwargs)
