"""Simulated asynchronous message-passing network with metrics.

Messages between honest parties are delivered after finite delays drawn
from a :class:`DelayModel`; the adversarial variant can stretch delays to
and from targeted parties (but never drop honest-to-honest traffic --
that would violate asynchrony rather than model it).  The network counts
messages and bytes per type, which is how the benchmark harness measures
the communication-overhead columns of the paper's Table 1.  A message's
bytes are its length under the runtime codec
(:func:`repro.runtime.codec.default_registry`), the unit the live
transports meter, so the wire format lives in that one module and a sim
run's byte counts equal a live run's.  A message type the codec has not
registered raises :class:`~repro.runtime.codec.CodecError` at the send,
as it does on a live transport.

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
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

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
    by_type: dict[str, int] = field(default_factory=partial(defaultdict, int))
    bytes_by_type: dict[str, int] = field(default_factory=partial(defaultdict, int))

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


class Network:
    """The message fabric connecting :class:`~repro.sim.process.Party` objects."""

    def __init__(
        self,
        simulator: Simulator,
        delay_model: Optional[DelayModel] = None,
        *,
        seed: int = 0,
        faults=None,
        metrics: Optional[NetworkMetrics] = None,
    ) -> None:
        self.simulator = simulator
        self.delay_model = delay_model or UniformDelay()
        self.rng = random.Random(seed)
        self.parties: dict[int, "Party"] = {}
        #: message counters (shared by every generation of a SimHost)
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        # imported here: the runtime package imports this module
        from ..runtime.codec import default_registry

        #: the codec that sizes every message (register a test's own
        #: message types on it)
        self.registry = default_registry()
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
        self._post(src, (dst,), message)

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
            schedule = self.simulator.schedule
            for copy in range(decision.duplicates):
                schedule(
                    decision.delay + 0.005 * (copy + 1), receiver.receive, message, src
                )
            if decision.delay > 0:
                schedule(decision.delay, receiver.receive, message, src)
                return
        receiver.receive(message, src)

    def broadcast(self, src: int, message, *, include_self: bool = True) -> None:
        """Send ``message`` to every registered party."""
        dsts = self.party_ids
        if not include_self:
            dsts = [dst for dst in dsts if dst != src]
        self._post(src, dsts, message)

    def _post(self, src: int, dsts: Iterable[int], message) -> None:
        """Size ``message`` once with the codec (an unregistered type
        raises here, before anything is counted), then count and schedule
        one copy per destination, in order."""
        size = self.registry.encoded_size(message)
        type_name = type(message).__name__
        record = self.metrics.record
        condemn = getattr(self.faults, "condemn", None)
        schedule, deliver = self.simulator.schedule, self._deliver
        delay, rng, parties = self.delay_model.delay, self.rng, self.parties
        for dst in dsts:
            record(type_name, size)
            if condemn is not None and condemn(src, dst):
                continue
            schedule(delay(src, dst, rng), deliver, src, parties[dst], message)
