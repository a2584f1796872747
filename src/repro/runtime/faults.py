"""Transport-level fault injection for the live runtime.

Mirrors the roles of :mod:`repro.sim.adversary` in the discrete-event
world: crash a node, partition the cluster into groups, or add link
delay.  *Terminal* faults (crash, partition, weather loss) are decided at
the **send point** via :meth:`FaultController.condemn` -- a condemned
message is counted and never transmitted, so frame disposition under a
partition is identical on every backend instead of depending on what a
transport had buffered when the heal landed.  Delay/duplication faults
are decided at the delivery point via :meth:`FaultController.decide`,
which also re-checks the terminal conditions for messages that were
already in flight when a fault was injected.

Like the sim's :class:`~repro.sim.network.TargetedDelay`, delays model an
asynchronous adversary -- they slow links, never permanently drop
honest-to-honest traffic.  Partitions *do* drop traffic while active;
heal the partition to restore the asynchrony assumption before asserting
liveness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["DeliveryDecision", "FaultController"]

#: how many per-link outcomes the postmortem trace ring retains
TRACE_DEPTH = 64


@dataclass(frozen=True)
class DeliveryDecision:
    """What the transport should do with one message on link ``src -> dst``.

    ``duplicates`` asks the transport to deliver that many *extra* copies
    of the message (network-weather duplication); copies are spaced a few
    milliseconds apart so reordering-sensitive code actually sees them as
    distinct arrivals.
    """

    deliver: bool
    delay: float = 0.0
    duplicates: int = 0

    DELIVER = None  # type: DeliveryDecision  # populated below
    DROP = None  # type: DeliveryDecision


DeliveryDecision.DELIVER = DeliveryDecision(deliver=True)
DeliveryDecision.DROP = DeliveryDecision(deliver=False)


class FaultController:
    """Mutable fault plan shared by every link of a cluster.

    All mutators are safe to call while the cluster runs (single event
    loop; no locking needed).  Counters record what was actually injected
    so tests can assert the fault fired.
    """

    def __init__(self) -> None:
        self.crashed: set[int] = set()
        self.restarted: set[int] = set()
        self._groups: list[frozenset[int]] = []
        self._link_delay: dict[tuple[int, int], float] = {}
        self._global_delay: float = 0.0
        self.dropped_messages = 0
        self.delayed_messages = 0
        #: optional :class:`repro.chaos.weather.NetworkWeather` (duck-typed:
        #: anything with ``on_send``/``on_deliver``/``counters``); loss is
        #: charged to the weather's own counters, not ``dropped_messages``
        self.weather = None
        #: last-N per-link outcomes ``(src, dst, fate)`` for postmortems
        self.trace: deque = deque(maxlen=TRACE_DEPTH)

    # -- plan mutation ------------------------------------------------------------
    def crash(self, pid: int) -> None:
        """Silence ``pid``: all its inbound and outbound traffic is dropped."""
        self.crashed.add(pid)

    def restart(self, pid: int) -> None:
        """Un-crash ``pid`` (crash-restart fault): traffic flows again.

        The transport-level half of a restart; the party itself must
        separately recover its state (WAL replay + state sync).
        """
        self.crashed.discard(pid)
        self.restarted.add(pid)

    def partition(self, *groups: Iterable[int]) -> None:
        """Split the cluster: a message is delivered only if some group
        contains both endpoints.  Replaces any previous partition."""
        self._groups = [frozenset(g) for g in groups]

    def heal(self) -> None:
        """Remove the partition (crashes stay crashed)."""
        self._groups = []

    def delay_link(self, src: int, dst: int, seconds: float) -> None:
        """Add ``seconds`` of latency to one directed link."""
        self._link_delay[(src, dst)] = float(seconds)

    def delay_all(self, seconds: float) -> None:
        """Add baseline latency to every link (uniform-delay network)."""
        self._global_delay = float(seconds)

    @property
    def partitioned(self) -> bool:
        return bool(self._groups)

    def _severed(self, src: int, dst: int) -> bool:
        """True when the link is terminally cut (crash or partition)."""
        if src in self.crashed or dst in self.crashed:
            return True
        return bool(
            self._groups and not any(src in g and dst in g for g in self._groups)
        )

    # -- the transport-facing queries -----------------------------------------------
    def condemn(self, src: int, dst: int) -> bool:
        """Send-point check: True when the message must not be transmitted.

        Terminal faults (crash, partition, weather loss) fire *here*, so a
        message to a partitioned peer is deterministically dropped and
        counted where it is sent -- the same disposition on the sim, the
        in-process queues, and the retrying proc transport, none of which
        can then differ on what they had buffered at heal time.

        With nothing crashed and no partition the terminal check is one
        branch; the ``"sent"`` entry is traced all the same.
        """
        if (self.crashed or self._groups) and self._severed(src, dst):
            self.dropped_messages += 1
            self.trace.append((src, dst, "condemned"))
            return True
        if self.weather is not None and self.weather.on_send(src, dst):
            self.trace.append((src, dst, "lost"))
            return True
        self.trace.append((src, dst, "sent"))
        return False

    def decide(self, src: int, dst: int) -> DeliveryDecision:
        """Delivery-point fate of one in-flight message on ``src -> dst``.

        Re-checks the terminal conditions (a fault injected after the
        send still stops the message) and adds the re-timing faults:
        configured link delay plus weather duplication/reorder/jitter.
        An unarmed controller answers the shared ``DELIVER`` in one
        branch per kind of fault.
        """
        if (self.crashed or self._groups) and self._severed(src, dst):
            self.dropped_messages += 1
            self.trace.append((src, dst, "dropped"))
            return DeliveryDecision.DROP
        if not (self._global_delay or self._link_delay or self.weather is not None):
            return DeliveryDecision.DELIVER
        delay = self._global_delay + self._link_delay.get((src, dst), 0.0)
        duplicates = 0
        if self.weather is not None:
            wd = self.weather.on_deliver(src, dst)
            delay += wd.delay
            duplicates = wd.duplicates
        if delay > 0:
            self.delayed_messages += 1
            return DeliveryDecision(deliver=True, delay=delay, duplicates=duplicates)
        if duplicates:
            return DeliveryDecision(deliver=True, duplicates=duplicates)
        return DeliveryDecision.DELIVER
