"""Execution backends for the epoch service.

The service's logic is entirely synchronous and event-driven -- it only
ever asks its backend for the current scenario time, for a timer, and to
spawn or retire a *group* of protocol parties.  That narrow surface is
what lets one :class:`~repro.service.service.EpochService` run unchanged
on the deterministic discrete-event simulator (virtual time, reproducible
percentiles) and on the live asyncio runtime (wall time, real queues).

Rotation support is the new requirement compared to the scenario
harness's one-shot runs: a backend must host *successive* party groups
over one clock and one metrics stream.  The sim backend does it with one
:class:`~repro.sim.events.Simulator` shared by per-group
:class:`~repro.sim.network.Network` fabrics; the in-process backend does
it with mid-run :meth:`~repro.runtime.transport.Transport.bind` /
``unbind`` on a single :class:`InProcTransport`, so a retiring
committee's node ids can be handed to its successor.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..runtime.cluster import RuntimeMetrics
from ..runtime.codec import CodecRegistry, default_registry
from ..runtime.node import RuntimeNode
from ..runtime.transport import InProcTransport
from ..sim.events import Simulator
from ..sim.network import Network, NetworkMetrics, UniformDelay
from ..sim.process import Party

__all__ = ["ServiceBackend", "SimServiceBackend", "InprocServiceBackend"]


@dataclass
class PartyGroup:
    """One spawned generation of parties (an SMR committee, a checkpoint
    validator set); retired as a unit at rotation."""

    parties: list[Party]
    #: backend-private attachment (sim: the Network; inproc: the nodes)
    handle: object = None


class ServiceBackend:
    """What the service sees of its execution environment.

    Everything is synchronous: the service runs inside backend callbacks
    (timers and message deliveries), never on its own task.
    """

    name: str

    def now(self) -> float:
        """Scenario seconds since the run started."""
        raise NotImplementedError

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        raise NotImplementedError

    def spawn(self, factory: Callable[[int], Party], n: int) -> PartyGroup:
        """Build and attach parties ``0 .. n-1`` as a fresh group."""
        raise NotImplementedError

    def retire(self, group: PartyGroup) -> None:
        """Detach a group; its parties stop reacting and their ids free up."""
        raise NotImplementedError

    def notify_done(self) -> None:
        """The service finished (or failed); the backend may stop driving."""
        raise NotImplementedError

    def run(self, service) -> None:
        """Drive ``service`` from :meth:`EpochService.start` to finished."""
        raise NotImplementedError

    def message_totals(self) -> NetworkMetrics:
        """Message and byte counters summed across all groups."""
        raise NotImplementedError


class SimServiceBackend(ServiceBackend):
    """Deterministic discrete-event backend: one simulator, one network
    fabric per spawned group, everything a pure function of the seed."""

    name = "sim"

    def __init__(
        self, *, seed: int = 0, delay_low: float = 0.01, delay_high: float = 0.1
    ) -> None:
        self.simulator = Simulator()
        self.seed = seed
        self.delay_low = delay_low
        self.delay_high = delay_high
        self.networks: list[Network] = []
        self._spawns = 0

    def now(self) -> float:
        return self.simulator.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.simulator.schedule(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int) -> PartyGroup:
        # Each generation gets its own fabric (clean pid namespace, no
        # crosstalk with in-flight messages of the previous committee) but
        # shares the simulator, so the service's clock and the metrics
        # stream are continuous across rotations.
        network = Network(
            self.simulator,
            UniformDelay(self.delay_low, self.delay_high),
            seed=f"{self.seed}|net|{self._spawns}",
        )
        self._spawns += 1
        parties = [factory(pid) for pid in range(n)]
        for party in parties:
            network.register(party)
        self.networks.append(network)
        return PartyGroup(parties=parties, handle=network)

    def retire(self, group: PartyGroup) -> None:
        for party in group.parties:
            party.crash()  # in-flight deliveries become no-ops

    def notify_done(self) -> None:
        pass  # run() polls service.finished via stop_when

    def run(self, service) -> None:
        service.start()
        self.simulator.run(
            stop_when=lambda: service.finished,
            until=service.config.max_time,
        )
        if not service.finished:
            service.abort(
                f"service did not finish within max_time="
                f"{service.config.max_time}s of virtual time"
            )

    def message_totals(self) -> NetworkMetrics:
        totals = NetworkMetrics()
        for network in self.networks:
            totals.add(network.metrics)
        return totals

    @property
    def sim_time(self) -> float:
        return self.simulator.now

    @property
    def sim_events(self) -> int:
        return self.simulator.events_processed


class InprocServiceBackend(ServiceBackend):
    """Live asyncio backend: one in-process transport shared by every
    generation, node ids rebound across rotations."""

    name = "inproc"

    def __init__(self, *, registry: Optional[CodecRegistry] = None) -> None:
        self.metrics = RuntimeMetrics()
        self.registry = registry or default_registry()
        self.transport = InProcTransport(self.registry, record=self.metrics.record)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._done: Optional[asyncio.Event] = None
        self._live_groups: list[PartyGroup] = []
        self._retired_tasks: list[asyncio.Task] = []

    def now(self) -> float:
        assert self._loop is not None, "backend is not running"
        return self._loop.time() - self._t0

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        assert self._loop is not None, "backend is not running"
        self._loop.call_later(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int) -> PartyGroup:
        peer_ids = list(range(n))
        nodes = [
            RuntimeNode(factory(pid), self.transport, peer_ids) for pid in peer_ids
        ]
        for node in nodes:
            node.start()
        group = PartyGroup(parties=[node.party for node in nodes], handle=nodes)
        self._live_groups.append(group)
        return group

    def retire(self, group: PartyGroup) -> None:
        # Callable from inside a dispatch callback: detach() cancels the
        # pump tasks without awaiting (cancellation lands at their next
        # await), unbind frees the pid for the successor group.
        for node in group.handle:
            node.party.crash()
            self._retired_tasks.extend(node.detach())
            self.transport.unbind(node.pid)
        if group in self._live_groups:
            self._live_groups.remove(group)

    def notify_done(self) -> None:
        if self._done is not None:
            self._done.set()

    def run(self, service) -> None:
        asyncio.run(self._drive(service))

    async def _drive(self, service) -> None:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        await self.transport.start()
        self._t0 = self._loop.time()
        service.start()
        try:
            await asyncio.wait_for(
                self._done.wait(), timeout=service.config.max_time
            )
        except asyncio.TimeoutError:
            service.abort(
                f"service did not finish within max_time="
                f"{service.config.max_time}s"
            )
        finally:
            for group in list(self._live_groups):
                self.retire(group)
            if self._retired_tasks:
                await asyncio.gather(*self._retired_tasks, return_exceptions=True)
            self._retired_tasks.clear()
            await self.transport.stop()

    def message_totals(self) -> NetworkMetrics:
        return self.metrics
