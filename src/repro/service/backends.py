"""Execution backends for the epoch service.

The service's logic is entirely synchronous and event-driven -- it only
ever asks its backend for the current scenario time, for a timer, and to
spawn or retire a *group* of protocol parties.  That narrow surface is
what lets one :class:`~repro.service.service.EpochService` run unchanged
on the deterministic discrete-event simulator (virtual time, reproducible
percentiles) and on the live asyncio runtime (wall time, real queues).

Rotation support is the new requirement compared to the scenario
harness's one-shot runs: a backend must host *successive* party groups
over one clock and one metrics stream.  Hosting itself is not done here:
the sim backend builds one :func:`~repro.sim.runner.build_world` per
group on a shared :class:`~repro.sim.events.Simulator`, the in-process
backend spawns and retires groups on one
:class:`~repro.runtime.cluster.Cluster`.  What a backend adds is a clock.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Optional

from ..runtime.cluster import Cluster
from ..runtime.codec import CodecRegistry
from ..sim.events import Simulator
from ..sim.network import NetworkMetrics, UniformDelay
from ..sim.process import Party
from ..sim.runner import World, build_world

__all__ = ["ServiceBackend", "SimServiceBackend", "InprocServiceBackend"]


@dataclass
class PartyGroup:
    """One spawned generation of parties (an SMR committee, a checkpoint
    validator set); retired as a unit at rotation."""

    parties: list[Party]
    #: backend-private attachment (sim: the World; inproc: the nodes)
    handle: object = None


class ServiceBackend:
    """What the service sees of its execution environment.

    Everything is synchronous: the service runs inside backend callbacks
    (timers and message deliveries), never on its own task.
    """

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
    """Deterministic discrete-event backend: one simulator, one world
    per spawned group, everything a pure function of the seed."""

    def __init__(
        self, *, seed: int = 0, delay_low: float = 0.01, delay_high: float = 0.1
    ) -> None:
        self.simulator = Simulator()
        self.seed = seed
        self.delay_model = UniformDelay(delay_low, delay_high)
        self.worlds: list[World] = []

    def now(self) -> float:
        return self.simulator.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.simulator.schedule(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int) -> PartyGroup:
        # One world per generation (clean pid namespace, no crosstalk with
        # the previous committee's in-flight messages), one simulator clock.
        world = build_world(
            factory,
            n,
            delay_model=self.delay_model,
            seed=f"{self.seed}|net|{len(self.worlds)}",
            simulator=self.simulator,
        )
        self.worlds.append(world)
        return PartyGroup(parties=world.parties, handle=world)

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
        for world in self.worlds:
            totals.add(world.metrics)
        return totals


class InprocServiceBackend(ServiceBackend):
    """Live asyncio backend: every generation is a group on one
    :class:`~repro.runtime.cluster.Cluster`, node ids reused across rotations."""

    def __init__(self, *, registry: Optional[CodecRegistry] = None) -> None:
        self.cluster = Cluster(registry=registry)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0

    def now(self) -> float:
        assert self._loop is not None, "backend is not running"
        return self._loop.time() - self._t0

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        assert self._loop is not None, "backend is not running"
        self._loop.call_later(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int) -> PartyGroup:
        nodes = self.cluster.spawn(factory, n)
        return PartyGroup(parties=[node.party for node in nodes], handle=nodes)

    def retire(self, group: PartyGroup) -> None:
        self.cluster.retire(group.handle)

    def notify_done(self) -> None:
        self.cluster.wake()

    def run(self, service) -> None:
        asyncio.run(self._drive(service))

    async def _drive(self, service) -> None:
        self._loop = asyncio.get_running_loop()
        config = service.config
        async with self.cluster:
            self._t0 = self._loop.time()
            service.start()
            try:
                # notify_done wakes it; a node failure is seen within a tick
                await self.cluster.run_until(
                    lambda: service.finished,
                    timeout=config.max_time,
                    poll=config.slot_interval,
                )
            except TimeoutError:
                service.abort(
                    f"service did not finish within max_time={config.max_time}s"
                )
            except RuntimeError as exc:
                service.abort(f"{exc}: {exc.__cause__!r}")
                raise

    def message_totals(self) -> NetworkMetrics:
        return self.cluster.metrics
