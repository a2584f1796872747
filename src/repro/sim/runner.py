"""Execution harness: wire parties to a network, run, collect metrics."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .events import Simulator
from .network import DelayModel, Network, NetworkMetrics, UniformDelay
from .process import Party

__all__ = ["World", "build_world", "SimHost"]


@dataclass
class World:
    """A simulator + network + parties bundle.

    ``committee`` records the weighted party set the world was built for
    (a :class:`repro.api.committee.Committee`), when the caller provided
    one -- provenance for records and a size default for ``build_world``.
    Note the VABA driver hosts *virtual users*, so ``len(parties)`` may
    exceed ``committee.n``.
    """

    simulator: Simulator
    network: Network
    parties: list[Party]
    committee: Optional[object] = None

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the simulation to quiescence or a stop condition."""
        self.simulator.run(until=until, max_events=max_events, stop_when=stop_when)

    @property
    def metrics(self) -> NetworkMetrics:
        return self.network.metrics

    def party(self, pid: int) -> Party:
        return self.network.parties[pid]

    def total_counter(self, name: str) -> int:
        """Sum a named computation counter over all parties."""
        return sum(p.counters.get(name, 0) for p in self.parties)


def build_world(
    party_factory: Callable[[int], Party],
    n: Optional[int] = None,
    *,
    delay_model: Optional[DelayModel] = None,
    seed: int = 0,
    faults=None,
    committee=None,
    simulator: Optional[Simulator] = None,
    metrics: Optional[NetworkMetrics] = None,
) -> World:
    """Create ``n`` parties via ``party_factory(pid)`` on a fresh network.

    ``faults`` is an optional fault plan consulted at the delivery point
    (see :class:`repro.sim.network.Network`); the scenario harness passes
    the same :class:`~repro.runtime.faults.FaultController` it would hand
    to a live cluster.  ``committee`` (a
    :class:`repro.api.committee.Committee`) supplies the party count when
    ``n`` is omitted and is kept on the world for provenance.  Worlds
    built on one ``simulator`` share its clock and, given one ``metrics``,
    their message counters: the generations of a :class:`SimHost`.
    """
    if n is None:
        if committee is None:
            raise ValueError("build_world needs n or a committee")
        n = committee.n
    simulator = simulator or Simulator()
    network = Network(
        simulator, delay_model or UniformDelay(), seed=seed, faults=faults, metrics=metrics
    )
    parties = []
    for pid in range(n):
        party = party_factory(pid)
        network.register(party)
        parties.append(party)
    return World(
        simulator=simulator, network=network, parties=parties, committee=committee
    )


class SimHost:
    """One run's generations of parties on one :class:`Simulator` clock,
    fault plan and message counter.  Each generation is a :class:`World`
    of its own (fresh network and pid namespace: a retired generation's
    in-flight messages never reach its successor), whose network draws
    its delays from ``seed`` unless :meth:`spawn` names another."""

    def __init__(self, seed=0, *, delay_model: Optional[DelayModel] = None, faults=None):
        self.simulator = Simulator()
        self.seed = seed
        self.delay_model = delay_model or UniformDelay()
        self.faults = faults
        self.metrics = NetworkMetrics()
        self.worlds: list[World] = []

    def now(self) -> float:
        return self.simulator.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.simulator.schedule(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int, *, seed=None) -> list[Party]:
        """Host parties ``0 .. n-1`` as one generation; returns them."""
        world = build_world(
            factory,
            n,
            delay_model=self.delay_model,
            seed=self.seed if seed is None else seed,
            faults=self.faults,
            simulator=self.simulator,
            metrics=self.metrics,
        )
        self.worlds.append(world)
        return world.parties

    def retire(self, parties: Sequence[Party]) -> None:
        for party in parties:
            party.crash()  # in-flight deliveries become no-ops

    def wake(self) -> None:
        """Nothing to wake: :meth:`run` polls before every event."""

    @property
    def quiescent(self) -> bool:
        return not self.simulator.pending

    def run(self, setup, stop_when, *, timeout=None, poll=None, drain=True) -> None:
        """``setup()``, then simulate to quiescence when ``drain`` (how the
        simulator meets a stop rule), else until ``stop_when()``; virtual
        time has no ``timeout`` or ``poll``."""
        setup()
        self.simulator.run(stop_when=None if drain else stop_when)
