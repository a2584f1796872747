"""Execution harness: wire parties to a network, run, collect metrics."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .events import Simulator
from .network import DelayModel, Network, NetworkMetrics, UniformDelay
from .process import Party

__all__ = ["World", "build_world"]


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
) -> World:
    """Create ``n`` parties via ``party_factory(pid)`` on a fresh network.

    ``faults`` is an optional fault plan consulted at the delivery point
    (see :class:`repro.sim.network.Network`); the scenario harness passes
    the same :class:`~repro.runtime.faults.FaultController` it would hand
    to a live cluster.  ``committee`` (a
    :class:`repro.api.committee.Committee`) supplies the party count when
    ``n`` is omitted and is kept on the world for provenance.  Worlds
    built on one ``simulator`` share its clock and nothing else: successive
    party groups of one run (the epoch service's committee generations).
    """
    if n is None:
        if committee is None:
            raise ValueError("build_world needs n or a committee")
        n = committee.n
    simulator = simulator or Simulator()
    network = Network(simulator, delay_model or UniformDelay(), seed=seed, faults=faults)
    parties = []
    for pid in range(n):
        party = party_factory(pid)
        network.register(party)
        parties.append(party)
    return World(
        simulator=simulator, network=network, parties=parties, committee=committee
    )
