"""The simulator's host: wire parties to a network, run, collect metrics.

:class:`SimHost` is the one sim host and has
:class:`repro.runtime.cluster.Cluster`'s surface: build parties with a
factory (``SimHost(factory, n)``), run ``setup`` to a stop condition
(:meth:`SimHost.run`), and read :meth:`~SimHost.party`,
:attr:`~SimHost.parties` and :attr:`~SimHost.metrics`.  A test written
once against ``host.run(setup, stop_when)`` runs on either host.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .events import Simulator
from .network import DelayModel, Network, NetworkMetrics, UniformDelay
from .process import Party

__all__ = ["SimHost"]


class SimHost:
    """Parties on one :class:`Simulator` clock, fault plan and message
    counter: one group for a batch run (``SimHost(factory, n)``), or
    successive generations (:meth:`spawn` / :meth:`retire` on a
    ``SimHost()``, e.g. the epoch service's).  Each generation gets a
    :class:`Network` of its own (a fresh pid namespace: a retired
    generation's in-flight messages never reach its successor), whose
    delays are drawn from ``seed`` unless :meth:`spawn` names another."""

    def __init__(
        self,
        party_factory: Optional[Callable[[int], Party]] = None,
        n: Optional[int] = None,
        *,
        seed=0,
        delay_model: Optional[DelayModel] = None,
        faults=None,
    ) -> None:
        self.simulator = Simulator()
        self.seed = seed
        self.delay_model = delay_model or UniformDelay()
        self.faults = faults
        self.metrics = NetworkMetrics()
        #: the hosted parties (spawned and not retired), by pid
        self._parties: dict[int, Party] = {}
        if party_factory is not None:
            if n is None or n < 1:
                raise ValueError("a sim host needs at least one party")
            self.spawn(party_factory, n)

    def now(self) -> float:
        return self.simulator.now

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.simulator.schedule(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int, *, seed=None) -> list[Party]:
        """Host parties ``0 .. n-1`` as one generation; returns them."""
        network = Network(
            self.simulator,
            self.delay_model,
            seed=self.seed if seed is None else seed,
            faults=self.faults,
            metrics=self.metrics,
        )
        group = []
        for pid in range(n):
            party = factory(pid)
            network.register(party)
            group.append(party)
        self._parties.update((party.pid, party) for party in group)
        return group

    def retire(self, parties: Sequence[Party]) -> None:
        for party in parties:
            party.crash()  # in-flight deliveries become no-ops
            if self._parties.get(party.pid) is party:
                del self._parties[party.pid]

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

    # -- access -------------------------------------------------------------------
    def party(self, pid: int) -> Party:
        return self._parties[pid]

    def hosts(self, pid: int) -> bool:
        return pid in self._parties

    @property
    def parties(self) -> list[Party]:
        return list(self._parties.values())
