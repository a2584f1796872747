"""Cluster orchestration: spin up ``n`` live nodes, run, measure.

The runtime analogue of :func:`repro.sim.runner.build_world`: build the
parties with a factory, wire them full-mesh over a chosen transport, run
the protocol to a stop condition, and collect :class:`RuntimeMetrics`
(message/byte counters like the sim's ``NetworkMetrics``, plus the run's
wall-clock).

Two entry styles:

* ``async with Cluster(...) as cluster`` for tests and applications that
  already live on an event loop (the ledger);
* :class:`LiveHost` for synchronous callers (the scenario harness's
  inproc/tcp backends, the epoch service; :func:`run_cluster` for one
  generation): builds the loop, runs setup -> stop condition -> drain
  -> teardown.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..sim.network import NetworkMetrics
from ..sim.process import Party
from .codec import CodecRegistry, default_registry
from .faults import FaultController
from .node import RuntimeNode
from .transport import InProcTransport, TcpTransport, Transport

__all__ = ["RuntimeMetrics", "Cluster", "LiveHost", "run_cluster", "TRANSPORTS"]

#: transport name -> constructor, for CLI/config selection (``proc`` is
#: :class:`TcpTransport` again, one node per worker process, orchestrated
#: by :class:`repro.parallel.proc.ProcCluster`, not a :class:`Cluster`)
TRANSPORTS = {"inproc": InProcTransport, "tcp": TcpTransport}


@dataclass
class RuntimeMetrics(NetworkMetrics):
    """The sim's message/byte counters plus the live runtime's wall-clock."""

    elapsed_seconds: float = 0.0
    #: failure-detector transitions (TCP mesh heartbeats; 0 where off)
    suspect_transitions: int = 0
    alive_transitions: int = 0


class Cluster:
    """Parties hosted on one event loop over a live transport: one group
    for a batch run (``Cluster(factory, n)``), or successive groups
    (:meth:`spawn` / :meth:`retire` on a ``Cluster()``, e.g. the epoch
    service's generations) under one metrics stream and failure check."""

    def __init__(
        self,
        party_factory: Optional[Callable[[int], Party]] = None,
        n: Optional[int] = None,
        *,
        transport: Union[str, Transport] = "inproc",
        registry: Optional[CodecRegistry] = None,
        faults: Optional[FaultController] = None,
        committee=None,
    ) -> None:
        self.committee = committee
        self.registry = registry or default_registry()
        self.faults = faults or FaultController()
        self.metrics = RuntimeMetrics()
        if isinstance(transport, str):
            if transport == "proc":
                raise ValueError(
                    "transport 'proc' is process-per-party and cannot be "
                    "hosted on one event loop; run it via "
                    "run_scenario(backend='proc') or repro.parallel.ProcCluster"
                )
            try:
                ctor = TRANSPORTS[transport]
            except KeyError:
                raise ValueError(
                    f"unknown transport {transport!r}; choose from {sorted(TRANSPORTS)}"
                ) from None
            transport = ctor(
                self.registry, faults=self.faults, record=self.metrics.record
            )
        self.transport = transport
        self.nodes: list[RuntimeNode] = []
        #: sender tasks of retired nodes, cancelled but not yet gathered
        self._retired_tasks: list[asyncio.Task] = []
        self._started_at: Optional[float] = None
        #: what run_until sleeps on between two polls
        self._nap: Optional[asyncio.Future] = None
        if party_factory is not None:
            # A committee (repro.api.committee.Committee) sizes the cluster
            # when n is omitted; drivers hosting virtual users pass n.
            if n is None:
                if committee is None:
                    raise ValueError("cluster needs n or a committee")
                n = committee.n
            if n < 1:
                raise ValueError("cluster needs at least one node")
            self.spawn(party_factory, n)

    @property
    def n(self) -> int:
        return len(self.nodes)

    # -- lifecycle ----------------------------------------------------------------
    def spawn(self, party_factory: Callable[[int], Party], n: int) -> list[RuntimeNode]:
        """Host parties ``0 .. n-1`` as one group (pids a previous group's
        :meth:`retire` freed may be taken again).  Mid-run the transport
        wires the new pids on the spot and the nodes send at once."""
        peer_ids = list(range(n))
        nodes = [
            RuntimeNode(party_factory(pid), self.transport, peer_ids)
            for pid in peer_ids
        ]
        if self._started_at is not None:
            for node in nodes:
                node.start()
        self.nodes.extend(nodes)
        return nodes

    def retire(self, nodes: list[RuntimeNode]) -> None:
        """Take a group off the host, as if its nodes had crashed, and free
        its pids.  Synchronous (callable from a handler): the sender tasks
        are cancelled here and gathered by :meth:`stop`."""
        for node in nodes:
            node.party.crash()
            self._retired_tasks.extend(node.detach())
            self.transport.unbind(node.pid)
            self.nodes.remove(node)

    async def start(self) -> None:
        await self.transport.start()
        for node in self.nodes:
            node.start()
        self._started_at = time.perf_counter()

    async def stop(self) -> None:
        if self._started_at is not None:
            self.metrics.elapsed_seconds = time.perf_counter() - self._started_at
        for node in self.nodes:
            await node.stop()
        await asyncio.gather(*self._retired_tasks, return_exceptions=True)
        await self.transport.stop()

    async def __aenter__(self) -> "Cluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- access -------------------------------------------------------------------
    def party(self, pid: int) -> Party:
        return self.nodes[pid].party

    @property
    def parties(self) -> list[Party]:
        return [node.party for node in self.nodes]

    def total_counter(self, name: str) -> int:
        """Sum a named computation counter over all parties (sim parity)."""
        return sum(p.counters.get(name, 0) for p in self.parties)

    # -- control ------------------------------------------------------------------
    def crash_node(self, pid: int) -> None:
        """Full crash: the party stops reacting AND its traffic is dropped."""
        self.party(pid).crash()
        self.faults.crash(pid)

    def restart_node(self, pid: int) -> None:
        """Crash-restart rejoin: traffic flows again first, then the
        party recovers (recoverable parties replay their WAL and
        broadcast a state-sync request from inside ``restart``)."""
        self.faults.restart(pid)
        self.party(pid).restart()

    async def run_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float = 30.0,
        poll: float = 0.002,
    ) -> None:
        """Poll ``predicate`` until true; raise ``TimeoutError`` otherwise.

        Each poll that finds it false re-raises a node failure first;
        :meth:`wake` cuts the sleep between two polls short.
        """
        loop = asyncio.get_running_loop()
        deadline = time.perf_counter() + timeout
        while not predicate():
            self._raise_node_failures()
            if time.perf_counter() > deadline:
                outboxes = {node.pid: len(node.outbox) for node in self.nodes}
                raise TimeoutError(
                    f"stop condition not reached within {timeout}s "
                    f"(outbox depth per node: {outboxes}, "
                    f"transport in flight: {self.transport.in_flight})"
                )
            # asyncio.sleep(poll), except that wake() cuts it short
            self._nap = loop.create_future()
            alarm = loop.call_later(poll, self.wake)
            await self._nap
            alarm.cancel()

    def wake(self) -> None:
        """Have a sleeping :meth:`run_until` poll now (else a no-op);
        synchronous, callable from a handler."""
        if self._nap is not None and not self._nap.done():
            self._nap.set_result(None)

    def _raise_node_failures(self) -> None:
        """Re-raise the first node failure (codec or handler error)."""
        for node in self.nodes:
            if node.failure is not None:
                raise RuntimeError(
                    f"node {node.pid} failed while pumping messages"
                ) from node.failure
        if self.transport.failure is not None:
            raise RuntimeError(
                "transport failed at the delivery point"
            ) from self.transport.failure

    @property
    def quiescent(self) -> bool:
        """Every node's outbox is drained AND the transport has no message
        in flight (its queues, socket buffers, injected delay timers)."""
        return self.transport.quiescent and all(node.idle for node in self.nodes)

    async def settle(self, *, timeout: float = 30.0) -> None:
        """Wait until the cluster is :attr:`quiescent` -- the runtime's
        simulator-run-to-quiescence -- and re-raise a node failure.

        The first quiescent poll is final: one loop hosts every node, and
        a frame holds its in-flight slot until its handler has returned,
        after queuing whatever that handler sent on its node's outbox, so
        nothing but a caller can make a quiescent cluster busy again.
        """
        await self.run_until(lambda: self.quiescent, timeout=timeout)
        self._raise_node_failures()


class LiveHost:
    """One run's generations of parties on one :class:`Cluster`, on a
    wall clock that starts with the run: the live twin of
    :class:`repro.sim.runner.SimHost`, with the same surface."""

    def __init__(self, cluster: Optional[Cluster] = None) -> None:
        self.cluster = cluster if cluster is not None else Cluster()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0

    @property
    def metrics(self) -> RuntimeMetrics:
        return self.cluster.metrics

    @property
    def quiescent(self) -> bool:
        return self.cluster.quiescent

    def now(self) -> float:
        assert self._loop is not None, "host is not running"
        return self._loop.time() - self._t0

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        assert self._loop is not None, "host is not running"
        self._loop.call_later(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int, *, seed=None) -> list[Party]:
        # a live link draws no delays, so it takes no network seed
        return [node.party for node in self.cluster.spawn(factory, n)]

    def retire(self, parties: list[Party]) -> None:
        doomed = {id(party) for party in parties}
        self.cluster.retire(
            [node for node in self.cluster.nodes if id(node.party) in doomed]
        )

    def wake(self) -> None:
        self.cluster.wake()

    def run(
        self,
        setup: Callable[[], None],
        stop_when: Callable[[], bool],
        *,
        timeout: float = 30.0,
        poll: float = 0.002,
        drain: bool = True,
    ) -> None:
        """Start, ``setup()``, poll ``stop_when()`` (``Cluster.run_until``),
        settle to quiescence when ``drain``, stop; one ``timeout`` bounds
        the wait and the drain together."""
        asyncio.run(self._run(setup, stop_when, timeout, poll, drain))

    async def _run(self, setup, stop_when, timeout, poll, drain) -> None:
        self._loop = asyncio.get_running_loop()
        deadline = time.perf_counter() + timeout
        async with self.cluster:
            self._t0 = self._loop.time()
            setup()
            await self.cluster.run_until(stop_when, timeout=timeout, poll=poll)
            if drain:
                # stop_when can turn true while trailing messages are still
                # queued in outboxes; cutting them off would make the run's
                # message/byte counts nondeterministic.
                remaining = max(deadline - time.perf_counter(), 0.05)
                await self.cluster.settle(timeout=remaining)


def run_cluster(
    party_factory: Callable[[int], Party],
    n: Optional[int] = None,
    *,
    transport: Union[str, Transport] = "inproc",
    setup: Optional[Callable[[Cluster], None]] = None,
    stop_when: Optional[Callable[[Cluster], bool]] = None,
    registry: Optional[CodecRegistry] = None,
    faults: Optional[FaultController] = None,
    timeout: float = 30.0,
    committee=None,
) -> Cluster:
    """Synchronous convenience driver: start, setup, run, stop.

    ``setup(cluster)`` fires protocol entry points (proposals, broadcast
    initiations); ``stop_when(cluster)`` is the completion predicate
    (default: settle to quiescence).  Returns the stopped cluster, whose
    ``metrics`` then hold the run's counters and latency.
    """
    cluster = Cluster(
        party_factory,
        n,
        transport=transport,
        registry=registry,
        faults=faults,
        committee=committee,
    )
    LiveHost(cluster).run(
        (lambda: setup(cluster)) if setup is not None else (lambda: None),
        (lambda: stop_when(cluster)) if stop_when is not None else (lambda: True),
        timeout=timeout,
    )
    return cluster
