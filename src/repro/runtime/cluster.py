"""Cluster orchestration: host live parties on one event loop, run, measure.

The runtime analogue of :class:`repro.sim.runner.SimHost`: build the
parties with a factory, wire them full-mesh over a chosen transport, run
to a stop condition, and collect :class:`RuntimeMetrics` (message/byte
counters like the sim's ``NetworkMetrics``, plus the run's wall-clock).

:class:`Cluster` is the one live host.  A scenario on ``inproc`` or
``tcp``, the epoch service's committee generations, a ``proc`` worker's
one node and the ledger's workloads all run on one.  Two entry styles:

* ``async with Cluster(...) as cluster`` for code that already lives on
  an event loop (the ledger, a proc worker);
* :meth:`Cluster.run` for synchronous callers (the scenario harness, the
  epoch service, tests): builds the loop and runs setup -> stop
  condition -> drain -> teardown.

Both hosts share one surface (``party``, ``parties``, ``hosts``,
``spawn``, ``retire``, ``run``, ``metrics``, ``faults``, ``now``,
``call_later``, ``wake``, ``quiescent``), so a test written once against ``host.run(setup,
stop_when)`` runs on either.
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

__all__ = ["RuntimeMetrics", "Cluster", "TRANSPORTS"]

#: transport name -> constructor, for CLI/config selection (``proc`` is
#: :class:`TcpTransport` again, one :class:`Cluster` hosting one node per
#: worker process, orchestrated by :class:`repro.parallel.proc.ProcCluster`)
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
    service's generations) under one clock, metrics stream and failure
    check.  A proc worker's cluster hosts only its own ``node_id`` of
    each group; its peers are other processes on the TCP mesh."""

    def __init__(
        self,
        party_factory: Optional[Callable[[int], Party]] = None,
        n: Optional[int] = None,
        *,
        transport: Union[str, Transport] = "inproc",
        registry: Optional[CodecRegistry] = None,
        faults: Optional[FaultController] = None,
        node_id: Optional[int] = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.faults = faults or FaultController()
        self.metrics = RuntimeMetrics()
        self.node_id = node_id
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
        #: the hosted nodes (spawned and not retired), by pid
        self._nodes: dict[int, RuntimeNode] = {}
        #: sender tasks of retired nodes, cancelled but not yet gathered
        self._retired_tasks: list[asyncio.Task] = []
        #: the loop :meth:`start` ran on, and its time then: the zero of
        #: :meth:`now` (which still reads after the run, e.g. a late abort)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: Optional[float] = None
        #: what run_until sleeps on between two polls
        self._nap: Optional[asyncio.Future] = None
        #: the first exception a :meth:`call_later` callback raised
        self._callback_failure: Optional[Exception] = None
        if party_factory is not None:
            if n is None or n < 1:
                raise ValueError("cluster needs at least one node")
            self.spawn(party_factory, n)

    # -- the host surface (both hosts') ------------------------------------------
    def now(self) -> float:
        """Seconds since :meth:`start`, on the event loop's clock."""
        return self._loop.time() - self._t0

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` seconds.  The first exception a
        callback raises is kept, and the next poll re-raises it
        (:meth:`run_until`, :attr:`failure`): asyncio would only log it,
        and a run would wait out its timeout instead."""

        def guarded() -> None:
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 -- re-raised by the next poll
                if self._callback_failure is None:
                    self._callback_failure = exc
                self.wake()

        asyncio.get_running_loop().call_later(max(delay, 0.0), guarded)

    def spawn(
        self, party_factory: Callable[[int], Party], n: int, *, seed=None
    ) -> list[Party]:
        """Host parties ``0 .. n-1`` (only ``node_id``'s, when set) as one
        group and return them; pids a previous group's :meth:`retire`
        freed may be taken again.  Mid-run the transport wires the new
        pids on the spot and the nodes send at once.  A live link draws
        no delays, so there is no network ``seed`` to take."""
        peer_ids = list(range(n))
        hosted = peer_ids if self.node_id is None else [self.node_id]
        nodes = [
            RuntimeNode(party_factory(pid), self.transport, peer_ids) for pid in hosted
        ]
        if self._t0 is not None:
            for node in nodes:
                node.start()
        self._nodes.update((node.pid, node) for node in nodes)
        return [node.party for node in nodes]

    def retire(self, parties: list[Party]) -> None:
        """Take a group off the host, as if its parties had crashed, and
        free their pids.  Synchronous (callable from a handler): the
        sender tasks are cancelled here and gathered by :meth:`stop`."""
        for party in parties:
            node = party.network  # a hosted party's network is its node
            party.crash()
            self._retired_tasks.extend(node.detach())
            self.transport.unbind(node.pid)
            del self._nodes[node.pid]

    def wake(self) -> None:
        """Have a sleeping :meth:`run_until` poll now (else a no-op);
        synchronous, callable from a handler."""
        if self._nap is not None and not self._nap.done():
            self._nap.set_result(None)

    def run(
        self,
        setup: Callable[[], None],
        stop_when: Callable[[], bool],
        *,
        timeout: float = 30.0,
        poll: float = 0.002,
        drain: bool = True,
    ) -> None:
        """Start, ``setup()``, poll ``stop_when()`` (:meth:`run_until`),
        :meth:`settle` when ``drain``, stop; one ``timeout`` bounds the
        wait and the drain together."""
        asyncio.run(self._run(setup, stop_when, timeout, poll, drain))

    async def _run(self, setup, stop_when, timeout, poll, drain) -> None:
        deadline = time.perf_counter() + timeout
        async with self:
            setup()
            await self.run_until(stop_when, timeout=timeout, poll=poll)
            if drain:
                # stop_when can turn true while trailing messages are still
                # queued in outboxes; cutting them off would make the run's
                # message/byte counts nondeterministic.
                remaining = max(deadline - time.perf_counter(), 0.05)
                await self.settle(timeout=remaining)

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        await self.transport.start()
        for node in self._nodes.values():
            node.start()
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()

    async def stop(self) -> None:
        if self._t0 is not None:
            self.metrics.elapsed_seconds = self.now()
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
    @property
    def nodes(self) -> list[RuntimeNode]:
        return list(self._nodes.values())

    def party(self, pid: int) -> Party:
        return self._nodes[pid].party

    def hosts(self, pid: int) -> bool:
        """Whether ``pid``'s party is hosted here (on a proc worker's
        cluster, only its own ``node_id``)."""
        return pid in self._nodes

    @property
    def parties(self) -> list[Party]:
        return [node.party for node in self._nodes.values()]

    # -- control ------------------------------------------------------------------
    def crash_node(self, pid: int) -> None:
        """Full crash: the party stops reacting AND its traffic is dropped."""
        self.party(pid).crash()
        self.faults.crash(pid)

    async def run_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float = 30.0,
        poll: float = 0.002,
    ) -> None:
        """Poll ``predicate`` until true; raise ``TimeoutError`` otherwise.

        Each poll that finds it false re-raises a :attr:`failure` first;
        :meth:`wake` cuts the sleep between two polls short.
        """
        loop = asyncio.get_running_loop()
        deadline = time.perf_counter() + timeout
        while not predicate():
            self._raise_failure()
            if time.perf_counter() > deadline:
                outboxes = {node.pid: len(node.outbox) for node in self._nodes.values()}
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

    @property
    def failure(self) -> Optional[BaseException]:
        """What the next poll raises, or ``None``: a scheduled callback's
        exception itself, else the first node failure (codec or handler
        error) or the transport's at its delivery point, as a
        ``RuntimeError`` chained to it."""
        if self._callback_failure is not None:
            return self._callback_failure
        for node in self._nodes.values():
            if node.failure is not None:
                return _chained(
                    f"node {node.pid} failed while pumping messages", node.failure
                )
        if self.transport.failure is not None:
            return _chained(
                "transport failed at the delivery point", self.transport.failure
            )
        return None

    def _raise_failure(self) -> None:
        failure = self.failure
        if failure is not None:
            raise failure

    @property
    def quiescent(self) -> bool:
        """Every node's outbox is drained AND the transport has no message
        in flight (its queues, socket buffers, injected delay timers)."""
        return self.transport.quiescent and all(node.idle for node in self._nodes.values())

    async def settle(self, *, timeout: float = 30.0) -> None:
        """Wait until the cluster is :attr:`quiescent` -- the runtime's
        simulator-run-to-quiescence -- and re-raise a :attr:`failure`.

        The first quiescent poll is final: one loop hosts every node, and
        a frame holds its in-flight slot until its handler has returned,
        after queuing whatever that handler sent on its node's outbox, so
        nothing but a caller can make a quiescent cluster busy again.
        """
        await self.run_until(lambda: self.quiescent, timeout=timeout)
        self._raise_failure()


def _chained(message: str, cause: BaseException) -> RuntimeError:
    """``RuntimeError(message)``, raised later as if ``from cause``."""
    error = RuntimeError(message)
    error.__cause__ = cause
    return error
