"""Cluster orchestration: spin up ``n`` live nodes, run, measure.

The runtime analogue of :func:`repro.sim.runner.build_world`: build the
parties with a factory, wire them full-mesh over a chosen transport, run
the protocol to a stop condition, and collect :class:`RuntimeMetrics`
(message/byte counters like the sim's ``NetworkMetrics``, plus wall-clock
latency overall and per named phase).

Two entry styles:

* ``async with Cluster(...) as cluster`` for tests and applications that
  already live on an event loop;
* :func:`run_cluster` for synchronous callers (CLI, benchmarks): builds
  the loop, runs setup -> stop condition -> teardown, returns the cluster
  with its frozen metrics.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from ..sim.network import NetworkMetrics
from ..sim.process import Party
from .codec import CodecRegistry, default_registry
from .faults import FaultController
from .node import RuntimeNode
from .transport import InProcTransport, TcpTransport, Transport

__all__ = ["RuntimeMetrics", "Cluster", "run_cluster", "TRANSPORTS"]

#: transport name -> constructor, for CLI/config selection (``proc`` is
#: :class:`TcpTransport` again, one node per worker process, orchestrated
#: by :class:`repro.parallel.proc.ProcCluster`, not a :class:`Cluster`)
TRANSPORTS = {"inproc": InProcTransport, "tcp": TcpTransport}


@dataclass
class RuntimeMetrics(NetworkMetrics):
    """The sim's message/byte counters plus the live runtime's wall-clock."""

    elapsed_seconds: float = 0.0
    #: phase name -> seconds since cluster start when the phase was marked
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: failure-detector transitions (TCP mesh heartbeats; 0 where off)
    suspect_transitions: int = 0
    alive_transitions: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (CLI ``--json`` and benchmark rows)."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "by_type": dict(self.by_type),
            "bytes_by_type": dict(self.bytes_by_type),
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "suspect_transitions": self.suspect_transitions,
            "alive_transitions": self.alive_transitions,
        }


class Cluster:
    """``n`` parties hosted on one event loop over a live transport."""

    def __init__(
        self,
        party_factory: Callable[[int], Party],
        n: Optional[int] = None,
        *,
        transport: Union[str, Transport] = "inproc",
        registry: Optional[CodecRegistry] = None,
        faults: Optional[FaultController] = None,
        committee=None,
    ) -> None:
        # A committee (repro.api.committee.Committee) supplies the node
        # count when n is omitted and is kept for provenance; drivers
        # hosting virtual users may still size the cluster explicitly.
        if n is None:
            if committee is None:
                raise ValueError("cluster needs n or a committee")
            n = committee.n
        if n < 1:
            raise ValueError("cluster needs at least one node")
        self.n = n
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
        peer_ids = list(range(n))
        self.nodes = [
            RuntimeNode(party_factory(pid), self.transport, peer_ids)
            for pid in peer_ids
        ]
        self._started_at: Optional[float] = None
        #: when the final settle() first observed quiescence -- lets
        #: elapsed_seconds exclude the idle-confirmation window
        self._quiesced_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        await self.transport.start()
        for node in self.nodes:
            node.start()
        self._started_at = time.perf_counter()

    async def stop(self) -> None:
        if self._started_at is not None:
            end = (
                self._quiesced_at
                if self._quiesced_at is not None
                else time.perf_counter()
            )
            self.metrics.elapsed_seconds = end - self._started_at
        for node in self.nodes:
            await node.stop()
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

    def mark_phase(self, name: str) -> None:
        """Record wall-clock latency-to-now under ``name``."""
        if self._started_at is None:
            raise RuntimeError("cluster is not running")
        self.metrics.phase_seconds[name] = time.perf_counter() - self._started_at

    async def run_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float = 30.0,
        poll: float = 0.002,
        phase: Optional[str] = None,
    ) -> None:
        """Poll ``predicate`` until true; raise ``TimeoutError`` otherwise.

        With ``phase``, the satisfaction time is recorded in
        ``metrics.phase_seconds`` -- per-phase latency measurement.
        """
        self._quiesced_at = None
        deadline = time.perf_counter() + timeout
        while not predicate():
            self._raise_node_failures()
            if time.perf_counter() > deadline:
                backlog = {node.pid: node.inbox.qsize() for node in self.nodes}
                raise TimeoutError(
                    f"stop condition not reached within {timeout}s "
                    f"(inbox backlog per node: {backlog})"
                )
            await asyncio.sleep(poll)
        if phase is not None:
            self.mark_phase(phase)

    def _raise_node_failures(self) -> None:
        """Re-raise the first pump-task exception (codec or handler error)."""
        for node in self.nodes:
            if node.failure is not None:
                raise RuntimeError(
                    f"node {node.pid} failed while pumping messages"
                ) from node.failure
        if self.transport.failure is not None:
            raise RuntimeError(
                "transport failed at the delivery point"
            ) from self.transport.failure

    async def settle(self, *, idle_for: float = 0.02, timeout: float = 30.0) -> None:
        """Wait until the cluster has been quiescent for ``idle_for``
        seconds -- the runtime's approximation of the simulator running to
        quiescence.  Quiescent means every node's queues are drained AND
        the transport has no message in flight (socket buffers, injected
        delay timers)."""
        self._quiesced_at = None
        deadline = time.perf_counter() + timeout
        quiet_since: Optional[float] = None
        while True:
            self._raise_node_failures()
            now = time.perf_counter()
            if self.transport.quiescent and all(node.idle for node in self.nodes):
                if quiet_since is None:
                    quiet_since = now
                elif now - quiet_since >= idle_for:
                    self._quiesced_at = quiet_since
                    return
            else:
                quiet_since = None
            if now > deadline:
                raise TimeoutError(f"cluster did not settle within {timeout}s")
            await asyncio.sleep(idle_for / 4)


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

    async def _drive() -> Cluster:
        cluster = Cluster(
            party_factory,
            n,
            transport=transport,
            registry=registry,
            faults=faults,
            committee=committee,
        )
        # One deadline covers the stop condition AND the post-condition
        # drain, so the caller's timeout bounds total wall time.
        deadline = time.perf_counter() + timeout
        async with cluster:
            if setup is not None:
                setup(cluster)
            if stop_when is not None:
                await cluster.run_until(
                    lambda: stop_when(cluster), timeout=timeout, phase="stop_condition"
                )
            # Drain to quiescence even after an explicit stop condition:
            # stop_when can turn true while trailing messages are still
            # queued in outboxes, and cutting them off would make the
            # run's message/byte counts nondeterministic.
            remaining = max(deadline - time.perf_counter(), 0.05)
            await cluster.settle(timeout=remaining)
        return cluster

    return asyncio.run(_drive())
