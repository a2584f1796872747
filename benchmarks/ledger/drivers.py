"""The five workloads, driven on the live runtime.

Every driver has the same three steps.  ``setup()`` builds the system
from nothing to warmed up (committee, solve, keys, cluster start, a
warm-up op); the harness times it, once, in the fresh interpreter every
run is.  ``measure()`` runs ops for the given wall time and checks every
output.
``teardown()`` stops what ``setup()`` started.  All parties, the load
and the event loop share this one process and thread; no message delay
is injected, so a latency here is processor time plus, for the service,
its 50 ms slot tick.

Free functions that the traced run wraps (``solve_with_policy``,
``qualification_setup``, ``blunt_setup``) are called through their
modules, never imported by name: a name bound here would keep pointing
at the unwrapped original.
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import api, weighted
from repro.codes.reed_solomon import ReedSolomon
from repro.core import WeightQualification, WeightRestriction, WeightSeparation
from repro.crypto import group as crypto_group
from repro.crypto.common_coin import WeightedCoin
from repro.datasets import load_chain
from repro.protocols.avid import AvidParty
from repro.protocols.common_coin import BeaconParty, deterministic_coin
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster
from repro.service import (
    EpochManager,
    EpochService,
    InprocServiceBackend,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for
from repro.service.service import decode_batch

from . import workloads
from .report import percentile

__all__ = ["DRIVERS", "Block", "Measurement", "Workload"]

_PROBLEMS = {
    "wr": WeightRestriction("1/3", "1/2"),
    "wq": WeightQualification("1/3", "1/4"),
    "ws": WeightSeparation("1/3", "1/2"),
}


@dataclass
class Block:
    """A stretch of the measured window: the ops that completed in it,
    the wall and CPU time it took, and those ops' latencies."""

    ops: int
    wall_s: float
    cpu_s: float
    latencies: list[float]


@dataclass
class Measurement:
    """What one measured window produced: its ops and their latencies,
    and the same window cut into blocks.

    The window's wall and CPU time are the workload's
    (``Workload.window_wall_s`` / ``window_cpu_s``); whole-window figures
    hold every cost, also one that falls on a few ops only (a rotation,
    a collection), and move with every slow phase of this shared box.
    ``blocks`` is what the harness takes the ``quiet_*`` figures from: it
    maps a kind of work to its blocks, about a second of ops each (or
    one op, when an op takes longer).  Four workloads have one kind;
    ``solve-chains`` has one per distinct solve of its round, each
    repeat a block.
    """

    #: ops completed inside the window
    ops: int
    #: one latency per op, seconds
    latencies: list[float]
    blocks: dict[str, list[Block]]
    #: Swiper tickets of every assignment the workload solved
    tickets_total: int
    #: an open loop: ops per second are set by the arrivals, a block's
    #: count is the Poisson draw, so the rate is taken over the window
    arrival_driven: bool = False
    #: one line per output that was wrong; empty means correct
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    #: wire messages and serialized bytes per op (0 where nothing is sent)
    messages_per_op: float = 0.0
    bytes_per_op: float = 0.0
    #: ``ru_maxrss`` (KiB) at the workload's reference point, if it has one
    rss_kib: Optional[int] = None
    #: per-layer metrics only the driver can see: ``name -> (value, unit)``
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)


class Heartbeat:
    """A 10 ms timer owned by the benchmark; how late it fires is how long
    ready work waited for the event loop."""

    PERIOD = 0.01

    def __init__(self) -> None:
        self.lags: list[float] = []
        self._handle: Optional[asyncio.TimerHandle] = None

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._arm()

    def _arm(self) -> None:
        self._due = self._loop.time() + self.PERIOD
        self._handle = self._loop.call_at(self._due, self._fire)

    def _fire(self) -> None:
        self.lags.append(self._loop.time() - self._due)
        self._arm()

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "loop.lag_p50_s": (percentile(self.lags, 50), "s"),
            "loop.lag_p99_s": (percentile(self.lags, 99), "s"),
        }


class Workload:
    """Common plumbing: parameters, seed, the optional tracer, and an
    event loop that outlives single ``run_until_complete`` calls (a
    cluster started in ``setup()`` keeps its tasks for ``measure()``)."""

    name = ""

    def __init__(self, params, seed: int, tracer=None, probes=None) -> None:
        self.p = params
        self.seed = seed
        self.tracer = tracer
        self.probes = probes
        #: traced runs time a heartbeat on the event loop (if there is one)
        self.heartbeat = Heartbeat() if tracer is not None else None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: wall and process CPU seconds between begin_window() and end_window()
        self.window_wall_s = 0.0
        self.window_cpu_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.loop is not None:
            # What asyncio.run() does before closing its loop: a task left
            # suspended (a TCP read loop accepted while the mesh stopped)
            # would otherwise be finalized on a closed loop.
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self.loop.close()
            self.loop = None

    def run(self, coroutine):
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
        return self.loop.run_until_complete(coroutine)

    def begin_window(self) -> None:
        """Called on the event loop at the start of the measured window."""
        if self.tracer is not None:
            self.tracer.begin_window()
            self.probes.reset()
        if self.heartbeat is not None:
            self.heartbeat.start()
        self._t0, self._cpu0 = time.perf_counter(), time.process_time()

    def end_window(self) -> None:
        self.window_wall_s = time.perf_counter() - self._t0
        self.window_cpu_s = time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.end_window()
        if self.heartbeat is not None:
            self.heartbeat.stop()

    def trace_extras(self) -> dict[str, tuple[float, str]]:
        return self.heartbeat.metrics() if self.heartbeat is not None else {}

    async def closed_loop(self, seconds: float, op) -> tuple[list, list[Block]]:
        """The measured window of a closed loop with one op outstanding:
        ``await op()`` again and again until the time is up.  ``op``
        returns ``(result, latency)``; each pass of the loop is a block
        (the op and whatever it does after its latency has ended)."""
        self.begin_window()
        results, blocks = [], []
        t0 = time.perf_counter()
        while (started := time.perf_counter()) - t0 < seconds:
            cpu0 = time.process_time()
            if self.tracer is not None:
                self.tracer.op = len(results)
            result, latency = await op()
            results.append(result)
            blocks.append(Block(
                1, time.perf_counter() - started, time.process_time() - cpu0, [latency]
            ))
        self.end_window()
        return results, blocks


# -- svc-open ------------------------------------------------------------------------


class _Load(LoadGenerator):
    """The service's Poisson arrival process (seeded due times), with the
    benchmark's own payloads and its own scheduling.

    ``LoadGenerator.install`` arms one timer per request up front, each
    relative to the moment it is armed; arming 30 000 of them takes
    ~0.1 s, so later requests would be submitted that much after their
    due time.  This generator keeps one timer, set against the absolute
    due time of the next request, so its lag is the event loop's alone.
    It also starts the measured window on the service's clock.
    """

    def __init__(
        self, workload: "SvcOpen", rate, requests, pool, warm_s, block_s=1.0
    ) -> None:
        super().__init__(
            rate, requests, payload_size=len(pool[0]), seed=workload.seed
        )
        self.workload = workload
        self.pool = pool
        self.warm_s = warm_s
        self.block_s = block_s
        #: per request, how long after its due time it was submitted
        self.lateness: list[float] = []
        #: (service time, process CPU time) every block_s from warm_s on
        self.marks: list[tuple[float, float]] = []

    def payload(self, index: int) -> bytes:
        return self.pool[index % len(self.pool)]

    def install(self, service) -> None:
        backend = service.backend
        due = self.arrival_times

        def fire() -> None:
            now = backend.now()
            index = len(self.lateness)
            while index < self.total and due[index] <= now:
                self.lateness.append(now - due[index])
                # No backpressure is configured, so a refusal is a failure.
                if isinstance(service.submit(self.payload(index)), dict):
                    self.abandoned += 1
                index += 1
            if index < self.total:
                backend.call_later(due[index] - now, fire)

        backend.call_later(due[0], fire)
        if self.warm_s is not None:
            backend.call_later(self.warm_s, self.workload.begin_window)
            # the edges of the measured blocks
            for k in range(int((due[-1] - self.warm_s) / self.block_s) + 1):
                backend.call_later(
                    self.warm_s + k * self.block_s,
                    lambda: self.marks.append((backend.now(), time.process_time())),
                )


class SvcOpen(Workload):
    name = "svc-open"

    def setup(self) -> None:
        p = self.p
        self.committee = workloads.synthetic_committee(p)
        self.committee.validate(f_w="1/3", payload_size=p.payload_size)
        self.pool = workloads.payload_pool(self.seed, "svc", 1024, p.payload_size)
        # Warm-up: a short service run of its own (the service is one-shot).
        service, _ = self._service(p.setup_requests, warm_s=None)
        result = service.run()
        if not result.completed:
            raise RuntimeError(f"warm-up service run failed: {result.error}")

    def _service(
        self, requests: int, *, warm_s, rotate_at=(), block_s=1.0, on_committed=None
    ):
        p = self.p
        schedule = drift_schedule_for(self.committee.weights, epochs=p.rotations + 1)
        manager = EpochManager(replace(schedule, times=tuple(rotate_at)), f_w="1/3")
        config = ServiceConfig(max_time=150.0)
        load = _Load(self, p.rate, requests, self.pool, warm_s, block_s)
        service = EpochService(
            InprocServiceBackend(), manager, config,
            name="ledger", seed=self.seed, load=load, on_committed=on_committed,
        )
        return service, load

    def measure(self, seconds: float) -> Measurement:
        p = self.p
        total = max(int(p.rate * (p.warm_s + seconds)), 2)
        # The schedule's stake deltas are dated, evenly over the window: the
        # service rotates at those times, so a run makes p.rotations
        # rotations however many slots it cuts.  (A slot-count trigger made
        # the count, and with it tickets_total, depend on the host's speed:
        # three noisy runs in ten rotated once instead of twice.)
        rotate_at = [
            p.warm_s + seconds * k / (p.rotations + 1) for k in range(1, p.rotations + 1)
        ]
        commit_at: dict[int, float] = {}
        wrong_payloads = 0
        cut_at: dict[int, float] = {}
        done = False

        def on_committed(slot: int, position: int, payload: bytes) -> None:
            nonlocal wrong_payloads, done
            now = backend.now()
            for rid, body in decode_batch(payload):
                commit_at[rid] = now
                if body != self.pool[rid % len(self.pool)]:
                    wrong_payloads += 1
            if len(commit_at) == total and not done:
                done = True
                self.end_window()

        service, load = self._service(
            total, warm_s=p.warm_s, rotate_at=rotate_at,
            block_s=min(1.0, seconds / 2), on_committed=on_committed,
        )
        backend = service.backend
        if self.tracer is not None:
            # Slot-cut times, seen from outside: the first propose_batch
            # of a slot is the cut.
            def note_cut(original):
                def propose_batch(party, slot, payload):
                    cut_at.setdefault(slot, backend.now())
                    return original(party, slot, payload)
                return propose_batch

            self.tracer.patch(SmrParty, "propose_batch", note_cut)

        result = service.run()

        due = load.arrival_times
        first = next((i for i, t in enumerate(due) if t >= p.warm_s), total)
        failures = []
        if not result.completed:
            failures.append(f"service did not complete: {result.error}")
        missing = total - len(commit_at)
        if missing:
            failures.append(f"{missing} of {total} requests never committed")
        if wrong_payloads:
            failures.append(f"{wrong_payloads} committed payloads differ from submitted")
        refused = service.metrics.rejected + service.metrics.shed + load.abandoned
        if refused:
            failures.append(f"{refused} requests rejected, shed or abandoned")
        log = service.committed_log
        if [entry[0] for entry in log] != sorted(entry[0] for entry in log) or {
            entry[0] for entry in log
        } != set(range(service.next_slot)):
            failures.append("committed log has gaps or is out of order")
        for epoch, digests in enumerate(service.epoch_party_digests):
            if len(set(digests.values())) != 1:
                failures.append(f"replica log digests differ in epoch {epoch}")
        if not done:
            raise RuntimeError("; ".join(failures))

        # The measured ops are the requests due after the warm-up; the
        # window runs from then to the commit of the last request.
        latencies = [commit_at[i] - due[i] for i in range(first, total)]
        # Blocks: the requests due between two marks (a second apart at
        # full scale), with the CPU the process used between them.
        blocks = []
        index = first
        for (t0, cpu0), (t1, cpu1) in zip(load.marks, load.marks[1:]):
            start = index
            while index < total and due[index] < t1:
                index += 1
            if index > start:
                blocks.append(Block(
                    index - start, t1 - t0, cpu1 - cpu0, latencies[start - first:index - first]
                ))
        epochs = result.service["epochs"]
        return Measurement(
            ops=total - first,
            latencies=latencies,
            blocks={"request": blocks},
            arrival_driven=True,
            tickets_total=sum(e["total_tickets"] for e in epochs),
            failures=failures,
            failed_ops=missing + wrong_payloads + refused,
            messages_per_op=result.messages / total,
            bytes_per_op=result.bytes / total,
            extras=self._service_metrics(
                service, load, epochs, cut_at, commit_at, range(first, total), latencies
            ) if self.tracer is not None else {},
        )

    @staticmethod
    def _service_metrics(service, load, epochs, cut_at, commit_at, measured, latencies):
        """The ``service.*`` per-layer metrics of a traced run."""
        due = load.arrival_times
        pauses = [e["rotation_seconds"] for e in epochs if e["epoch"] > 0]
        slot_of = {}
        for slot, _position, payload in service.committed_log:
            for rid, _body in decode_batch(payload):
                slot_of[rid] = slot
        cut = {i: cut_at[slot_of[i]] for i in measured if slot_of.get(i) in cut_at}
        slots = service.metrics.slots_cut
        return {
            "service.slots_cut": (float(slots), "count"),
            "service.requests_per_slot": (load.total / max(slots, 1), "count"),
            "service.queue_wait_p50_s": (
                percentile([at - due[i] for i, at in cut.items()], 50), "s"),
            "service.commit_p50_s": (
                percentile([commit_at[i] - at for i, at in cut.items() if i in commit_at], 50), "s"),
            "service.rotations": (float(service.metrics.rotations), "count"),
            "service.rotation_pause_s": (sum(pauses) / max(len(pauses), 1), "s"),
            "service.rejected": (float(service.metrics.rejected), "count"),
            "service.shed": (float(service.metrics.shed), "count"),
            "service.generator_lag_p99_s": (
                percentile(load.lateness[measured.start:], 99), "s"),
            "service.commit_latency_p99_s": (percentile(latencies, 99), "s"),
        }


# -- smr-tcp -------------------------------------------------------------------------


class SmrTcp(Workload):
    name = "smr-tcp"

    def setup(self) -> None:
        p = self.p
        committee = workloads.synthetic_committee(p)
        committee.validate(f_w="1/3", payload_size=p.batch_size)
        # The coin a deployment of this SMR would run on: WR(1/3, 1/2).
        self.tickets = api.solve_with_policy(_PROBLEMS["wr"], committee).achieved
        self.n = committee.n
        self.quorums = committee.quorums("1/3")
        self.pool = workloads.payload_pool(self.seed, "smr", 64, p.batch_size)
        self.coin = deterministic_coin(f"ledger|{self.seed}")
        self.next_slot = 0
        self.proposing = True
        self.started: dict[int, float] = {}
        self.commits: dict[int, int] = {}
        #: (slot, completion time, process CPU at completion)
        self.done: list[tuple[int, float, float]] = []
        self.run(self._start())

    def _payload(self, slot: int, pid: int) -> bytes:
        return self.pool[(slot * self.n + pid) % len(self.pool)]

    def _propose(self) -> None:
        slot = self.next_slot
        self.next_slot += 1
        self.commits[slot] = 0
        self.started[slot] = time.perf_counter()
        for pid in range(self.n):
            self.cluster.party(pid).propose_batch(slot, self._payload(slot, pid))

    def _on_commit(self, pid: int, slot: int, position: int, payload: bytes) -> None:
        self.commits[slot] += 1
        if self.commits[slot] == self.n * self.n:  # every replica, every position
            self.done.append((slot, time.perf_counter(), time.process_time()))
            if self.proposing:
                self._propose()

    async def _start(self) -> None:
        self.cluster = Cluster(
            lambda pid: SmrParty(
                pid, self.n, self.quorums, self.coin, on_commit=self._on_commit
            ),
            self.n,
            transport="tcp",
        )
        await self.cluster.start()
        for _ in range(self.p.window):
            self._propose()
        await self.cluster.run_until(
            lambda: len(self.done) >= self.p.warm_slots, timeout=60.0
        )

    async def _drain(self) -> None:
        self.proposing = False
        await self.cluster.run_until(
            lambda: len(self.done) == self.next_slot, timeout=60.0
        )
        await self.cluster.settle()

    def teardown(self) -> None:
        async def stop() -> None:
            await self._drain()
            await self.cluster.stop()

        self.run(stop())
        super().teardown()

    def measure(self, seconds: float) -> Measurement:
        p = self.p
        rss = {}

        async def window() -> tuple[int, int, float, float]:
            first = len(self.done)
            self.begin_window()
            t0, cpu0 = time.perf_counter(), time.process_time()

            def due() -> bool:
                if "kib" not in rss and len(self.done) - first >= p.rss_slots:
                    rss["kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                return time.perf_counter() - t0 >= seconds

            await self.cluster.run_until(due, timeout=seconds + 60.0, poll=0.005)
            self.end_window()
            last = len(self.done)
            await self._drain()
            return first, last, t0, cpu0

        first, last, t0, cpu0 = self.run(window())
        completed = self.done[first:last]
        failures = []
        wrong = 0
        for slot in range(self.next_slot):
            logs = {
                tuple(self.cluster.party(pid).ordered_log(slot)) for pid in range(self.n)
            }
            expected = {(pid, self._payload(slot, pid)) for pid in range(self.n)}
            if len(logs) != 1 or set(next(iter(logs))) != expected:
                wrong += 1
        if wrong:
            failures.append(f"{wrong} slots with differing or wrong ordered logs")
        if not completed:
            raise RuntimeError("no slot completed inside the window")
        # Blocks: consecutive completions spanning at least a second.
        blocks = []
        edge_t, edge_cpu, pending = t0, cpu0, []
        for slot, t, cpu in completed:
            pending.append(t - self.started[slot])
            if t - edge_t >= min(1.0, seconds / 2):
                blocks.append(Block(len(pending), t - edge_t, cpu - edge_cpu, pending))
                edge_t, edge_cpu, pending = t, cpu, []
        if not blocks:
            raise RuntimeError("the window is shorter than one block")
        metrics = self.cluster.metrics
        return Measurement(
            ops=len(completed),
            latencies=[t - self.started[slot] for slot, t, _ in completed],
            blocks={"slot": blocks},
            tickets_total=self.tickets,
            failures=failures,
            failed_ops=wrong,
            messages_per_op=metrics.messages / self.next_slot,
            bytes_per_op=metrics.bytes / self.next_slot,
            rss_kib=rss.get("kib"),
        )


# -- avid-bulk -----------------------------------------------------------------------


class AvidBulk(Workload):
    name = "avid-bulk"

    def setup(self) -> None:
        p = self.p
        committee = workloads.synthetic_committee(p)
        self.n = committee.n
        layout = weighted.transform.qualification_setup(committee.weights, "1/3", "1/4")
        self.tickets = layout.result.assignment.total
        self.vmap = layout.vmap
        self.code = ReedSolomon(k=layout.data_shards, m=layout.total_shards)
        self.quorums = committee.quorums("1/3")
        # Crash the coalition below 1/3 of the weight that holds the most
        # fragments (greedy by tickets); party 0 deals and must stay up.
        held = list(layout.result.assignment)
        stake = committee.int_weights
        budget = sum(stake)
        self.crashed: list[int] = []
        crashed_weight = 0
        for pid in sorted(range(1, self.n), key=lambda i: (-held[i], stake[i])):
            if 3 * (crashed_weight + stake[pid]) < budget:
                self.crashed.append(pid)
                crashed_weight += stake[pid]
        committee.validate(f_w="1/3", crashes=self.crashed)
        self.retriever = max(set(range(1, self.n)) - set(self.crashed))
        self.rng = random.Random(f"ledger|avid|{self.seed}")
        self.counters = [0, 0, 0]  # ops, messages, bytes over the run
        ok, _ = self.run(self._op())  # warm-up op
        if not ok:
            raise RuntimeError("warm-up object was not retrieved intact")

    async def _op(self) -> tuple[bool, float]:
        """Disperse one object, crash the coalition, retrieve and compare.
        Returns (intact, seconds from cluster construction to the
        retriever holding the decoded bytes)."""
        data = self.rng.randbytes(self.p.object_size)
        t0 = time.perf_counter()
        cluster = Cluster(lambda pid: AvidParty(pid, self.quorums), self.n)
        async with cluster:
            commitment = cluster.party(0).disperse(data, self.code, self.vmap)
            await cluster.run_until(
                lambda: all(p.stored_commitment == commitment for p in cluster.parties),
                timeout=60.0,
            )
            for pid in self.crashed:
                cluster.crash_node(pid)
            retriever = cluster.party(self.retriever)
            retriever.retrieve(commitment)
            await cluster.run_until(lambda: retriever.retrieved is not None, timeout=60.0)
            intact = retriever.retrieved == data
            latency = time.perf_counter() - t0
            await cluster.settle()
        self.counters[0] += 1
        self.counters[1] += cluster.metrics.messages
        self.counters[2] += cluster.metrics.bytes
        # The stopped cluster is a reference cycle holding the object's
        # fragments; collect it now, so that peak RSS is one op's and does
        # not grow with how many ops a run completes.
        del cluster, retriever
        gc.collect()
        return intact, latency

    def measure(self, seconds: float) -> Measurement:
        results, blocks = self.run(self.closed_loop(seconds, self._op))
        wrong = results.count(False)
        ops, messages, nbytes = self.counters
        return Measurement(
            ops=len(results),
            latencies=[block.latencies[0] for block in blocks],
            blocks={"object": blocks},
            tickets_total=self.tickets,
            failures=[f"{wrong} objects retrieved with different bytes"] if wrong else [],
            failed_ops=wrong,
            messages_per_op=messages / ops,
            bytes_per_op=nbytes / ops,
        )


# -- beacon-2048 ---------------------------------------------------------------------


class Beacon(Workload):
    name = "beacon-2048"

    def setup(self) -> None:
        p = self.p
        committee = workloads.synthetic_committee(p)
        self.n = committee.n
        blunt = weighted.transform.blunt_setup(committee.weights, "1/3", "1/2")
        self.tickets = blunt.total_virtual
        self.coin = WeightedCoin(
            getattr(crypto_group, p.group),
            blunt.result.assignment,
            "1/2",
            random.Random(f"ledger|beacon-keys|{self.seed}"),
        )
        self.values: dict[int, dict[int, int]] = {}
        self.epoch = 0
        self.run(self._start())

    def _on_value(self, pid: int, epoch: int, value: int) -> None:
        self.values.setdefault(epoch, {})[pid] = value

    async def _start(self) -> None:
        self.cluster = Cluster(
            lambda pid: BeaconParty(
                pid, self.coin,
                random.Random(f"ledger|beacon|{self.seed}|{pid}"),
                on_value=self._on_value,
            ),
            self.n,
        )
        await self.cluster.start()
        await self._op()  # warm-up epoch

    async def _op(self) -> tuple[int, float]:
        """Open one epoch at every party: (epoch, seconds it took)."""
        epoch = self.epoch
        self.epoch += 1
        t0 = time.perf_counter()
        for party in self.cluster.parties:
            party.start_epoch(epoch)
        await self.cluster.run_until(
            lambda: len(self.values.get(epoch, ())) == self.n, timeout=120.0
        )
        return epoch, time.perf_counter() - t0

    def teardown(self) -> None:
        async def stop() -> None:
            await self.cluster.settle()
            await self.cluster.stop()

        self.run(stop())
        super().teardown()

    def _oracle(self, epoch: int) -> int:
        """The epoch's value opened from the *last* parties' shares, with
        full verification: a different share subset than any party used
        first, so agreement is the threshold signature's uniqueness."""
        rng = random.Random(f"ledger|beacon-oracle|{self.seed}|{epoch}")
        shares = []
        for pid in reversed(range(self.n)):
            shares.extend(self.coin.shares_of_party(pid, epoch, rng))
            if len(shares) >= self.coin.threshold:
                break
        return self.coin.coin.open(shares, epoch)

    def measure(self, seconds: float) -> Measurement:
        epochs, blocks = self.run(self.closed_loop(seconds, self._op))
        self.run(self.cluster.settle())  # so the message counts are whole epochs
        wrong = 0
        for epoch in epochs:
            opened = set(self.values[epoch].values())
            if len(opened) != 1 or opened != {self._oracle(epoch)}:
                wrong += 1
        metrics = self.cluster.metrics
        return Measurement(
            ops=len(epochs),
            latencies=[block.latencies[0] for block in blocks],
            blocks={"epoch": blocks},
            tickets_total=self.tickets,
            failures=[f"{wrong} epochs opened to differing or wrong values"] if wrong else [],
            failed_ops=wrong,
            messages_per_op=metrics.messages / self.epoch,
            bytes_per_op=metrics.bytes / self.epoch,
        )


# -- solve-chains --------------------------------------------------------------------


class SolveChains(Workload):
    name = "solve-chains"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.heartbeat = None  # no event loop here

    def setup(self) -> None:
        p = self.p
        self.chains = {
            chain: load_chain(chain).weights for chain in dict.fromkeys(c for c, _ in p.cells)
        }
        base = api.Committee.synthetic(
            "zipf", n=p.incremental_n, total=p.incremental_total,
            skew=p.incremental_skew, seed=42,
        )
        self.base = base.weights
        self.steps = workloads.delta_steps(self.seed, self.base, p.incremental_steps)

    def _round(self) -> list[tuple[str, float, float, object]]:
        """One op: a pass over every solve, as (label, wall, CPU, result).
        A result of ``None`` marks a solve that did not do what it was
        there for."""
        out = []

        def timed(label: str, solve, ok) -> None:
            t0, cpu0 = time.perf_counter(), time.process_time()
            result = solve()
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            out.append((label, wall, cpu, result if ok(result) else None))

        for chain, problem in self.p.cells:
            timed(
                f"{chain}-{problem}",
                lambda: api.solve_with_policy(
                    _PROBLEMS[problem], self.chains[chain], "swiper", verify=True
                ),
                lambda result: result.verdict == "valid",
            )
        solver = api.IncrementalSolver(_PROBLEMS["wr"])
        timed("incremental-prime", lambda: solver.solve(self.base), lambda result: True)
        for step, weights_now in enumerate(self.steps):
            timed(
                f"incremental-{step}",
                lambda: solver.solve(weights_now),
                lambda result: solver.last_mode == "incremental",
            )
        return out

    def measure(self, seconds: float) -> Measurement:
        self.begin_window()
        rounds, latencies = [], []
        t0 = time.perf_counter()
        while (started := time.perf_counter()) - t0 < seconds:
            if self.tracer is not None:
                self.tracer.op = len(rounds)
            rounds.append(self._round())
            latencies.append(time.perf_counter() - started)
        self.end_window()

        reference = rounds[0]
        # Every round solved the same inputs: same tickets, or it failed.
        wrong_rounds = sum(
            1
            for solves in rounds
            if any(
                result is None or first is None or result.assignment != first.assignment
                for (*_, result), (*_, first) in zip(solves, reference)
            )
        )
        failures = []
        if wrong_rounds:
            failures.append(
                f"{wrong_rounds} rounds with a solve invalid, unrepeatable or not incremental"
            )
        # Incremental == cold, ticket for ticket; once per step is enough
        # because the rounds were just held equal to the first.
        by_label = {label: result for label, _, _, result in reference}
        mismatched = 0
        for step, weights_now in enumerate(self.steps):
            cold = api.solve_with_policy(_PROBLEMS["wr"], weights_now, "swiper", verify=False)
            result = by_label[f"incremental-{step}"]
            if result is not None and cold.assignment != result.assignment:
                mismatched += 1
        if mismatched:
            failures.append(f"{mismatched} incremental solves differ from a cold solve")
            wrong_rounds = len(rounds)
        extras = {}
        for chain, problem in self.p.cells:
            label = f"{chain}-{problem}"
            times = [wall for solves in rounds for name, wall, _, _ in solves if name == label]
            extras[f"core.cold_solve_s.{label}"] = (percentile(times, 50), "s")
        # One kind of work per distinct solve: its repeats are its blocks.
        blocks: dict[str, list[Block]] = {}
        for solves in rounds:
            for label, wall, cpu, _ in solves:
                blocks.setdefault(label, []).append(Block(1, wall, cpu, [wall]))
        return Measurement(
            ops=len(rounds),
            latencies=latencies,
            blocks=blocks,
            tickets_total=sum(r.achieved for *_, r in reference if r is not None),
            failures=failures,
            failed_ops=wrong_rounds,
            extras=extras,
        )


DRIVERS = {
    cls.name: cls for cls in (SvcOpen, SmrTcp, AvidBulk, Beacon, SolveChains)
}
