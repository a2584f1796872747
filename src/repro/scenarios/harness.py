"""One harness, every backend: execute a :class:`ScenarioSpec` on the
discrete-event simulator or the live asyncio runtime.

The harness translates a declarative spec into the pieces an execution
backend needs -- a party factory, workload entry points, a completion
predicate, and a fault plan -- via per-protocol *drivers*.  Both backends
share one :class:`~repro.runtime.faults.FaultController` implementation
(the sim consults it at its delivery point, see
:mod:`repro.sim.network`), so a fault plan means the same thing on both;
a driver holds the plan as one compiled ``timeline``.

Every run follows one lifecycle, written once below: **arm** the fault
timeline on the backend's :class:`RunContext` (:func:`_arm`), **run** until
the one stop rule is met (:class:`_StopRule`), and **finish** by
assembling the record (:func:`_finish`).  What stays per backend is only
what truly differs: how parties and a clock are built, and how to wait.

The result is a unified, JSON-able metrics record.  On the sim backend
the record is fully deterministic for a fixed seed -- byte-identical
across runs -- which the determinism regression test pins down.  Across
backends, the *decided values* must agree for fault-free scenarios, and
message counts additionally agree for protocols that send each phase
message exactly once (RBC, SMR, checkpointing); VABA's round advancement
is timing-dependent, so its counts are reported but not comparable.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..chaos.orchestrator import ChaosOrchestrator, watchdog_section
from ..chaos.schedule import compile_timeline
from ..runtime.faults import FaultController
from ..sim.process import Party
from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "RunContext", "run_scenario", "build_driver", "BACKENDS"]

#: execution backends ``run_scenario`` accepts; ``proc`` is
#: process-per-party (one OS process per node), orchestrated by
#: :mod:`repro.parallel.proc`
BACKENDS = ("sim", "inproc", "tcp", "proc")


def _digest(data: bytes) -> str:
    """Short stable fingerprint of a decided value."""
    return hashlib.sha256(data).hexdigest()[:16]


def _payload(spec: ScenarioSpec, pid: int, epoch: int) -> bytes:
    """Deterministic per-(party, epoch) workload payload."""
    seed = f"{spec.name}|{spec.seed}|{epoch}|{pid}".encode()
    block = hashlib.sha256(seed).digest()
    reps = (spec.workload.payload_size + len(block) - 1) // len(block)
    return (block * reps)[: spec.workload.payload_size]


@dataclass
class RunContext:
    """What a driver and the fault plan see of the running backend: the
    parties hosted here by node id (all of them on sim/inproc/tcp; a proc
    worker hosts exactly one), the live node ids, the fault controller
    every link consults, and a scenario-time scheduler (sim: virtual
    seconds via the simulator; runtime: wall seconds via
    ``loop.call_later``)."""

    parties: Mapping[int, Party]
    live_nodes: tuple[int, ...]
    schedule: Callable[[float, Callable[[], None]], None]
    faults: FaultController

    def party(self, nid: int) -> Party:
        return self.parties[nid]

    def at(self, when: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at scenario time ``when`` (immediately when 0)."""
        if when <= 0:
            fn()
        else:
            self.schedule(when, fn)

    def crash(self, nid: int) -> None:
        """Full crash: the party (when hosted here) stops reacting AND
        the node's traffic is dropped."""
        if nid in self.parties:
            self.parties[nid].crash()
        self.faults.crash(nid)

    def restart(self, nid: int) -> None:
        """Crash-restart rejoin: traffic flows again *first*, so the
        state-sync request a recoverable party broadcasts from inside
        ``restart`` (after replaying its WAL) is not condemned."""
        self.faults.restart(nid)
        if nid in self.parties:
            self.parties[nid].restart()


# -- protocol drivers ------------------------------------------------------------------


class ProtocolDriver:
    """Backend-independent execution recipe for one protocol.

    ``map_pid`` translates a *real* party id from the fault plan into the
    node ids hosting it -- identity except for the black-box VABA driver,
    whose nodes are virtual users.
    """

    #: message counts match across backends (phase messages sent exactly once)
    count_comparable = True

    #: ``spec.f_w`` governs this driver's quorums, so crash plans are
    #: pre-checked against the f_w*W resilience budget (a crash set at or
    #: above it could never complete and would only burn the timeout)
    uses_f_w = True

    #: the driver supports the process-per-party backend: completion and
    #: output are expressible per node (``node_done``/``node_output``), so
    #: a worker that hosts exactly one party can report its slice alone
    proc_capable = True

    #: the driver's parties implement crash-restart recovery (WAL replay
    #: plus state sync); only then may a fault plan carry ``restarts``
    supports_restarts = False

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        self.spec = spec
        self.committee = committee
        self.adversary = adversary
        #: directory for durable per-party write-ahead logs (``None`` =
        #: in-memory WALs; set by ``build_driver`` from ``--state-dir``)
        self.state_dir: Optional[str] = None
        self.weights = committee.int_weights
        self.timeline = compile_timeline(spec)  # the whole fault plan
        restart = any(stage.action == "restart" for stage in self.timeline.stages)
        if restart and not self.supports_restarts:
            raise ValueError(
                f"protocol {spec.protocol!r} has no crash-recoverable "
                "party; crash-restart plans need one (smr)"
            )
        self.live_real = tuple(
            pid for pid in range(len(self.weights)) if pid not in spec.faults.crashes
        )
        if not self.live_real:
            raise ValueError("fault plan crashes every party; nothing left to run")
        # Corruption strategies only apply to identity-mapped protocols
        # (node id == real pid), so the corrupted set is in node-id terms.
        corrupted = adversary.corrupted if adversary is not None else frozenset()
        self.honest_real = tuple(
            pid for pid in self.live_real if pid not in corrupted
        )

    def observers(self, ctx: "RunContext") -> tuple[int, ...]:
        """The nodes whose outputs carry correctness claims: live honest
        nodes (corrupted parties stay live but their state means nothing)."""
        if self.adversary is None:
            return tuple(ctx.live_nodes)
        corrupted = self.adversary.corrupted
        return tuple(nid for nid in ctx.live_nodes if nid not in corrupted)

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def map_pid(self, pid: int) -> Sequence[int]:
        return (pid,)

    def factory(self, nid: int) -> Party:
        raise NotImplementedError

    @property
    def expect_liveness(self) -> bool:
        """False when the adversary (or chaos plan) voids the liveness
        claim: ``done()`` may then never hold, and quiescence is final."""
        return self.adversary is None or self.adversary.expect_liveness

    @property
    def epochs(self) -> int:
        """Workload epochs this driver fires (one-shot protocols: 1)."""
        return self.spec.workload.epochs

    # -- the workload, per (node, epoch) -----------------------------------------

    def fire(self, ctx: RunContext, nid: int, epoch: int) -> None:
        """Node ``nid``'s share of epoch ``epoch``'s workload."""
        raise NotImplementedError

    def start(self, ctx: RunContext) -> None:
        """Schedule the workload: one event per epoch fires every live
        node hosted by ``ctx`` in node order (which fixes the sim's event
        order; a proc worker's context hosts one node, so the same call
        fires exactly its slice)."""
        for epoch in range(self.epochs):

            def fire_epoch(e: int = epoch) -> None:
                for nid in ctx.live_nodes:
                    if nid in ctx.parties:
                        self.fire(ctx, nid, e)

            ctx.at(self.spec.workload.start_time(epoch), fire_epoch)

    def restart_node(self, ctx: RunContext, nid: int) -> None:
        """Rejoin hook fired right after a crash-restarted node comes
        back (its party has already replayed its WAL and broadcast the
        state-sync request); drivers re-fire the node's workload here."""
        raise NotImplementedError(f"{type(self).__name__} has no recoverable party")

    # -- completion and outputs, per node and aggregated ---------------------------

    def node_done(self, ctx: RunContext, nid: int) -> bool:
        """Completion as observable by node ``nid`` alone."""
        raise NotImplementedError

    def node_output(self, ctx: RunContext, nid: int) -> str:
        """Node ``nid``'s canonical decided value (digest string)."""
        raise NotImplementedError

    def done(self, ctx: RunContext) -> bool:
        return all(self.node_done(ctx, nid) for nid in self.observers(ctx))

    def outputs(self, ctx: RunContext) -> dict[str, str]:
        """Canonical decided values per observer (digest strings)."""
        return {
            str(nid): self.node_output(ctx, nid) for nid in self.observers(ctx)
        }


def _nominal(spec: ScenarioSpec) -> bool:
    """Whether ``params["quorums"]`` asks for nominal quorums; raises on
    an unknown value and on a spec the nominal layout cannot honour."""
    layout = spec.param("quorums", "weighted")
    if layout not in ("weighted", "nominal"):
        raise ValueError(f"unknown quorums {layout!r}; one of weighted, nominal")
    if layout == "weighted":
        return False
    if spec.protocol not in ("rbc", "smr"):  # the others vote without a QuorumPolicy
        raise ValueError(f"nominal quorums run rbc and smr only, not {spec.protocol!r}")
    if spec.faults.byzantine or spec.chaos is not None:  # an adversary spends f_w*W
        raise ValueError("nominal quorums take crash plans only, no adversary")
    return True


def _quorums(spec: ScenarioSpec, committee):
    """The quorum policy an RBC / SMR party votes with, and its crash budget.

    Weighted (the default) is ``committee.quorums(spec.f_w)``; its
    ``f_w*W`` budget is :func:`build_driver`'s check.  Nominal is the
    unweighted original's ``n = 3t + 1`` thresholds, ``t = (n - 1) // 3``
    and one vote per party -- the baseline a weighted protocol's cost is
    stated against; it tolerates at most ``t`` parties crashed or
    restarted.
    """
    if not _nominal(spec):
        return committee.quorums(spec.f_w)
    from ..weighted.quorum import NominalQuorums

    n = committee.n
    if n < 4:
        raise ValueError("nominal quorums need n >= 4 (n = 3t + 1, t >= 1)")
    quorums = NominalQuorums(n=n, t=(n - 1) // 3)
    down = set(spec.faults.crashes).union(pid for pid, _, _ in spec.faults.restarts)
    if len(down) > quorums.t:
        raise ValueError(
            f"fault plan takes down {len(down)} parties, more than the "
            f"nominal fault tolerance t = {quorums.t}; quorums can never form"
        )
    return quorums


class RbcDriver(ProtocolDriver):
    """Bracha reliable broadcast (weighted or nominal quorums, see
    :func:`_quorums`); the lowest live honest party sends -- unless an
    equivocation strategy claims the sender role."""

    epochs = 1

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        self.quorums = _quorums(spec, committee)
        override = adversary.sender_override if adversary is not None else None
        if override is not None:
            self.sender = override
        else:
            self.sender = min(self.honest_real or self.live_real)
        self.payload = _payload(spec, self.sender, 0)

    def factory(self, nid: int) -> Party:
        from ..protocols.reliable_broadcast import BroadcastParty

        return BroadcastParty(nid, self.quorums, self.sender)

    def fire(self, ctx: RunContext, nid: int, epoch: int) -> None:
        if nid == self.sender:
            ctx.party(nid).broadcast_value(self.payload)

    def node_done(self, ctx: RunContext, nid: int) -> bool:
        return ctx.party(nid).delivered == self.payload

    def node_output(self, ctx: RunContext, nid: int) -> str:
        return _digest(ctx.party(nid).delivered or b"")


class SmrDriver(ProtocolDriver):
    """Composed SMR: every live party proposes a batch per epoch.

    Epochs started while a partition is active are best-effort (the
    cross-partition RBC instances lose messages and cannot commit
    everywhere); completion requires full logs only for epochs started at
    or after the timeline's heal.
    """

    supports_restarts = True

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        from ..protocols.common_coin import deterministic_coin

        self.quorums = _quorums(spec, committee)
        self.coin = deterministic_coin(f"{spec.name}|{spec.seed}")
        # Reject specs with nothing to certify: a vacuously-true done()
        # would report a successful run in which no epoch committed.
        required = self._required_epochs()
        if not required:
            raise ValueError(
                "no SMR epoch can commit everywhere under this fault plan: "
                "a partition needs heal_at and at least one epoch starting "
                "at or after it"
            )
        if spec.faults.restarts or len(required) < self.epochs:
            # recovery traffic (state sync, re-proposals) and how much of
            # a best-effort epoch's traffic the heal still catches in
            # flight both depend on timing, so message counts stop being
            # comparable across backends
            self.count_comparable = False

    def factory(self, nid: int) -> Party:
        from ..protocols.smr import SmrParty

        if self.spec.faults.restarts:
            # crash-restart plans need durable commits and rejoin logic;
            # every party gets the recoverable subclass so sync requests
            # are answered cluster-wide
            from ..recovery.smr import RecoverableSmrParty
            from ..recovery.wal import open_wal

            wal = open_wal(self.state_dir, f"{self.spec.name}-party{nid}")
            return RecoverableSmrParty(
                nid, self.n_nodes, self.quorums, self.coin, wal=wal
            )
        return SmrParty(nid, self.n_nodes, self.quorums, self.coin)

    def _required_epochs(self) -> list[int]:
        epochs = range(self.spec.workload.epochs)
        start, heal = self.timeline.partition_window()
        if start is None:
            return list(epochs)
        if heal is None:
            # No epoch commits everywhere.  A chaos plan keeps them all
            # required, so the watchdog classifies the stall rather than
            # a vacuous done() hiding it; a flat plan is rejected.
            return list(epochs) if self.spec.chaos is not None else []
        return [e for e in epochs if self.spec.workload.start_time(e) >= heal]

    def fire(self, ctx: RunContext, nid: int, epoch: int) -> None:
        ctx.party(nid).propose_batch(epoch, _payload(self.spec, nid, epoch))

    def restart_node(self, ctx: RunContext, nid: int) -> None:
        # Re-propose every epoch's batch: receivers absorb duplicates (a
        # ``BrachaInstance`` echoes only its first SEND) and the payloads are
        # a pure function of the spec, so re-proposal cannot fork an instance.
        # Needed when the crash predates the original proposal -- no live
        # peer can supply a batch that was never broadcast.
        for epoch in range(self.epochs):
            self.fire(ctx, nid, epoch)

    def node_done(self, ctx: RunContext, nid: int) -> bool:
        if self.adversary is None:
            want = len(ctx.live_nodes)
            return all(
                len(ctx.party(nid).ordered_log(e)) == want
                for e in self._required_epochs()
            )
        # Under an active adversary only the honest proposers' batches are
        # guaranteed to commit (a Byzantine proposer's instance may never
        # terminate); require every honest log to contain all of them.
        honest = set(self.honest_real)
        return all(
            honest <= {p for p, _ in ctx.party(nid).ordered_log(e)}
            for e in self._required_epochs()
        )

    def node_output(self, ctx: RunContext, nid: int) -> str:
        honest = set(self.honest_real)
        h = hashlib.sha256()
        for e in self._required_epochs():
            for proposer, payload in ctx.party(nid).ordered_log(e):
                # A Byzantine proposer's batch may legitimately commit
                # at some honest parties and not others; the agreement
                # claim covers the honest proposers' sub-log.
                if self.adversary is not None and proposer not in honest:
                    continue
                h.update(f"{e}|{proposer}|".encode())
                h.update(payload)
        return h.hexdigest()[:16]


class VabaDriver(ProtocolDriver):
    """Black-box weighted VABA: nodes are *virtual users* of a WR(f_n -
    eps, f_n) solution; real party ``i`` drives ``vmap.virtual_ids(i)``
    (paper, Section 4.4).  Message counts are timing-dependent (round
    advancement races the decision), so they are not cross-backend
    comparable -- decided values are.
    """

    count_comparable = False
    #: resilience comes from the WR(f_n - eps, f_n) params, not spec.f_w
    uses_f_w = False
    #: real outputs aggregate *all* virtual parties' decisions through
    #: ``setup.real_outputs``, which no single-node worker can compute
    proc_capable = False
    epochs = 1

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        from ..protocols.vaba import black_box_parties
        from ..weighted.transform import black_box_setup

        f_n = str(spec.param("f_n", "1/3"))
        epsilon = str(spec.param("epsilon", "1/12"))
        self.setup = black_box_setup(self.weights, f_n, epsilon)
        self._parties = black_box_parties(self.setup, coin_seed=spec.seed)

    @property
    def n_nodes(self) -> int:
        return self.setup.vmap.total_virtual

    def map_pid(self, pid: int) -> Sequence[int]:
        return tuple(self.setup.vmap.virtual_ids(pid))

    def factory(self, nid: int) -> Party:
        return self._parties[nid]

    def fire(self, ctx: RunContext, nid: int, epoch: int) -> None:
        ctx.party(nid).propose(_payload(self.spec, self.setup.vmap.owner(nid), 0))

    def node_done(self, ctx: RunContext, nid: int) -> bool:
        return ctx.party(nid).decided is not None

    def outputs(self, ctx: RunContext) -> dict[str, str]:
        virtual_outputs = {
            p.pid: p.decided for p in self._parties if p.decided is not None
        }
        real = self.setup.real_outputs(virtual_outputs)
        return {
            str(pid): _digest(value)
            for pid, value in sorted(real.items())
            if pid in self.live_real
        }


class CheckpointDriver(ProtocolDriver):
    """Threshold-signed checkpoints over a blunt WR(f_w, 1/2) setup; one
    checkpoint per workload epoch, ``mode`` / ``beta`` via params."""

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        from ..crypto.common_coin import WeightedCoin
        from ..crypto.group import TEST_GROUP_256
        from ..weighted.transform import blunt_setup

        self.mode = str(spec.param("mode", "blunt"))
        self.beta = str(spec.param("beta", "1/2"))
        tickets = blunt_setup(self.weights, spec.f_w, "1/2").result.assignment
        self.coin = WeightedCoin(TEST_GROUP_256, tickets, "1/2", random.Random(spec.seed))
        self.checkpoints = [
            _payload(spec, 0, epoch) for epoch in range(spec.workload.epochs)
        ]

    def factory(self, nid: int) -> Party:
        from ..protocols.checkpointing import CheckpointParty

        return CheckpointParty(
            nid,
            self.coin,
            random.Random(f"{self.spec.seed}|{nid}"),
            mode=self.mode,
            weights=self.weights if self.mode == "tight" else None,
            beta=self.beta if self.mode == "tight" else None,
        )

    def fire(self, ctx: RunContext, nid: int, epoch: int) -> None:
        ctx.party(nid).sign_checkpoint(self.checkpoints[epoch])

    def node_done(self, ctx: RunContext, nid: int) -> bool:
        return all(cp in ctx.party(nid).certificates for cp in self.checkpoints)

    def node_output(self, ctx: RunContext, nid: int) -> str:
        certs = ctx.party(nid).certificates
        blob = "|".join(str(certs.get(cp, "")) for cp in self.checkpoints)
        return _digest(blob.encode())


_DRIVERS: dict[str, type[ProtocolDriver]] = {
    "rbc": RbcDriver,
    "smr": SmrDriver,
    "vaba": VabaDriver,
    "checkpoint": CheckpointDriver,
}


# -- results ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """The unified metrics record of one scenario execution."""

    spec: ScenarioSpec
    backend: str
    n_real: int
    n_nodes: int
    weights_digest: str
    completed: bool
    decided: dict[str, str]
    count_comparable: bool
    messages: int
    bytes: int
    by_type: dict[str, int]
    bytes_by_type: dict[str, int]
    dropped_messages: int
    delayed_messages: int
    #: sim backend only: virtual completion time and event count
    sim_time: Optional[float] = None
    sim_events: Optional[int] = None
    #: runtime backends only: wall-clock duration (nondeterministic)
    wall_seconds: Optional[float] = None
    #: service workloads only: ops/sec, latency percentiles, epoch records
    service: Optional[dict] = None
    #: active-adversary runs only: strategies, corrupted set, liveness claim
    adversary: Optional[dict] = None
    #: proc backend only: node id -> OS process id of the hosting worker
    workers: Optional[dict[str, int]] = None
    #: crash-restart runs on proc only: per-node downtime/rejoin timings
    #: plus summed recovery counters (WAL replays, peer sync, dedup)
    recovery: Optional[dict] = None
    #: chaos runs only: stage timeline with fired flags, weather
    #: realization, the delivery-idempotence counter, and the watchdog
    #: verdict (plus a postmortem bundle when the run stalled)
    chaos: Optional[dict] = None

    def record(self) -> dict:
        """JSON-able snapshot.  On the sim backend every field is a pure
        function of the spec, so the record is byte-identical across runs
        (the determinism regression test relies on this); wall-clock only
        appears for runtime backends."""
        rec = {
            "scenario": self.spec.name,
            "protocol": self.spec.protocol,
            "backend": self.backend,
            "seed": self.spec.seed,
            "f_w": self.spec.f_w,
            "n_real": self.n_real,
            "n_nodes": self.n_nodes,
            "weights_digest": self.weights_digest,
            "completed": self.completed,
            "decided": dict(sorted(self.decided.items())),
            "count_comparable": self.count_comparable,
            "messages": self.messages,
            "bytes": self.bytes,
            "by_type": dict(sorted(self.by_type.items())),
            "bytes_by_type": dict(sorted(self.bytes_by_type.items())),
            "dropped_messages": self.dropped_messages,
            "delayed_messages": self.delayed_messages,
        }
        if self.backend == "sim":
            rec["sim_time"] = self.sim_time
            rec["sim_events"] = self.sim_events
        else:
            rec["wall_seconds"] = self.wall_seconds
        if self.service is not None:
            rec["service"] = self.service
        if self.adversary is not None:
            rec["adversary"] = self.adversary
        if self.workers is not None:
            rec["workers"] = dict(sorted(self.workers.items()))
        if self.recovery is not None:
            rec["recovery"] = self.recovery
        if self.chaos is not None:
            rec["chaos"] = self.chaos
        return rec

    def record_json(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.record(), sort_keys=True, separators=(",", ":"))

    def write(self, *, base=None):
        """Persist the record under ``results/`` (analysis artifact).

        The seed is part of the filename so seed sweeps of one scenario
        do not clobber each other's records.
        """
        from ..analysis.report import write_json

        name = f"scenario_{self.spec.name}_{self.backend}_seed{self.spec.seed}.json"
        return write_json(name, self.record(), base=base)


# -- execution -------------------------------------------------------------------------


def build_driver(
    spec: ScenarioSpec,
    committee=None,
    *,
    validate: bool = True,
    state_dir: Optional[str] = None,
) -> ProtocolDriver:
    """Construct the spec's driver (committee resolved, adversary wired).

    Every piece is a deterministic function of the spec, which is what
    makes the ``proc`` backend possible: each worker process rebuilds an
    *identical* driver -- same committee, same corruption set, same key
    material (the checkpoint dealing draws from ``random.Random(seed)``) --
    from nothing but the pickled spec dict.  Workers pass
    ``validate=False`` because the parent already vetted the spec.
    """
    from ..api.committee import Committee

    if committee is None:
        committee = Committee.from_weight_spec(spec.weights, seed=spec.seed)
    driver_cls = _DRIVERS[spec.protocol]
    nominal = _nominal(spec)
    if validate:
        committee.validate(
            # Restarted parties are down for a window, so the crash
            # budget must cover crashes and restarts *together* -- the
            # conservative check for the worst moment of the run.
            f_w=spec.f_w if driver_cls.uses_f_w else None,
            # nominal quorums count parties down, not weight (_quorums)
            weight_budget=not nominal,
            crashes=tuple(spec.faults.crashes)
            + tuple(pid for pid, _, _ in spec.faults.restarts),
            partition=spec.faults.partition,
            link_delays=spec.faults.link_delays,
            payload_size=spec.workload.payload_size,
            epochs=spec.workload.epochs,
        )
    adversary = None
    if spec.faults.byzantine or spec.chaos is not None:
        # A chaos plan always gets the adversary, even with no byzantine
        # stage: it carries the plan's liveness claim and budget check.
        from ..adversary.strategies import Adversary

        adversary = Adversary(spec, committee)
    driver = driver_cls(spec, committee, adversary)
    driver.state_dir = state_dir
    if adversary is not None:
        # Corrupt at construction: every backend builds every party
        # through this factory, so the corruption is backend-agnostic.
        driver.factory = adversary.wrap_factory(driver.factory)
    return driver


# -- the run lifecycle: arm, stop rule, finish -------------------------------------------


def _context(spec, driver, parties, schedule, faults) -> RunContext:
    """The backend's :class:`RunContext` over ``parties`` (node id ->
    hosted party); the live nodes are the spec's, in node-id terms."""
    crashed = {nid for pid in spec.faults.crashes for nid in driver.map_pid(pid)}
    live_nodes = tuple(nid for nid in range(driver.n_nodes) if nid not in crashed)
    if not live_nodes:
        raise ValueError("fault plan crashes every node; nothing left to run")
    return RunContext(
        parties=parties, live_nodes=live_nodes, schedule=schedule, faults=faults
    )


class _LiveSchedule:
    """A live backend's :class:`RunContext` scheduler over
    ``loop.call_later`` that keeps the first exception a scheduled
    callback raises (an epoch's workload, a chaos stage, a trigger
    poll).  asyncio would only log it and drop the callback; the stop
    poll re-raises it instead (a proc worker reports it as its failure),
    so a live run ends on it as the sim's ``world.run()`` does."""

    def __init__(self, call_later: Callable) -> None:
        self.call_later = call_later
        self.failure: Optional[Exception] = None

    def __call__(self, delay: float, fn: Callable[[], None]) -> None:
        def guarded() -> None:
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 -- re-raised by the stop poll
                if self.failure is None:
                    self.failure = exc

        self.call_later(delay, guarded)


def _arm(spec, driver, ctx: RunContext, metrics, *, restart_timers: bool = True):
    """Arm the spec's whole fault plan on one backend instance: install
    one :class:`~repro.chaos.orchestrator.ChaosOrchestrator`, the plan's
    one interpreter, over the driver's compiled timeline, and return it.

    A proc worker arms the *full* plan too -- every worker's controller
    must agree, and only the (src, dst == its node) decisions ever fire
    there, so per-worker drop and delay counts sum to the single-process
    totals -- while party-level effects reach only the party its context
    hosts.  It passes ``restart_timers=False``, compiling the flat
    crash-restart plan out: that is real process death, the parent's job.
    """
    timeline = None if restart_timers else compile_timeline(spec, restarts=False)
    orchestrator = ChaosOrchestrator(spec, driver, timeline)
    orchestrator.install(ctx, metrics=metrics)
    return orchestrator


def _chaos_horizon(spec, timeline) -> float:
    """Latest scenario time at which anything is *scheduled* to fire
    (epoch starts and the fault timeline's stages): before it, quiet is
    just waiting; after it, quiet without completion is a stall."""
    starts = [spec.workload.start_time(e) for e in range(spec.workload.epochs)]
    return max(starts + [timeline.latest_time()])


class _StopRule:
    """The one rule for when a run may end, polled by the live backends.

    Never before the plan's horizon (a run that is ``done()`` at 35 ms
    has not run a crash scheduled for 0.2 s).  Past it: ``done()`` ends
    the run; so does quiescence when the adversary voids liveness (quiet
    is then the final answer), or -- with the chaos watchdog on -- quiet
    sustained for ``stall_after`` seconds, the watchdog's stall.  With
    neither, only ``done()`` (or the caller's timeout) ends it.

    The sim meets the rule by running to quiescence: every scheduled
    time up to the horizon has then passed, and quiet without ``done()``
    *is* the stall.  inproc/tcp poll it from the cluster's stop
    condition, the proc parent from its status poll; each then drains
    to quiescence so trailing messages are counted, as on the sim.
    """

    def __init__(self, spec, driver) -> None:
        self.horizon = _chaos_horizon(spec, driver.timeline)
        #: seconds of sustained quiet that end an undone run (None: never)
        self.patience: Optional[float] = None
        if not driver.expect_liveness:
            self.patience = 0.0
        elif spec.chaos is not None and spec.chaos.watchdog:
            self.patience = spec.chaos.stall_after
        self._quiet_since: Optional[float] = None
        self._sent = -1

    def __call__(self, elapsed: float, done: bool, quiescent: bool, sent: int) -> bool:
        """``elapsed`` scenario seconds in; ``sent`` is the cumulative
        send count (progress between two quiet polls resets the clock)."""
        if elapsed < self.horizon:
            return False
        if done:
            return True
        if self.patience is None or not quiescent or sent != self._sent:
            self._quiet_since, self._sent = None, sent
            return False
        if self._quiet_since is None:
            self._quiet_since = elapsed
        return elapsed - self._quiet_since >= self.patience


def _assemble(
    spec, backend, committee, metrics, *, n_nodes, count_comparable, adversary, **fields
) -> ScenarioResult:
    """The one place a :class:`ScenarioResult` is put together.

    Identity and counter fields derive from the committee and one
    message-counter object the same way for every backend (and for
    service workloads); ``fields`` carries the outcome, the fault
    counters, the backend's clock (``sim_time``/``sim_events`` or
    ``wall_seconds``) and the optional record sections.
    """
    return ScenarioResult(
        spec=spec,
        backend=backend,
        n_real=committee.n,
        n_nodes=n_nodes,
        weights_digest=committee.weights_digest,
        count_comparable=count_comparable,
        messages=metrics.messages,
        bytes=metrics.bytes,
        by_type=dict(metrics.by_type),
        bytes_by_type=dict(metrics.bytes_by_type),
        adversary=adversary.describe() if adversary is not None else None,
        **fields,
    )


def _chaos_section(spec, driver, completed: bool, section: dict, **postmortem) -> dict:
    """Close a run's ``chaos`` record section with the watchdog verdict
    (:func:`watchdog_section`) -- unless
    ``ChaosSpec.watchdog`` turned it off, on every backend alike.  The
    run already ended by the stop rule, so "not completed" is the stall;
    ``postmortem`` (``faults``, ``orchestrator``) feeds the bundle of a
    stalled run."""
    if spec.chaos.watchdog:
        section["watchdog"] = watchdog_section(
            expect_liveness=driver.expect_liveness, completed=completed, **postmortem
        )
    return section


def _finish(
    spec, driver, ctx: RunContext, backend, metrics, orchestrator, **clock
) -> ScenarioResult:
    """Read the finished single-process run into its record."""
    completed = driver.done(ctx)
    chaos = None
    if spec.chaos is not None:
        chaos = _chaos_section(
            spec, driver, completed, orchestrator.summary(),
            faults=ctx.faults, orchestrator=orchestrator,
        )
    return _assemble(
        spec, backend, driver.committee, metrics,
        n_nodes=driver.n_nodes,
        count_comparable=driver.count_comparable,
        adversary=driver.adversary,
        completed=completed,
        decided=driver.outputs(ctx),
        dropped_messages=ctx.faults.dropped_messages,
        delayed_messages=ctx.faults.delayed_messages,
        chaos=chaos,
        **clock,
    )


def run_scenario(
    spec: ScenarioSpec,
    *,
    backend: str = "sim",
    timeout: float = 60.0,
    committee=None,
    state_dir: Optional[str] = None,
) -> ScenarioResult:
    """Execute ``spec`` on ``backend`` and return the unified record.

    ``backend`` is ``"sim"`` (discrete-event, deterministic, virtual
    time), ``"inproc"`` (live asyncio queues), ``"tcp"`` (live sockets,
    one event loop), or ``"proc"`` (process-per-party over TCP).  Every
    backend arms the same fault plan and ends by the same stop rule
    (:class:`_StopRule`); a live run that is expected to complete but
    does not raises ``TimeoutError`` after ``timeout``, while the sim runs
    to quiescence and reports ``completed=False``.  ``committee`` lets a
    caller that already resolved the spec's weights (e.g. the CLI's
    weight sources) skip re-resolving the source.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; one of {BACKENDS}")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    if spec.workload.kind == "service":
        # Service workloads (open-loop load + committee rotation) have
        # their own driver stack; they return the same ScenarioResult.
        from ..service.scenario import run_service_spec

        if spec.protocol != "smr":
            raise ValueError("service workloads run on the smr protocol")
        return run_service_spec(
            spec, backend=backend, timeout=timeout, committee=committee
        )
    if backend == "proc":
        from ..parallel.proc import run_proc_scenario

        return run_proc_scenario(
            spec, timeout=timeout, committee=committee, state_dir=state_dir
        )
    driver = build_driver(spec, committee, state_dir=state_dir)
    faults = FaultController()

    if backend == "sim":
        from ..sim.network import UniformDelay
        from ..sim.runner import build_world

        world = build_world(
            driver.factory,
            driver.n_nodes,
            delay_model=UniformDelay(spec.net.delay_low, spec.net.delay_high),
            seed=spec.seed,
            faults=faults,
            committee=driver.committee,
        )
        ctx = _context(
            spec, driver, world.network.parties, world.simulator.schedule, faults
        )
        orchestrator = _arm(spec, driver, ctx, world.metrics)
        driver.start(ctx)
        world.run()  # to quiescence: how the sim meets the stop rule
        return _finish(
            spec, driver, ctx, backend, world.metrics, orchestrator,
            sim_time=world.simulator.now,
            sim_events=world.simulator.events_processed,
        )

    import asyncio
    import time

    from ..runtime.cluster import run_cluster

    rule = _StopRule(spec, driver)
    run: dict = {}

    def setup(cluster) -> None:
        run["t0"] = time.perf_counter()
        ctx = run["ctx"] = _context(
            spec,
            driver,
            dict(enumerate(cluster.parties)),
            _LiveSchedule(asyncio.get_running_loop().call_later),
            faults,
        )
        run["orchestrator"] = _arm(spec, driver, ctx, cluster.metrics)
        driver.start(ctx)

    def stop_when(cluster) -> bool:
        if run["ctx"].schedule.failure is not None:
            raise run["ctx"].schedule.failure
        return rule(
            time.perf_counter() - run["t0"],
            driver.done(run["ctx"]),
            cluster.quiescent,
            cluster.metrics.messages,
        )

    cluster = run_cluster(
        driver.factory,
        driver.n_nodes,
        transport=backend,
        faults=faults,
        setup=setup,
        stop_when=stop_when,
        timeout=timeout,
        committee=driver.committee,
    )
    return _finish(
        spec, driver, run["ctx"], backend, cluster.metrics, run["orchestrator"],
        wall_seconds=cluster.metrics.elapsed_seconds,
    )
