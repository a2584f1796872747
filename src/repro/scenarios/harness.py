"""One harness, every backend: execute a :class:`ScenarioSpec` on the
discrete-event simulator or the live asyncio runtime.

The harness translates a declarative spec into the pieces an execution
backend needs -- a party factory, workload entry points, a completion
predicate, and a fault plan -- via the spec's driver: the protocol's,
looked up in :data:`repro.scenarios.drivers.DRIVERS`, or the epoch
service's for a ``kind="service"`` workload; nothing here names a
protocol.  Both backends
share one :class:`~repro.runtime.faults.FaultController` implementation
(the sim consults it at its delivery point, see
:mod:`repro.sim.network`), so a fault plan means the same thing on both;
a driver holds the plan as one compiled ``timeline``.

Every run follows one lifecycle, written once below: **arm** the fault
timeline on the backend's :class:`RunContext` (:func:`_arm`), **run** until
the one stop rule is met (:class:`_StopRule`), and **finish** by
assembling the record (:func:`_finish`).  What stays per backend is only
what truly differs: how parties and a clock are built, and how to wait.

There is one host of each kind, and it hosts generations of parties: a
:class:`~repro.sim.runner.SimHost` (one ``World`` per generation on one
simulator, virtual time) and a :class:`~repro.runtime.cluster.LiveHost`
(one ``Cluster`` on a live transport, wall time since the run started).
A batch driver is one generation, spawned before the plan is armed; the
epoch service spawns and retires its committees as it runs.  Only the
proc worker wires its single node itself, because its parent's commands
drive its life cycle.
A failure ends the run the same way everywhere.  A handler that raises
propagates out of ``World.run`` on the sim; on a live backend its node
records it and is handed nothing more, and the cluster's next poll
raises ``RuntimeError("node N failed while pumping messages")`` chained
to it (a proc worker reports it, and the parent raises ``ProcError``).
A scheduled callback that raises -- an epoch's workload, a chaos stage,
a trigger poll -- is kept by :class:`_LiveSchedule` and re-raised the
same way.

The result is a unified, JSON-able metrics record.  On the sim backend
the record is fully deterministic for a fixed seed -- byte-identical
across runs -- which the determinism regression test pins down.  Across
backends, the *decided values* must agree for fault-free scenarios, and
message counts too where the driver sets ``count_comparable``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..chaos.orchestrator import ChaosOrchestrator, watchdog_section
from ..chaos.schedule import compile_timeline
from ..runtime.faults import FaultController
from ..sim.process import Party
from .drivers import DRIVERS, ProtocolDriver
from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "RunContext", "run_scenario", "build_driver", "BACKENDS"]

#: execution backends ``run_scenario`` accepts; ``proc`` is
#: process-per-party (one OS process per node), orchestrated by
#: :mod:`repro.parallel.proc`
BACKENDS = ("sim", "inproc", "tcp", "proc")


@dataclass
class RunContext:
    """What a driver and the fault plan see of the running backend: the
    parties hosted here by node id (all of them on sim/inproc/tcp; a proc
    worker hosts exactly one), the live node ids, the fault controller
    every link consults, a scenario-time scheduler (sim: virtual
    seconds via the simulator; runtime: wall seconds via
    ``loop.call_later``), and the host whose clock and generations
    :meth:`now`, :meth:`spawn` and :meth:`retire` reach (none in a proc
    worker, which wires its one party itself)."""

    parties: Mapping[int, Party]
    live_nodes: tuple[int, ...]
    schedule: Callable[[float, Callable[[], None]], None]
    faults: FaultController
    host: Optional[object] = None

    def now(self) -> float:
        return self.host.now()

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule(max(delay, 0.0), fn)

    def spawn(self, factory: Callable[[int], Party], n: int, *, seed=None) -> list[Party]:
        """Host parties ``0 .. n-1`` as a new generation."""
        return self.host.spawn(factory, n, seed=seed)

    def retire(self, group: list[Party]) -> None:
        self.host.retire(group)

    def wake(self) -> None:
        """Have a live stop poll look now."""
        self.host.wake()

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
    backend: str = "sim",
    timeout: float = 60.0,
    validate: bool = True,
    state_dir: Optional[str] = None,
) -> ProtocolDriver:
    """Construct the spec's driver (committee resolved, adversary wired)
    for one run of at most ``timeout`` seconds on ``backend``, which it
    may refuse: the protocol's, or for a ``kind="service"`` workload a
    :class:`~repro.service.scenario.ServiceDriver`.

    Every piece is a deterministic function of the spec, which is what
    makes the ``proc`` backend possible: each worker process rebuilds an
    *identical* driver -- same committee, same corruption set, same key
    material (the checkpoint dealing draws from ``random.Random(seed)``) --
    from nothing but the pickled spec dict.  Workers pass
    ``validate=False`` because the parent already vetted the spec.
    """
    from ..api.committee import Committee

    if spec.workload.kind == "service":
        # imported on use: the service loads the protocol modules, which
        # importing the scenario engine must not
        from ..service.scenario import ServiceDriver

        driver_cls = ServiceDriver
    else:
        driver_cls = DRIVERS[spec.protocol]
    if validate:
        driver_cls.check(spec, backend)
    if committee is None:
        committee = Committee.from_weight_spec(spec.weights, seed=spec.seed)
    nominal = driver_cls.nominal(spec)
    if validate:
        committee.validate(
            # Restarted parties are down for a window, so the crash
            # budget must cover crashes and restarts *together* -- the
            # conservative check for the worst moment of the run.
            f_w=spec.f_w if driver_cls.uses_f_w else None,
            # nominal quorums count parties down, not weight
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

        adversary = Adversary(spec, committee, protocol=driver_cls.attacked_as)
    driver = driver_cls(spec, committee, adversary)
    driver.state_dir = state_dir
    driver.timeout = timeout
    if adversary is not None:
        # Corrupt at construction: every backend builds every party
        # through this factory, so the corruption is backend-agnostic.
        driver.factory = adversary.wrap_factory(driver.factory)
    return driver


# -- the run lifecycle: arm, stop rule, finish -------------------------------------------


def _context(spec, driver, parties, schedule, faults, host=None) -> RunContext:
    """The backend's :class:`RunContext` over ``parties`` (node id ->
    hosted party); the live nodes are the spec's, in node-id terms."""
    crashed = {nid for pid in spec.faults.crashes for nid in driver.map_pid(pid)}
    live_nodes = tuple(nid for nid in range(driver.n_nodes) if nid not in crashed)
    if not live_nodes:
        raise ValueError("fault plan crashes every node; nothing left to run")
    return RunContext(
        parties=parties, live_nodes=live_nodes, schedule=schedule, faults=faults, host=host
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
    to quiescence so trailing messages are counted, as on the sim -- or
    end at once, for a driver that does not drain (the epoch service).
    """

    def __init__(self, spec, driver) -> None:
        #: the latest scenario time anything is scheduled to fire: the
        #: start of an epoch the driver fires, or a timeline stage
        starts = [spec.workload.start_time(e) for e in range(driver.epochs)]
        self.horizon = max(starts + [driver.timeline.latest_time()])
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
    message-counter object the same way for every backend; ``fields``
    carries the outcome, the fault counters, the backend's clock
    (``sim_time``/``sim_events`` or ``wall_seconds``) and the optional
    record sections.
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
    completed = driver.completed(ctx)
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
        **driver.sections(ctx),
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
    to quiescence and reports ``completed=False`` (a service workload
    ends itself at ``timeout``, failed, on both).  ``committee`` lets a
    caller that already resolved the spec's weights (e.g. the CLI's
    weight sources) skip re-resolving the source.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; one of {BACKENDS}")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    if backend == "proc":
        from ..parallel.proc import run_proc_scenario

        return run_proc_scenario(
            spec, timeout=timeout, committee=committee, state_dir=state_dir
        )
    driver = build_driver(
        spec, committee, backend=backend, timeout=timeout, state_dir=state_dir
    )
    faults = FaultController()
    if backend == "sim":
        from ..sim.network import UniformDelay
        from ..sim.runner import SimHost

        delays = UniformDelay(spec.net.delay_low, spec.net.delay_high)
        host = SimHost(spec.seed, delay_model=delays, faults=faults)
        schedule = host.simulator.schedule
    else:
        from ..runtime.cluster import Cluster, LiveHost

        host = LiveHost(Cluster(transport=backend, faults=faults))
        schedule = _LiveSchedule(host.call_later)
    ctx = _context(spec, driver, {}, schedule, faults, host)
    driver.spawn(ctx)  # before the plan is armed: a crash at 0 finds its party
    rule = _StopRule(spec, driver)
    armed = []

    def setup() -> None:
        armed.append(_arm(spec, driver, ctx, host.metrics))
        driver.start(ctx)

    def stop_when() -> bool:
        # a live callback's exception (the simulator raises it at once)
        failure = getattr(schedule, "failure", None)
        if failure is not None:
            raise failure
        return rule(ctx.now(), driver.done(ctx), host.quiescent, host.metrics.messages)

    host.run(setup, stop_when, timeout=timeout, poll=driver.poll, drain=driver.drains)
    if backend == "sim":
        simulator = host.simulator
        clock = {"sim_time": simulator.now, "sim_events": simulator.events_processed}
    else:
        clock = {"wall_seconds": host.metrics.elapsed_seconds}
    return _finish(spec, driver, ctx, backend, host.metrics, armed[0], **clock)
