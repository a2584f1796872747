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
timeline on the backend's host (:func:`_arm`), **run** until the one
stop rule is met (:class:`_StopRule`), and **finish** by assembling the
record (:func:`_finish`).  What stays per backend is only what truly
differs: how parties and a clock are built, and how to wait.

There is one host of each kind, and it is all a driver and the fault
plan see of the run: a :class:`~repro.sim.runner.SimHost` (one network
per generation on one simulator, virtual time) and a
:class:`~repro.runtime.cluster.Cluster` (on a live transport, wall time
since the run started).  Both have one surface: the clock (``now``,
``call_later``), the generations (``spawn``, ``retire``), the hosted
parties (``party``, ``parties``, ``hosts``), ``wake``, ``metrics`` and
the ``faults`` controller every link consults.  A batch driver is one
generation, spawned before the plan is armed; the epoch service spawns
and retires its committees as it runs.  A proc worker spawns the same
generation on a ``Cluster`` that hosts only its own node, whose life
cycle its parent's commands drive.
A failure ends the run the same way everywhere.  A handler that raises
propagates out of ``SimHost.run`` on the sim; on a live backend its node
records it and is handed nothing more, and the cluster's next poll
raises ``RuntimeError("node N failed while pumping messages")`` chained
to it (a proc worker reports it, and the parent raises ``ProcError``).
A scheduled callback that raises -- an epoch's workload, a chaos stage,
a trigger poll -- is kept by ``Cluster.call_later`` and re-raised by
that same poll.

The result is a unified, JSON-able metrics record.  On the sim backend
the record is fully deterministic for a fixed seed -- byte-identical
across runs -- which the determinism regression test pins down.  Across
backends, the *decided values* must agree for fault-free scenarios, and
message counts too where the driver sets ``count_comparable``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..chaos.orchestrator import ChaosOrchestrator, watchdog_section
from ..chaos.schedule import compile_timeline
from ..runtime.faults import FaultController
from .drivers import DRIVERS, ProtocolDriver
from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "run_scenario", "build_driver", "BACKENDS"]

#: execution backends ``run_scenario`` accepts; ``proc`` is
#: process-per-party (one OS process per node), orchestrated by
#: :mod:`repro.parallel.proc`
BACKENDS = ("sim", "inproc", "tcp", "proc")


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
    if not driver.live_nodes:
        raise ValueError("fault plan crashes every node; nothing left to run")
    driver.state_dir = state_dir
    driver.timeout = timeout
    if adversary is not None:
        # Corrupt at construction: every backend builds every party
        # through this factory, so the corruption is backend-agnostic.
        driver.factory = adversary.wrap_factory(driver.factory)
    return driver


# -- the run lifecycle: arm, stop rule, finish -------------------------------------------


def _arm(spec, driver, host, *, restart_timers: bool = True):
    """Arm the spec's whole fault plan on one backend instance: install
    one :class:`~repro.chaos.orchestrator.ChaosOrchestrator`, the plan's
    one interpreter, over the driver's compiled timeline, and return it.

    A proc worker arms the *full* plan too -- every worker's controller
    must agree, and only the (src, dst == its node) decisions ever fire
    there, so per-worker drop and delay counts sum to the single-process
    totals -- while party-level effects reach only the party its cluster
    hosts.  It passes ``restart_timers=False``, compiling the flat
    crash-restart plan out: that is real process death, the parent's job.
    """
    timeline = None if restart_timers else compile_timeline(spec, restarts=False)
    orchestrator = ChaosOrchestrator(spec, driver, timeline)
    orchestrator.install(host)
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


def _finish(spec, driver, host, backend, orchestrator, **clock) -> ScenarioResult:
    """Read the finished single-process run into its record."""
    completed = driver.completed(host)
    chaos = None
    if spec.chaos is not None:
        chaos = _chaos_section(
            spec, driver, completed, orchestrator.summary(),
            faults=host.faults, orchestrator=orchestrator,
        )
    return _assemble(
        spec, backend, driver.committee, host.metrics,
        n_nodes=driver.n_nodes,
        count_comparable=driver.count_comparable,
        adversary=driver.adversary,
        completed=completed,
        decided=driver.outputs(host),
        dropped_messages=host.faults.dropped_messages,
        delayed_messages=host.faults.delayed_messages,
        chaos=chaos,
        **driver.sections(host),
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
        from ..parallel.proc import ProcCluster

        return ProcCluster(
            spec, timeout=timeout, committee=committee, state_dir=state_dir
        ).run()
    driver = build_driver(
        spec, committee, backend=backend, timeout=timeout, state_dir=state_dir
    )
    if backend == "sim":
        from ..sim.network import UniformDelay
        from ..sim.runner import SimHost

        delays = UniformDelay(spec.net.delay_low, spec.net.delay_high)
        host = SimHost(seed=spec.seed, delay_model=delays, faults=FaultController())
    else:
        from ..runtime.cluster import Cluster

        host = Cluster(transport=backend)
    driver.spawn(host)  # before the plan is armed: a crash at 0 finds its party
    rule = _StopRule(spec, driver)
    armed = []

    def setup() -> None:
        armed.append(_arm(spec, driver, host))
        driver.start(host)

    def stop_when() -> bool:
        return rule(host.now(), driver.done(host), host.quiescent, host.metrics.messages)

    host.run(setup, stop_when, timeout=timeout, poll=driver.poll, drain=driver.drains)
    if backend == "sim":
        simulator = host.simulator
        clock = {"sim_time": simulator.now, "sim_events": simulator.events_processed}
    else:
        clock = {"wall_seconds": host.metrics.elapsed_seconds}
    return _finish(spec, driver, host, backend, armed[0], **clock)
