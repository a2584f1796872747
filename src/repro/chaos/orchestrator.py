"""The chaos engine's executable half: fire stages, mutate faults, and
classify how the run ended.

A :class:`ChaosOrchestrator` is the one interpreter of a fault plan: it
arms a :class:`~repro.chaos.schedule.FaultTimeline` (the flat
:class:`~repro.scenarios.spec.FaultSpec` compiled into stages, then the
chaos plan's own) against the shared
:class:`~repro.runtime.faults.FaultController`, the party objects, and
the adversary hooks, so a fault means exactly the same thing on the sim,
the in-process runtime, and the process-per-party mesh.

Stage actions are a closed set (:data:`~repro.chaos.schedule.STAGE_ACTIONS`,
checked when a stage is built, so a misspelt action fails at spec
construction rather than when its stage fires); :meth:`ChaosOrchestrator._fire`
is the one place each resolves to a call.  A ``byzantine`` stage applies
the strategy the run's one :class:`~repro.adversary.strategies.Adversary`
materialized and budget-checked for it before the run.

On the proc backend every worker arms its own orchestrator over a run
context that hosts exactly one party: fault-controller mutations
(partition, heal, weather, transport-level crash) apply in every worker
-- each controller must agree on the plan -- while party-level effects
(the crash itself, restarts, staged corruption, surge proposals) reach
only the hosted party.  Non-time triggers are polled per worker against
local state; a chaos restart on proc is a *soft* restart (party-level,
in-process) -- real SIGKILL respawns remain the flat crash-restart
plan's job (``spec.faults.restarts``, compiled out of a worker's timeline).

:func:`watchdog_section` is the liveness watchdog.  A run under chaos
can legitimately never complete (an unhealed partition below the deliver
quorum, weather that loses messages, an equivocating sender) -- that is
*expected no-liveness*, and the interesting question is only what state
the cluster froze in.  A run that was expected to complete but did not
is a *genuine stall* -- a bug in the protocol or the harness.  *When* a
run ends is the harness's one stop rule
(:class:`repro.scenarios.harness._StopRule`), so a run that ended
without completing *is* the stall; the watchdog only classifies it and
assembles a postmortem bundle (per-link last-N message trace, fault and
weather counters, the chaos timeline with fired flags) that rides on the
scenario record instead of a bare ``TimeoutError``.
"""

from __future__ import annotations

from typing import Optional

from .schedule import ChaosStage, FaultTimeline, TriggerSpec
from .weather import NetworkWeather, WeatherSpec

__all__ = ["ChaosOrchestrator", "count_duplicate_commits", "watchdog_section"]

#: poll interval for slot/epoch/metric triggers (scenario seconds)
POLL_INTERVAL = 0.05


def count_duplicate_commits(driver, ctx) -> int:
    """Total duplicate entries (same proposer twice in one epoch's log)
    across every observer -- the delivery-idempotence invariant's counter.
    Zero on protocols without an ordered log."""
    total = 0
    surge = getattr(driver, "surge_epochs", 0)
    epochs = range(driver.spec.workload.epochs + surge)
    for nid in driver.observers(ctx):
        if nid not in ctx.parties:
            continue  # a proc worker counts only the party it hosts
        party = ctx.party(nid)
        if not hasattr(party, "ordered_log"):
            return 0
        for e in epochs:
            log = party.ordered_log(e)
            total += len(log) - len({proposer for proposer, _ in log})
    return total


def watchdog_section(
    *, expect_liveness: bool, completed: bool, faults=None, orchestrator=None
) -> dict:
    """The ``watchdog`` record section of a run that ended by the stop
    rule.  A ``classification`` and a ``postmortem`` appear only for a
    stalled run (keeping completed records deterministic across
    backends); ``faults`` and ``orchestrator`` feed the postmortem."""
    section: dict = {"stalled": not completed, "expect_liveness": expect_liveness}
    if completed:
        return section
    section["classification"] = "stall" if expect_liveness else "expected-no-liveness"
    postmortem: dict = {}
    if orchestrator is not None:
        postmortem["stages"] = orchestrator.describe_stages()
    if faults is not None:
        postmortem["dropped_messages"] = faults.dropped_messages
        postmortem["delayed_messages"] = faults.delayed_messages
        postmortem["partitioned"] = faults.partitioned
        postmortem["crashed"] = sorted(faults.crashed)
        postmortem["trace"] = [list(entry) for entry in faults.trace]
        if faults.weather is not None:
            postmortem["weather"] = faults.weather.describe()
    section["postmortem"] = postmortem
    return section


class ChaosOrchestrator:
    """Arm one scenario's fault timeline on one backend instance.

    Construction is pure; :meth:`install` wires triggers into the run
    context and is the only entry point a backend calls; ``timeline``
    defaults to the driver's.  ``fired`` and ``gave_up`` track each stage
    for the record and the postmortem, which list ``spec.chaos``'s only.
    """

    def __init__(self, spec, driver, timeline: Optional[FaultTimeline] = None) -> None:
        self.spec = spec  # the full ScenarioSpec
        self.driver = driver
        self.timeline = driver.timeline if timeline is None else timeline
        self.fired = [False] * len(self.timeline.stages)
        self.gave_up = [False] * len(self.timeline.stages)
        self.ctx = None
        self.faults = None
        self.metrics = None

    # -- wiring -------------------------------------------------------------------
    def install(self, ctx, *, metrics=None) -> None:
        """Arm the ambient state (link delays, the flat adversary's
        network faults, weather), then every stage trigger, on ``ctx``;
        ``metrics`` is the backend's message counters, for metric triggers."""
        self.ctx = ctx
        self.faults = ctx.faults
        self.metrics = metrics
        for src, dst, delay in self.timeline.link_delays:
            for s in self.map_nids((src,)):
                for d in self.map_nids((dst,)):
                    self.faults.delay_link(s, d, delay)
        if self.driver.adversary is not None:
            self.driver.adversary.install_network_faults(
                self.faults, self.driver.map_pid
            )
        if self.timeline.weather is not None:
            self.faults.weather = NetworkWeather(
                self.timeline.weather, seed=self.spec.seed
            )
        for index, stage in enumerate(self.timeline.stages):
            self._arm(index, stage)

    def _arm(self, index: int, stage: ChaosStage) -> None:
        trigger = stage.trigger
        if trigger.kind == "time":
            self.ctx.at(trigger.value, lambda: self._fire(index, stage))
            return
        budget = max(1, int(trigger.deadline / POLL_INTERVAL))

        def poll(remaining: int) -> None:
            if self.fired[index]:
                return
            if self._satisfied(trigger):
                self._fire(index, stage)
            elif remaining <= 1:
                self.gave_up[index] = True
            else:
                self.ctx.call_later(POLL_INTERVAL, lambda: poll(remaining - 1))

        poll(budget)

    def _fire(self, index: int, stage: ChaosStage) -> None:
        """Do stage ``index``'s action now."""
        self.fired[index] = True
        action = stage.action
        if action == "partition":
            groups = stage.param("groups", ())
            self.faults.partition(*(frozenset(self.map_nids(g)) for g in groups))
        elif action == "heal":
            self.faults.heal()
        elif action == "crash":
            for nid in self.map_nids(stage.param("pids", ())):
                self.ctx.crash(nid)
        elif action == "restart":
            for nid in self.map_nids(stage.param("pids", ())):
                self.ctx.restart(nid)
                if self.in_scope(nid):
                    self.driver.restart_node(self.ctx, nid)
        elif action == "byzantine":  # numbered as in spec.chaos
            self.driver.adversary.activate(index - self.timeline.flat, self)
        elif action == "weather":
            spec = WeatherSpec.from_dict(dict(stage.param("weather", ())))
            self.faults.weather = NetworkWeather(spec, seed=self.spec.seed)
        else:  # "load-surge", the last of STAGE_ACTIONS
            self._surge(int(stage.param("epochs", 1)))

    def _surge(self, extra: int) -> None:
        """Every hosted live party proposes ``extra`` epochs past the
        workload's."""
        from ..scenarios.drivers import payload

        # Completion never waits on surge epochs (they are load, not claims),
        # but the idempotence counter scans them.
        driver = self.driver
        driver.surge_epochs = max(getattr(driver, "surge_epochs", 0), extra)
        base = self.spec.workload.epochs
        for epoch in range(base, base + extra):
            for nid in self.ctx.live_nodes:
                if not self.in_scope(nid):
                    continue
                party = self.ctx.party(nid)
                if hasattr(party, "propose_batch"):
                    party.propose_batch(epoch, payload(self.spec, nid, epoch))

    # -- trigger predicates --------------------------------------------------------
    def _scoped_observers(self) -> list[int]:
        return [nid for nid in self.driver.observers(self.ctx) if self.in_scope(nid)]

    def _satisfied(self, trigger: TriggerSpec) -> bool:
        if trigger.kind == "slot":
            epochs = range(self.spec.workload.epochs)
            for nid in self._scoped_observers():
                party = self.ctx.party(nid)
                if not hasattr(party, "ordered_log"):
                    continue
                committed = sum(len(party.ordered_log(e)) for e in epochs)
                if committed >= trigger.value:
                    return True
            return False
        if trigger.kind == "epoch":
            for nid in self._scoped_observers():
                party = self.ctx.party(nid)
                if hasattr(party, "ordered_log") and party.ordered_log(
                    int(trigger.value)
                ):
                    return True
            return False
        if trigger.kind == "metric":
            for source in (self.metrics, self.faults):
                value = getattr(source, trigger.metric, None)
                if value is not None:
                    return value >= trigger.value
            return False
        raise ValueError(f"unarmed trigger kind {trigger.kind!r}")

    # -- helpers for stage actions -------------------------------------------------
    def map_nids(self, pids) -> list[int]:
        return [nid for pid in pids for nid in self.driver.map_pid(pid)]

    def in_scope(self, nid: int) -> bool:
        """Whether party-level effects on ``nid`` apply here (the run
        context hosts it: always, except on a one-party proc worker)."""
        return nid in self.ctx.parties

    # -- record section ------------------------------------------------------------
    def describe_stages(self) -> list:
        flat = self.timeline.flat
        out = []
        for stage, fired, gave_up in zip(
            self.timeline.stages[flat:], self.fired[flat:], self.gave_up[flat:]
        ):
            entry = {
                "action": stage.action,
                "trigger": stage.trigger.to_dict(),
                "fired": fired,
            }
            if gave_up:
                entry["gave_up"] = True
            out.append(entry)
        return out

    def summary(self) -> dict:
        """The deterministic ``chaos`` record section of a finished run."""
        section: dict = {"stages": self.describe_stages()}
        if self.faults is not None and self.faults.weather is not None:
            section["weather"] = self.faults.weather.describe()
        section["duplicate_commits"] = count_duplicate_commits(
            self.driver, self.ctx
        )
        return section
