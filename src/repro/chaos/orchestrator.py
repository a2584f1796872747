"""The chaos engine's executable half: fire stages, mutate faults.

A :class:`ChaosOrchestrator` interprets a :class:`~repro.chaos.schedule.ChaosSpec`
against the *existing* fault machinery -- the shared
:class:`~repro.runtime.faults.FaultController`, the party objects, and
the adversary hooks -- so a staged attack means exactly the same thing on
the sim, the in-process runtime, and the process-per-party mesh.  Nothing
here duplicates fault semantics; every action resolves to a call the
flat fault plans already make, just later and conditionally.

Stage actions are registry-extensible: :func:`register_stage_action` adds
a handler ``fn(orchestrator, stage)`` under a new action name, and specs
referring to it replay everywhere the registry is imported.

On the proc backend every worker arms its own orchestrator over a run
context that hosts exactly one party: fault-controller mutations
(partition, heal, weather, transport-level crash) apply in every worker
-- each controller must agree on the plan -- while party-level effects
(the crash itself, restarts, staged corruption, surge proposals) reach
only the hosted party.  Non-time triggers are polled per worker against
local state; a chaos restart on proc is a *soft* restart (party-level,
in-process) -- real SIGKILL respawns remain the crash-restart plan's job
(``spec.faults.restarts``).
"""

from __future__ import annotations

from typing import Callable, Optional

from .schedule import ChaosSpec, ChaosStage, TriggerSpec
from .weather import NetworkWeather, WeatherSpec

__all__ = [
    "STAGE_ACTIONS",
    "register_stage_action",
    "ChaosOrchestrator",
    "StagedAdversary",
    "count_duplicate_commits",
]

#: action name -> ``handler(orchestrator, stage)``
STAGE_ACTIONS: dict[str, Callable] = {}

#: poll interval for slot/epoch/metric triggers (scenario seconds)
POLL_INTERVAL = 0.05


def register_stage_action(name: str) -> Callable:
    """Register a chaos stage action (decorator); last writer wins, so a
    plugin can also override a built-in."""

    def decorate(fn: Callable) -> Callable:
        STAGE_ACTIONS[name] = fn
        return fn

    return decorate


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


class ChaosOrchestrator:
    """Arm one scenario's chaos plan on one backend instance.

    Construction is pure; :meth:`install` wires triggers into the run
    context and is the only entry point a backend calls.  ``fired`` and
    ``gave_up`` track each stage for the record and the postmortem.
    """

    def __init__(self, spec, driver) -> None:
        self.spec = spec  # the full ScenarioSpec
        self.chaos: ChaosSpec = spec.chaos
        if self.chaos is None:
            raise ValueError("scenario has no chaos section")
        self.driver = driver
        self.fired = [False] * len(self.chaos.stages)
        self.gave_up = [False] * len(self.chaos.stages)
        self.current_index: Optional[int] = None
        self.ctx = None
        self.faults = None
        self.metrics = None

    # -- wiring -------------------------------------------------------------------
    def install(self, ctx, *, metrics=None) -> None:
        """Arm every stage trigger and the ambient weather on ``ctx``
        (its fault controller, its scheduler, the parties it hosts);
        ``metrics`` is the backend's message counters, for metric triggers."""
        self.ctx = ctx
        self.faults = ctx.faults
        self.metrics = metrics
        if self.chaos.weather is not None:
            self.faults.weather = NetworkWeather(
                self.chaos.weather, seed=self.spec.seed
            )
        for index, stage in enumerate(self.chaos.stages):
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
                self.ctx.schedule(POLL_INTERVAL, lambda: poll(remaining - 1))

        poll(budget)

    def _fire(self, index: int, stage: ChaosStage) -> None:
        handler = STAGE_ACTIONS.get(stage.action)
        if handler is None:
            raise ValueError(
                f"unknown chaos stage action {stage.action!r}; "
                f"options: {sorted(STAGE_ACTIONS)}"
            )
        self.fired[index] = True
        self.current_index = index  # handlers that need it (byzantine stages)
        handler(self, stage)

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

    # -- helpers for stage handlers ------------------------------------------------
    def map_nids(self, pids) -> list[int]:
        return [nid for pid in pids for nid in self.driver.map_pid(pid)]

    def in_scope(self, nid: int) -> bool:
        """Whether party-level effects on ``nid`` apply here (the run
        context hosts it: always, except on a one-party proc worker)."""
        return nid in self.ctx.parties

    # -- record section ------------------------------------------------------------
    def describe_stages(self) -> list:
        out = []
        for stage, fired, gave_up in zip(self.chaos.stages, self.fired, self.gave_up):
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


# -- built-in stage actions -------------------------------------------------------------


@register_stage_action("partition")
def _stage_partition(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    groups = stage.param("groups", ())
    mapped = [frozenset(orch.map_nids(group)) for group in groups]
    orch.faults.partition(*mapped)


@register_stage_action("heal")
def _stage_heal(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    orch.faults.heal()


@register_stage_action("crash")
def _stage_crash(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    for nid in orch.map_nids(stage.param("pids", ())):
        orch.ctx.crash(nid)


@register_stage_action("restart")
def _stage_restart(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    for nid in orch.map_nids(stage.param("pids", ())):
        orch.ctx.restart(nid)
        if orch.in_scope(nid):
            orch.driver.restart_node(orch.ctx, nid)


@register_stage_action("byzantine")
def _stage_byzantine(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    adversary = orch.driver.adversary
    if adversary is None or not isinstance(adversary, StagedAdversary):
        raise ValueError(
            "a 'byzantine' chaos stage needs the StagedAdversary the "
            "harness builds for chaos specs"
        )
    adversary.activate(stage, orch)


@register_stage_action("weather")
def _stage_weather(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    spec = WeatherSpec.from_dict(dict(stage.param("weather", ())))
    orch.faults.weather = NetworkWeather(spec, seed=orch.spec.seed)


@register_stage_action("load-surge")
def _stage_load_surge(orch: ChaosOrchestrator, stage: ChaosStage) -> None:
    from ..scenarios.harness import _payload

    extra = int(stage.param("epochs", 1))
    base = orch.spec.workload.epochs
    driver = orch.driver
    # Completion never waits on surge epochs (they are load, not claims),
    # but the idempotence counter scans them.
    driver.surge_epochs = max(getattr(driver, "surge_epochs", 0), extra)
    for offset in range(extra):
        epoch = base + offset
        for nid in orch.ctx.live_nodes:
            if not orch.in_scope(nid):
                continue
            party = orch.ctx.party(nid)
            if hasattr(party, "propose_batch"):
                party.propose_batch(epoch, _payload(orch.spec, nid, epoch))


# -- the staged adversary ---------------------------------------------------------------


def _staged_entries(chaos: ChaosSpec) -> list:
    """(stage index, strategy name, params) of every byzantine stage."""
    out = []
    for index, stage in enumerate(chaos.stages):
        if stage.action == "byzantine":
            out.append((index, stage.param("strategy"), stage.param("params", ())))
    return out


class StagedAdversary:
    """An adversary whose corruptions can arrive *mid-run*.

    Extends the flat :class:`~repro.adversary.strategies.Adversary` with
    the chaos schedule's ``byzantine`` stages: their strategies are
    materialized up front (the corrupted set must be deterministic and
    budget-checked before the run), but their ``corrupt_party`` patches
    are applied only when the stage fires.  ``corrupted`` reports the
    *merged* set -- a party that will be corrupted later carries no
    correctness claim for any part of the run, the conservative reading.

    ``expect_liveness`` is the conjunction of the base strategies', the
    staged strategies', and the chaos plan's own
    :meth:`~repro.chaos.schedule.ChaosSpec.keeps_liveness`.
    """

    def __init__(self, spec, committee, *, protocol: Optional[str] = None) -> None:
        from ..adversary.strategies import STRATEGIES, Adversary, StrategyContext
        from ..api.committee import CommitteeValidationError
        from ..core.types import as_fraction
        from ..sim.adversary import corrupt_weight_fraction

        self._base = Adversary(spec, committee, protocol=protocol)
        self.spec = spec
        self.committee = committee
        self.protocol = self._base.protocol
        chaos: ChaosSpec = spec.chaos
        self.chaos = chaos
        weights = tuple(committee.int_weights)
        f_w = as_fraction(spec.f_w)
        #: stage index -> materialized (but not yet applied) strategy
        self.staged: dict[int, object] = {}
        for index, name, params in _staged_entries(chaos):
            cls = STRATEGIES.get(name)
            if cls is None:
                raise ValueError(
                    f"unknown staged byzantine strategy {name!r}; "
                    f"options: {sorted(STRATEGIES)}"
                )
            ctx = StrategyContext(
                committee=committee,
                weights=weights,
                f_w=f_w,
                protocol=self.protocol,
                seed=spec.seed,
                params=tuple(params),
            )
            self.staged[index] = cls(ctx)
        self.corrupted = frozenset(self._base.corrupted).union(
            *(s.corrupted for s in self.staged.values())
        ) if self.staged else frozenset(self._base.corrupted)
        # Re-validate the budget over everything that can be down or lying
        # at once: corrupted (flat + staged), crashed, and chaos-crashed.
        chaos_crashes = {
            pid
            for stage in chaos.stages
            if stage.action == "crash"
            for pid in stage.param("pids", ())
        }
        budget_set = set(self.corrupted) | set(spec.faults.crashes) | chaos_crashes
        self.corrupted_weight = corrupt_weight_fraction(weights, budget_set)
        if budget_set and self.corrupted_weight >= f_w:
            raise CommitteeValidationError(
                f"staged corrupted+crashed weight {self.corrupted_weight} is "
                f"not strictly below the f_w={f_w} adversary budget"
            )
        self.expect_liveness = (
            self._base.expect_liveness
            and all(s.keeps_liveness() for s in self.staged.values())
            and chaos.keeps_liveness()
        )
        #: stage indices whose corruption has been applied (per backend
        #: instance; postmortem material, not record material)
        self.activated: list[int] = []

    # -- flat-adversary surface (delegation) ----------------------------------------
    @property
    def strategies(self):
        return self._base.strategies

    @property
    def sender_override(self):
        return self._base.sender_override

    def wrap_factory(self, factory: Callable) -> Callable:
        # Only the *flat* strategies corrupt at construction; staged ones
        # wait for their stage to fire.
        return self._base.wrap_factory(factory)

    def install_network_faults(self, faults, map_pid) -> None:
        self._base.install_network_faults(faults, map_pid)

    def wrap_handover_factory(self, factory, **kwargs):
        return self._base.wrap_handover_factory(factory, **kwargs)

    def describe(self) -> dict:
        record = self._base.describe()
        record["corrupted"] = sorted(self.corrupted)
        record["corrupted_weight"] = str(self.corrupted_weight)
        record["expect_liveness"] = self.expect_liveness
        record["staged"] = [
            {"stage": index, "strategy": strategy.name}
            for index, strategy in sorted(self.staged.items())
        ]
        return record

    # -- stage activation -----------------------------------------------------------
    def activate(self, stage: ChaosStage, orch: ChaosOrchestrator) -> None:
        """Apply one byzantine stage's corruption now (mid-run)."""
        index = orch.current_index
        strategy = self.staged.get(index)
        if strategy is None:  # pragma: no cover -- _fire guards the action
            return
        strategy.install_network_faults(orch.faults, orch.driver.map_pid)
        for pid in sorted(strategy.corrupted):
            for nid in orch.driver.map_pid(pid):
                if orch.in_scope(nid):
                    strategy.corrupt_party(orch.ctx.party(nid), nid)
        self.activated.append(index)
