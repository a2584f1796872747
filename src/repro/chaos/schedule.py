"""Chaos schedules: typed fault stages fired by declarative triggers.

Pure data -- the (de)serializable half of the chaos engine, kept free of
scenario/harness imports so :mod:`repro.scenarios.spec` can embed a
:class:`ChaosSpec` without an import cycle.  The executable half lives in
:mod:`repro.chaos.orchestrator`, which interprets these specs against the
same :class:`~repro.runtime.faults.FaultController` and adversary hooks
every backend already shares.

A stage is ``(action, trigger, params)``.  Actions are the closed set
:data:`STAGE_ACTIONS` -- ``partition``, ``heal``, ``crash``, ``restart``,
``byzantine``, ``weather``, and ``load-surge`` -- checked when a stage is
built, as trigger kinds are.  Triggers fire on virtual/wall time
(``time``), a committed slot appearing in some honest log (``slot``), an
epoch rotation committing (``epoch``), or a metric predicate crossing a
threshold (``metric``); the non-time triggers are polled with a bounded
deadline so a schedule can never hang a run waiting for a condition that
an earlier fault made unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .weather import WeatherSpec

__all__ = ["STAGE_ACTIONS", "TriggerSpec", "ChaosStage", "ChaosSpec"]

#: trigger kinds the orchestrator knows how to arm
TRIGGER_KINDS = ("time", "slot", "epoch", "metric")

#: stage actions the orchestrator knows how to fire
STAGE_ACTIONS = (
    "partition", "heal", "crash", "restart", "byzantine", "weather", "load-surge"
)


def _freeze(value):
    """Recursively turn lists/dicts into tuples for frozen-dataclass params."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` for serialization: tuples back to lists."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class TriggerSpec:
    """When a stage fires.

    ``kind='time'``: at virtual time ``value`` (wall time on the live
    runtime -- the same clock the backend schedules everything else on).
    ``kind='slot'``: when committed slot ``value`` appears in any honest
    observer's log.  ``kind='epoch'``: when epoch ``value`` has committed
    at some honest observer.  ``kind='metric'``: when the named network
    metric reaches ``value``.  Non-time triggers are polled and give up
    (stage never fires, recorded as such) after ``deadline`` seconds.
    """

    kind: str = "time"
    value: float = 0.0
    metric: str = "messages"
    deadline: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in TRIGGER_KINDS:
            raise ValueError(
                f"unknown trigger kind {self.kind!r}; options: {TRIGGER_KINDS}"
            )
        if self.kind == "time" and self.value < 0:
            raise ValueError(f"time trigger cannot be negative: {self.value}")

    def to_dict(self) -> dict:
        record: dict = {"kind": self.kind, "value": self.value}
        if self.kind == "metric":
            record["metric"] = self.metric
        if self.kind != "time" and self.deadline != 5.0:
            record["deadline"] = self.deadline
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TriggerSpec":
        return cls(
            kind=record.get("kind", "time"),
            value=record.get("value", 0.0),
            metric=record.get("metric", "messages"),
            deadline=float(record.get("deadline", 5.0)),
        )


@dataclass(frozen=True)
class ChaosStage:
    """One step of a chaos timeline: do ``action`` when ``trigger`` fires.

    ``params`` is a tuple of ``(key, value)`` pairs (values recursively
    frozen) so the stage stays hashable; :meth:`param` reads one back.
    """

    action: str
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    params: Tuple = ()

    def __post_init__(self) -> None:
        if self.action not in STAGE_ACTIONS:
            raise ValueError(
                f"unknown chaos stage action {self.action!r}; "
                f"options: {STAGE_ACTIONS}"
            )

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict:
        record: dict = {"action": self.action, "trigger": self.trigger.to_dict()}
        if self.params:
            record["params"] = {k: _thaw(v) for k, v in self.params}
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ChaosStage":
        params = record.get("params", {})
        return cls(
            action=record["action"],
            trigger=TriggerSpec.from_dict(record.get("trigger", {})),
            params=tuple(sorted((k, _freeze(v)) for k, v in params.items())),
        )


@dataclass(frozen=True)
class ChaosSpec:
    """A full chaos plan: staged timeline + ambient weather + watchdog.

    ``stall_after`` is how long committed-slot progress and message flow
    may both be quiescent (with the run incomplete) before the watchdog
    declares a stall and assembles a postmortem.
    """

    stages: Tuple[ChaosStage, ...] = ()
    weather: Optional[WeatherSpec] = None
    watchdog: bool = True
    stall_after: float = 1.0

    def __post_init__(self) -> None:
        if self.stall_after <= 0:
            raise ValueError(f"stall_after must be positive: {self.stall_after}")

    # -- liveness reasoning ---------------------------------------------------------
    def partition_window(self) -> tuple:
        """``(start, heal)`` of the first time-triggered partition stage,
        with ``heal=None`` when no later heal stage exists (an unhealed
        partition -- expected no-liveness, the watchdog's stall case)."""
        start = None
        heal = None
        for stage in self.stages:
            if stage.trigger.kind != "time":
                continue
            if stage.action == "partition" and start is None:
                start = stage.trigger.value
            elif stage.action == "heal" and start is not None:
                if stage.trigger.value >= start:
                    heal = max(heal or 0.0, stage.trigger.value)
        return (start, heal)

    def heal_time(self) -> Optional[float]:
        """Latest heal time, or None if a partition never heals (or there
        is no partition at all)."""
        start, heal = self.partition_window()
        if start is None:
            return 0.0
        return heal

    def keeps_liveness(self) -> bool:
        """Whether a run under this plan is still expected to complete.

        False when a partition stage has no later heal, or when the
        ambient weather (or a weather stage) can lose messages outright
        -- loss is omission, which breaks the asynchrony assumption the
        liveness arguments rest on.
        """
        start, heal = self.partition_window()
        if start is not None and heal is None:
            return False
        if self.weather is not None and self.weather.any_loss:
            return False
        for stage in self.stages:
            if stage.action == "weather":
                spec = WeatherSpec.from_dict(dict(stage.param("weather", ())))
                if spec.any_loss:
                    return False
        return True

    def latest_time(self) -> float:
        """Latest time-triggered stage time (0.0 when none): the point
        after which the plan mutates nothing further on its own."""
        times = [s.trigger.value for s in self.stages if s.trigger.kind == "time"]
        deadlines = [s.trigger.deadline for s in self.stages
                     if s.trigger.kind != "time"]
        return max(times + deadlines + [0.0])

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> dict:
        record: dict = {}
        if self.stages:
            record["stages"] = [stage.to_dict() for stage in self.stages]
        if self.weather is not None:
            record["weather"] = self.weather.to_dict()
        if not self.watchdog:
            record["watchdog"] = False
        if self.stall_after != 1.0:
            record["stall_after"] = self.stall_after
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "ChaosSpec":
        weather = record.get("weather")
        return cls(
            stages=tuple(
                ChaosStage.from_dict(s) for s in record.get("stages", ())
            ),
            weather=WeatherSpec.from_dict(weather) if weather is not None else None,
            watchdog=bool(record.get("watchdog", True)),
            stall_after=float(record.get("stall_after", 1.0)),
        )
