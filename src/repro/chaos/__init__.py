"""Chaos orchestration: staged fault timelines, network weather, and a
liveness watchdog.

The data layer (:mod:`~repro.chaos.weather`, :mod:`~repro.chaos.schedule`,
with the closed set of stage actions) imports eagerly --
:mod:`repro.scenarios.spec` embeds it.  The executable layer
(:mod:`~repro.chaos.orchestrator`: the orchestrator and the watchdog's
:func:`watchdog_section`) loads lazily via PEP 562: it reaches into the
harness package, which itself imports the spec (and hence this package),
so an eager import here would cycle.  Staged corruption is not here: the
run's one :class:`~repro.adversary.strategies.Adversary` materializes a
``byzantine`` stage's strategy and applies it when the stage fires.
"""

from .schedule import STAGE_ACTIONS, ChaosSpec, ChaosStage, TriggerSpec
from .weather import NetworkWeather, WeatherDecision, WeatherSpec

__all__ = [
    "ChaosSpec",
    "ChaosStage",
    "TriggerSpec",
    "STAGE_ACTIONS",
    "WeatherSpec",
    "WeatherDecision",
    "NetworkWeather",
    "ChaosOrchestrator",
    "count_duplicate_commits",
    "watchdog_section",
]

_ORCHESTRATOR_EXPORTS = (
    "ChaosOrchestrator",
    "count_duplicate_commits",
    "watchdog_section",
)


def __getattr__(name: str):
    if name in _ORCHESTRATOR_EXPORTS:
        from . import orchestrator

        return getattr(orchestrator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
