"""Chaos orchestration: staged fault timelines, network weather, and a
liveness watchdog.

The data layer (:mod:`~repro.chaos.weather`, :mod:`~repro.chaos.schedule`,
with the closed set of stage actions and the compiler of a flat fault
plan into one timeline) is what :mod:`repro.scenarios.spec` embeds; the
executable layer (:mod:`~repro.chaos.orchestrator`: the one interpreter
of that timeline, and the watchdog's :func:`watchdog_section`) imports
nothing above this package.  Staged corruption is not here: the run's
one :class:`~repro.adversary.strategies.Adversary` materializes a
``byzantine`` stage's strategy and applies it when the stage fires.
"""

from .orchestrator import ChaosOrchestrator, count_duplicate_commits, watchdog_section
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
