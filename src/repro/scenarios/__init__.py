"""Declarative scenario engine: one spec, every execution backend.

``ScenarioSpec`` describes a workload (protocol, weights, faults,
network, payloads, seed); :func:`run_scenario` executes it on the
discrete-event simulator or the live asyncio runtime and returns a
unified metrics record, driving the protocol through its driver in
:mod:`.drivers`; :data:`SCENARIOS` is the registry of built-in named
scenarios the CLI and CI sweep.
"""

from .harness import BACKENDS, ScenarioResult, run_scenario
from .registry import SCENARIOS, get_scenario, scenario_names
from .spec import ByzantineSpec, FaultSpec, NetSpec, ScenarioSpec, WeightSpec, WorkloadSpec

__all__ = [
    "ScenarioSpec",
    "WeightSpec",
    "ByzantineSpec",
    "FaultSpec",
    "NetSpec",
    "WorkloadSpec",
    "ScenarioResult",
    "run_scenario",
    "BACKENDS",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
]
