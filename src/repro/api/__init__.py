"""The committee-centric public API: weights -> tickets -> execution.

One facade over the whole pipeline::

    from repro.api import Committee
    from repro.core import WeightRestriction
    from repro.scenarios import ScenarioSpec, WeightSpec, run_scenario

    committee = Committee.synthetic("zipf", n=10, total=1000, skew=1.2)
    tickets = committee.solve(WeightRestriction("1/3", "1/2"))   # -> TicketAssignmentResult
    spec = ScenarioSpec(
        name="rbc", protocol="rbc", seed=committee.seed,
        weights=WeightSpec("explicit", values=tuple(committee.int_weights)),
    )
    result = run_scenario(spec, committee=committee)            # -> unified JSON record

* :class:`WeightSource` and its implementations say where weights come
  from (inline, file, chain snapshot, synthetic distribution);
* :class:`Committee` is the immutable weighted party set every layer
  shares, with one :meth:`~Committee.validate` for infeasible inputs;
* the :mod:`~repro.api.policy` registry maps policy names (``swiper``,
  ``swiper-linear``, ``milp``, ``brute-force``, or custom registrations)
  to a uniform :class:`TicketAssignmentResult`;
* a run is a :class:`~repro.scenarios.ScenarioSpec` executed by
  :func:`~repro.scenarios.run_scenario` on a backend, which accepts an
  already-resolved committee and emits the scenario engine's unified
  record; a spec whose workload has ``kind="service"`` routes to the
  service stack automatically;
* the :mod:`repro.service` epoch-service names (:class:`EpochService`,
  :class:`EpochManager`, ...) are re-exported here for one-stop imports.

The CLI, the scenario engine, and the examples all consume this facade;
adding a backend or a solver strategy is one registration, not a
per-layer rewiring.  This module's ``__all__`` is frozen in the
repo-root ``api_surface.txt`` -- CI fails on export drift.
"""

from .committee import Committee, CommitteeValidationError
from .policy import (
    POLICIES,
    IncrementalSolver,
    SolverPolicy,
    TicketAssignmentResult,
    get_policy,
    register_policy,
    solve_with_policy,
)
from .weight_source import (
    SYNTHETIC_KINDS,
    ChainWeights,
    FileWeights,
    InlineWeights,
    SyntheticWeights,
    WeightSource,
    weight_source_from_args,
)

#: epoch-service names re-exported from :mod:`repro.service`.  Resolved
#: lazily (PEP 562) because the service package itself imports
#: ``repro.api.committee`` / ``repro.api.policy`` -- an eager re-import
#: here would be circular whenever ``repro.service`` is imported first.
_SERVICE_EXPORTS = (
    "DriftSchedule",
    "EpochManager",
    "EpochService",
    "InprocServiceBackend",
    "LoadGenerator",
    "ServiceConfig",
    "ServiceResult",
    "SimServiceBackend",
    "WeightSchedule",
)

#: adversary / fuzz-campaign names re-exported from
#: :mod:`repro.adversary`, lazily for the same circularity reason (the
#: adversary package imports the scenario and crypto layers).
_ADVERSARY_EXPORTS = (
    "Adversary",
    "CampaignResult",
    "FuzzConfig",
    "STRATEGIES",
    "check_record",
    "replay_episode",
    "run_campaign",
)

#: parallel-engine names re-exported from :mod:`repro.parallel`, lazily
#: because the proc orchestrator imports the scenario harness (which
#: imports this facade's committee module).
_PARALLEL_EXPORTS = (
    "ParallelExecutor",
    "ProcCluster",
    "parse_jobs",
    "run_proc_scenario",
    "run_specs",
)

#: crash-recovery names re-exported from :mod:`repro.recovery`, lazily
#: because the recoverable party imports the protocol layer (which
#: reaches back into this facade via the scenario harness).
_RECOVERY_EXPORTS = (
    "BackoffSchedule",
    "HeartbeatMonitor",
    "InMemoryWal",
    "RecoverableSmrParty",
    "StateSyncRequest",
    "StateSyncResponse",
    "WalError",
    "WriteAheadLog",
    "open_wal",
)

#: chaos-engine names re-exported from :mod:`repro.chaos`, lazily like
#: every subsystem above (one rule for the whole package is simpler to audit).
_CHAOS_EXPORTS = (
    "ChaosOrchestrator",
    "ChaosSpec",
    "ChaosStage",
    "NetworkWeather",
    "TriggerSpec",
    "WeatherSpec",
)

__all__ = [
    "Committee",
    "CommitteeValidationError",
    "WeightSource",
    "InlineWeights",
    "FileWeights",
    "ChainWeights",
    "SyntheticWeights",
    "SYNTHETIC_KINDS",
    "weight_source_from_args",
    "SolverPolicy",
    "TicketAssignmentResult",
    "IncrementalSolver",
    "POLICIES",
    "register_policy",
    "get_policy",
    "solve_with_policy",
    *_SERVICE_EXPORTS,
    *_ADVERSARY_EXPORTS,
    *_PARALLEL_EXPORTS,
    *_RECOVERY_EXPORTS,
    *_CHAOS_EXPORTS,
]


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from .. import service

        return getattr(service, name)
    if name in _ADVERSARY_EXPORTS:
        from .. import adversary

        return getattr(adversary, name)
    if name in _PARALLEL_EXPORTS:
        from .. import parallel

        return getattr(parallel, name)
    if name in _RECOVERY_EXPORTS:
        from .. import recovery

        return getattr(recovery, name)
    if name in _CHAOS_EXPORTS:
        from .. import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
