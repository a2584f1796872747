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

* :class:`Committee` is the immutable weighted party set every layer
  shares, built from inline values, a weights file, a chain snapshot or
  a :class:`~repro.datasets.WeightSpec` (the one recipe for where
  weights come from), with one :meth:`~Committee.validate` for
  infeasible inputs;
* the :mod:`~repro.api.policy` registry maps policy names (``swiper``,
  ``swiper-linear``, ``milp``, ``brute-force``, or custom registrations)
  to a uniform :class:`TicketAssignmentResult`;
* a run is a :class:`~repro.scenarios.ScenarioSpec` executed by
  :func:`~repro.scenarios.run_scenario` on a backend, which accepts an
  already-resolved committee and emits the scenario engine's unified
  record; a spec whose workload has ``kind="service"`` runs the epoch
  service through the same lifecycle.

Every other layer is imported from its own package (:mod:`repro.service`,
:mod:`repro.adversary`, :mod:`repro.parallel`, :mod:`repro.recovery`,
:mod:`repro.chaos`, ...): this module exports only what it defines.

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

__all__ = [
    "Committee",
    "CommitteeValidationError",
    "SolverPolicy",
    "TicketAssignmentResult",
    "IncrementalSolver",
    "POLICIES",
    "register_policy",
    "get_policy",
    "solve_with_policy",
]

