"""repro -- reproduction of "Swiper: a new paradigm for efficient weighted
distributed protocols" (Tonkikh & Freitas, PODC 2024).

The package implements the paper's weight reduction problems and the Swiper
solver (:mod:`repro.core`), the cryptographic and coding substrates the
applications rely on (:mod:`repro.crypto`, :mod:`repro.codes`), an
asynchronous network simulator with Byzantine adversaries
(:mod:`repro.sim`), the nominal distributed protocols and their weighted
transformations (:mod:`repro.protocols`, :mod:`repro.weighted`), calibrated
weight-distribution datasets (:mod:`repro.datasets`), the experiment
harness regenerating every table and figure (:mod:`repro.analysis`), and
a declarative scenario engine running one spec on the simulator or the
live asyncio runtime (:mod:`repro.scenarios`, :mod:`repro.runtime`).

Quickstart::

    from repro import WeightRestriction, solve

    weights = [100.0, 50.0, 20.0, 5.0, 1.0, 1.0]
    result = solve(WeightRestriction("1/3", "1/2"), weights)
    print(result.assignment.to_list(), result.total_tickets)
"""

from .core import (
    CheckStats,
    Number,
    Swiper,
    SwiperResult,
    TicketAssignment,
    Verdict,
    WeightQualification,
    WeightReductionProblem,
    WeightRestriction,
    WeightSeparation,
    as_fraction,
    brute_force_valid,
    is_valid_assignment,
    normalize_weights,
    solve,
    solve_with_constant,
    solve_exact_milp,
    solve_family_optimal,
)

__version__ = "1.0.0"

__all__ = [
    "WeightRestriction",
    "WeightQualification",
    "WeightSeparation",
    "WeightReductionProblem",
    "Swiper",
    "SwiperResult",
    "solve",
    "solve_with_constant",
    "is_valid_assignment",
    "TicketAssignment",
    "Number",
    "as_fraction",
    "normalize_weights",
    "Verdict",
    "CheckStats",
    "brute_force_valid",
    "solve_family_optimal",
    "solve_exact_milp",
    "__version__",
]

#: facade objects re-exported lazily (canonical home: :mod:`repro.api`);
#: lazy so ``import repro`` does not pull the scenario/runtime stack
_API_EXPORTS = (
    "Committee",
    "WeightSource",
    "TicketAssignmentResult",
)

__all__ += list(_API_EXPORTS)  # PEP 562 keeps their import lazy


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
