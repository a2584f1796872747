"""Core weight-reduction machinery: problems, bounds, the Swiper solver,
validity checkers, and exact reference solvers (paper, Sections 2-3)."""

from .bounds import (
    wq_bound_value,
    wq_ticket_bound,
    wr_bound_value,
    wr_ticket_bound,
    ws_bound_value,
    ws_ticket_bound,
)
from .exact import brute_force_valid, solve_exact_milp, solve_family_optimal
from .prices import assignment_for_total, scale_for_total, ticket_price, total_at_scale
from .problems import (
    WeightQualification,
    WeightReductionProblem,
    WeightRestriction,
    WeightSeparation,
)
from .solver import Swiper, SwiperResult, is_valid_assignment, solve, solve_with_constant
from .types import Number, ScaledWeights, TicketAssignment, as_fraction, normalize_weights
from .verify import CheckStats, RestrictionChecker, SeparationChecker, Verdict, make_checker

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
    "ScaledWeights",
    "Verdict",
    "CheckStats",
    "RestrictionChecker",
    "SeparationChecker",
    "make_checker",
    "assignment_for_total",
    "total_at_scale",
    "scale_for_total",
    "ticket_price",
    "brute_force_valid",
    "solve_family_optimal",
    "solve_exact_milp",
    "wr_bound_value",
    "wq_bound_value",
    "ws_bound_value",
    "wr_ticket_bound",
    "wq_ticket_bound",
    "ws_ticket_bound",
]
