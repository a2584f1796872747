"""Exact and reference solvers used for cross-validation and gap studies.

Three tools, all exponential-ish and meant for small instances:

* :func:`brute_force_valid` -- decide viability of an assignment straight
  from the problem definitions by enumerating all ``2^n`` subsets.  This is
  the ground-truth oracle the property tests compare every other checker
  against.
* :func:`solve_family_optimal` -- the *globally* minimal valid member of
  the Swiper ticket family, found by a linear scan.  Swiper proper returns
  a *local* minimum; the difference quantifies the cost of binary search.
* :func:`solve_exact_milp` -- the true optimum over *all* integer
  assignments via the mixed-integer formulation of Appendix B, linearized
  as ``q * t(S) - p * T <= -1`` for every weight-feasible subset ``S``
  (``alpha_n = p / q``), solved with scipy's HiGHS backend.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .prices import assignment_for_total
from .problems import (
    WeightQualification,
    WeightReductionProblem,
    WeightRestriction,
    WeightSeparation,
)
from .types import Number, TicketAssignment, normalize_weights

__all__ = [
    "brute_force_valid",
    "solve_family_optimal",
    "solve_exact_milp",
    "enumerate_feasible_subsets",
]

_BRUTE_FORCE_LIMIT = 20
_MILP_LIMIT = 16


def _subset_sums(values: Sequence, n: int) -> list:
    """Sum of ``values`` over every bitmask subset of ``[n]`` (index = mask)."""
    zero = Fraction(0) if values and isinstance(values[0], Fraction) else 0
    sums = [zero] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def brute_force_valid(
    problem: WeightReductionProblem,
    weights: Iterable[Number],
    tickets: Sequence[int] | TicketAssignment,
) -> bool:
    """Ground-truth viability straight from Problems 1-3 (``n <= 20``).

    WQ is checked against its *own* definition (not the WR reduction), so
    the Theorem 2.2 equivalence itself is testable against this oracle.
    """
    ws = normalize_weights(weights)
    ts = [int(t) for t in tickets]
    n = len(ws)
    if len(ts) != n:
        raise ValueError("tickets and weights must have equal length")
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {_BRUTE_FORCE_LIMIT}")
    total_w = sum(ws, start=Fraction(0))
    total_t = sum(ts)
    if total_t <= 0:
        return False
    w_sums = _subset_sums(ws, n)
    t_sums = _subset_sums(ts, n)

    if isinstance(problem, WeightRestriction):
        cap_w = problem.alpha_w * total_w
        cap_t = problem.alpha_n * total_t
        return all(
            t_sums[m] < cap_t for m in range(1 << n) if w_sums[m] < cap_w
        )
    if isinstance(problem, WeightQualification):
        floor_w = problem.beta_w * total_w
        floor_t = problem.beta_n * total_t
        return all(
            t_sums[m] > floor_t for m in range(1 << n) if w_sums[m] > floor_w
        )
    if isinstance(problem, WeightSeparation):
        cap_w = problem.alpha * total_w
        floor_w = problem.beta * total_w
        max_low = max(
            (t_sums[m] for m in range(1 << n) if w_sums[m] < cap_w), default=None
        )
        min_high = min(
            (t_sums[m] for m in range(1 << n) if w_sums[m] > floor_w), default=None
        )
        if max_low is None or min_high is None:
            return True
        return max_low < min_high
    raise TypeError(f"unknown weight reduction problem: {problem!r}")


def solve_family_optimal(
    problem: WeightReductionProblem,
    weights: Iterable[Number],
) -> TicketAssignment:
    """Globally minimal valid member of the Swiper family (linear scan).

    Scans totals ``1 .. ticket_bound`` and returns the first brute-force
    valid assignment; intended for small ``n`` (uses the exact oracle).
    """
    ws = normalize_weights(weights)
    n = len(ws)
    effective = (
        problem.to_restriction()
        if isinstance(problem, WeightQualification)
        else problem
    )
    c = effective.rounding_constant
    bound = problem.ticket_bound(n)
    for total in range(1, bound + 1):
        tickets = assignment_for_total(ws, c, total)
        if brute_force_valid(problem, ws, tickets):
            return TicketAssignment(tickets)
    # Theorems 2.1 / 2.4 guarantee the bound itself is valid.
    raise AssertionError(
        "no valid family member within the theorem bound -- theory violated"
    )


def enumerate_feasible_subsets(
    weights: Sequence[Fraction], capacity: Fraction, *, maximal_only: bool = True
) -> list[tuple[int, ...]]:
    """All subsets with ``w(S) < capacity``, optionally only the
    inclusion-maximal ones (sufficient for the MILP constraints because
    tickets are non-negative: ``t(S) <= t(S')`` whenever ``S subset S'``)."""
    n = len(weights)
    feasible_masks = []
    w_sums = _subset_sums(list(weights), n)
    for mask in range(1 << n):
        if w_sums[mask] < capacity:
            feasible_masks.append(mask)
    if maximal_only:
        feasible_set = set(feasible_masks)
        feasible_masks = [
            m
            for m in feasible_masks
            if not any(
                (m | (1 << i)) in feasible_set
                for i in range(n)
                if not m & (1 << i)
            )
        ]
    return [
        tuple(i for i in range(n) if mask & (1 << i)) for mask in feasible_masks
    ]


def solve_exact_milp(
    problem: WeightReductionProblem,
    weights: Iterable[Number],
    *,
    ticket_cap: Optional[int] = None,
) -> TicketAssignment:
    """True minimum-``T`` assignment via MILP (Appendix B), ``n <= 16``.

    For WR with ``alpha_n = p / q`` the strict constraint
    ``t(S) < alpha_n * T`` over integers is exactly
    ``q * t(S) - p * T <= -1``; one such row per inclusion-maximal
    weight-feasible subset.  WQ is solved through the Theorem 2.2
    reduction.  WS adds a row ``t(S1) - t(S2) <= -1`` per (maximal
    low-side, minimal high-side) pair.

    Needs scipy (the ``milp`` extra), imported here so that nothing else in
    the package pays for loading it.
    """
    ws = normalize_weights(weights)
    n = len(ws)
    if n > _MILP_LIMIT:
        raise ValueError(f"MILP solver limited to n <= {_MILP_LIMIT}")
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        raise ImportError(
            "solve_exact_milp needs scipy: pip install 'repro-swiper[milp]'"
        ) from None
    if isinstance(problem, WeightQualification):
        reduced = problem.to_restriction()
        result = solve_exact_milp(reduced, ws, ticket_cap=ticket_cap)
        return result
    total_w = sum(ws, start=Fraction(0))
    cap = ticket_cap if ticket_cap is not None else problem.ticket_bound(n)

    rows: list[np.ndarray] = []
    uppers: list[float] = []
    if isinstance(problem, WeightRestriction):
        p, q = problem.alpha_n.numerator, problem.alpha_n.denominator
        subsets = enumerate_feasible_subsets(ws, problem.alpha_w * total_w)
        for subset in subsets:
            row = np.full(n, -p, dtype=float)
            for i in subset:
                row[i] += q
            rows.append(row)
            uppers.append(-1.0)
    elif isinstance(problem, WeightSeparation):
        low_sets = enumerate_feasible_subsets(ws, problem.alpha * total_w)
        # High-side sets: w(S) > beta * W; minimal ones via complements of
        # maximal sets with w(S^c) < (1 - beta) * W.
        high_complements = enumerate_feasible_subsets(ws, (1 - problem.beta) * total_w)
        high_sets = [
            tuple(i for i in range(n) if i not in set(comp))
            for comp in high_complements
        ]
        for s1 in low_sets:
            for s2 in high_sets:
                row = np.zeros(n, dtype=float)
                for i in s1:
                    row[i] += 1
                for i in s2:
                    row[i] -= 1
                rows.append(row)
                uppers.append(-1.0)
    else:
        raise TypeError(f"unknown weight reduction problem: {problem!r}")

    # Viability demands at least one ticket overall.
    rows.append(np.full(n, -1.0))
    uppers.append(-1.0)

    a_matrix = np.vstack(rows)
    constraint = LinearConstraint(a_matrix, ub=np.array(uppers))
    res = milp(
        c=np.ones(n),
        constraints=[constraint],
        integrality=np.ones(n),
        bounds=Bounds(lb=0, ub=cap),
    )
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    tickets = tuple(int(round(x)) for x in res.x)
    return TicketAssignment(tickets)
