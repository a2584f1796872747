"""Swiper: the approximate solver for weight reduction problems (Section 3).

The solver searches the totally-ordered ticket-assignment family of
:mod:`repro.core.prices` with a binary search on the total ticket count,
maintaining the invariant "low end invalid, high end valid".  The high
anchor is the theorem bound: Appendix A proves every *invalid* family
member has strictly fewer tickets than the bound, hence every family member
at or above the bound is valid and never needs to be checked.  The search
therefore terminates at a *local minimum* of the family -- an assignment
that is valid while its immediate predecessor is not -- exactly the object
the paper's Swiper returns.

Two modes mirror the prototype:

* ``mode="full"``: quick test first, knapsack DP on "uncertain"
  (``~O(n^2)`` worst case, locally minimal result);
* ``mode="linear"``: quick test only (``~O(n)``); guaranteed valid and
  within the bounds, possibly slightly more tickets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .prices import PriceStream
from .problems import (
    WeightQualification,
    WeightReductionProblem,
    WeightRestriction,
    WeightSeparation,
)
from .types import Number, ScaledWeights, TicketAssignment, as_fraction
from .verify import CheckStats, make_checker

__all__ = ["Swiper", "SwiperResult", "solve", "is_valid_assignment"]


@dataclass(frozen=True)
class SwiperResult:
    """Outcome of a Swiper solve.

    Attributes
    ----------
    problem:
        The weight reduction problem that was solved.
    assignment:
        The locally minimal (full mode) or bound-respecting (linear mode)
        ticket assignment found.
    ticket_bound:
        The theoretical upper bound used as the binary-search anchor.
    mode:
        ``"full"`` or ``"linear"``.
    stats:
        Checker work counters (quick-test verdicts, DP calls, fallbacks).
    probes:
        Number of family members the binary search examined.
    elapsed_seconds:
        Wall-clock duration of the solve.
    """

    problem: WeightReductionProblem
    assignment: TicketAssignment
    ticket_bound: int
    mode: str
    stats: CheckStats
    probes: int
    elapsed_seconds: float

    @property
    def total_tickets(self) -> int:
        """``T``: total tickets allocated (Table 2's headline metric)."""
        return self.assignment.total

    @property
    def max_tickets(self) -> int:
        """Largest per-party allocation (Figure 1's middle row)."""
        return self.assignment.max_tickets

    @property
    def holders(self) -> int:
        """Parties with at least one ticket (Figure 1's bottom row)."""
        return self.assignment.holders


def _probe(stream: PriceStream, checker, total: int) -> bool:
    """Is the family member with ``total`` tickets valid?  Decided on its
    holders (``O(total)`` to list them), never on a dense ``n``-vector."""
    indices, counts = stream.sparse_counts(total)
    return checker.check_sparse(indices, counts, total)


class Swiper:
    """Deterministic approximate solver for WR / WQ / WS.

    Parameters
    ----------
    mode:
        ``"full"`` (default) or ``"linear"`` -- see module docstring.
    use_quick_test:
        Full mode only: disable to force the DP on every probe (used by the
        quick-test ablation benchmark; results are identical, just slower).
    """

    def __init__(self, mode: str = "full", *, use_quick_test: bool = True) -> None:
        if mode not in ("full", "linear"):
            raise ValueError(f"mode must be 'full' or 'linear', got {mode!r}")
        self.mode = mode
        self.use_quick_test = use_quick_test

    def solve(
        self,
        problem: WeightReductionProblem,
        weights: "Iterable[Number] | ScaledWeights",
        *,
        stream: Optional[PriceStream] = None,
    ) -> SwiperResult:
        """Solve ``problem`` on ``weights``; deterministic for fixed input.

        Determinism is the property that lets every party of a distributed
        system run the solver locally and agree on the ticket assignment
        without any extra protocol (paper, Section 3 "Determinism").

        The weights are scaled to integers once
        (:class:`~repro.core.types.ScaledWeights`; a view passed as
        ``weights`` is used as is) and the price stream and the checker
        both read that one view.  ``stream`` injects a pre-built (e.g.
        patched, see :meth:`PriceStream.patched`) price stream for these
        exact weights -- a pure acceleration: the probe sequence, every
        verdict, and the final assignment are identical to the default
        path.  Every probe is judged on its holders alone, and the
        assignment returned is packed from its holders: past the scaling
        of the weights, no dense ``n``-vector is built.
        """
        start = time.perf_counter()
        view = ScaledWeights.of(weights)
        n = len(view)
        effective = (
            problem.to_restriction()
            if isinstance(problem, WeightQualification)
            else problem
        )
        c = effective.rounding_constant
        bound = problem.ticket_bound(n)
        checker = make_checker(
            effective,
            view,
            use_quick_test=self.use_quick_test,
            linear_mode=(self.mode == "linear"),
        )
        # One memoized price stream serves every probe: the binary search
        # revisits overlapping prefixes of the same cheapest-ticket
        # sequence, so each ticket's price key is computed once.
        if stream is None:
            stream = PriceStream(view, c)
        elif stream.rounding_constant != c or stream.scaled != view:
            raise ValueError(
                "injected price stream was built for different weights or "
                "rounding constant"
            )
        # Invariant: family member with total `hi` is valid (members at the
        # theorem bound are valid without checking -- Appendix A), family
        # member with total `lo` is invalid (T = 0 is never viable).
        lo, hi = 0, bound
        probes = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probes += 1
            if _probe(stream, checker, mid):
                hi = mid
            else:
                lo = mid
        final = TicketAssignment.from_holders(n, *stream.sparse_counts(hi))
        return SwiperResult(
            problem=problem,
            assignment=final,
            ticket_bound=bound,
            mode=self.mode,
            stats=checker.stats,
            probes=probes,
            elapsed_seconds=time.perf_counter() - start,
        )


def solve(
    problem: WeightReductionProblem,
    weights: Iterable[Number],
    *,
    mode: str = "full",
) -> SwiperResult:
    """Convenience one-shot wrapper around :class:`Swiper`."""
    return Swiper(mode=mode).solve(problem, weights)


def solve_with_constant(
    problem: WeightReductionProblem,
    weights: Iterable[Number],
    c: Number,
    *,
    max_doublings: int = 20,
) -> SwiperResult:
    """Solve with an explicit rounding constant ``c`` (ablation support).

    The paper credits the constant ``c`` in ``t_i = floor(s w_i + c)``
    (suggested by Benny Pinkas) with significantly reducing ticket counts;
    the optimal values are those of ``rounding_constant``.  This variant
    lets benchmarks quantify that claim by, e.g., passing ``c = 0``.

    The theorem bounds only hold for the optimal ``c``, so the binary
    search anchor is *verified* here and doubled until valid.
    """
    start = time.perf_counter()
    ws = ScaledWeights.of(weights)
    n = len(ws)
    effective = (
        problem.to_restriction()
        if isinstance(problem, WeightQualification)
        else problem
    )
    const = as_fraction(c)
    if not 0 <= const < 1:
        raise ValueError("rounding constant must be in [0, 1)")
    checker = make_checker(effective, ws)
    stream = PriceStream(ws, const)
    hi = problem.ticket_bound(n)
    probes = 0
    for _ in range(max_doublings):
        probes += 1
        if _probe(stream, checker, hi):
            break
        hi *= 2
    else:
        raise RuntimeError("no valid assignment found within doubling budget")
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes += 1
        if _probe(stream, checker, mid):
            hi = mid
        else:
            lo = mid
    final = TicketAssignment.from_holders(n, *stream.sparse_counts(hi))
    return SwiperResult(
        problem=problem,
        assignment=final,
        ticket_bound=problem.ticket_bound(n),
        mode="full",
        stats=checker.stats,
        probes=probes,
        elapsed_seconds=time.perf_counter() - start,
    )


def is_valid_assignment(
    problem: WeightReductionProblem,
    weights: "Iterable[Number] | ScaledWeights",
    tickets: Sequence[int] | TicketAssignment,
    *,
    use_quick_test: bool = True,
) -> bool:
    """Exact validity of an *arbitrary* assignment for ``problem``.

    Unlike the solver this accepts assignments outside the Swiper family
    (e.g. from the exact MILP solver or hand-crafted ones in tests); the
    decision is always sound and exact.  Pass the solve's
    :class:`~repro.core.types.ScaledWeights` view as ``weights`` to
    re-check without scaling the vector a second time.
    """
    checker = make_checker(problem, weights, use_quick_test=use_quick_test)
    return checker.check(tickets)
