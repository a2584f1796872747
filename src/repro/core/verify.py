"""Validity checking of ticket assignments (paper, Section 3.1).

A Weight Restriction assignment is *viable* when ``T >= 1`` and no subset
``S`` with ``w(S) < alpha_w * W`` collects ``t(S) >= ceil(alpha_n * T)``
tickets.  Deciding this is a Knapsack instance; the checkers below layer
the paper's architecture on top of :mod:`repro.core.knapsack`:

* a *quick test* built from quasilinear bounds that answers
  ``VALID`` / ``INVALID`` / ``UNCERTAIN`` (conservative + liberal checks):
  one :class:`~repro.core.knapsack.DensityOrder` per probe -- an argsort
  of the holders and prefix sums, float to locate, exact to decide --
  read by every bound of that probe;
* a *full test* that resolves ``UNCERTAIN`` with dynamic programming, at
  every instance size on one numpy table of minimum weights by profit
  over the probe's holders, the one-ticket holders folded in at read time
  (:class:`~repro.core.knapsack.FoldedTable`).  The table is built on
  weights rounded down and certifies "valid" as it stands and "invalid"
  with a margin of one unit per holder (what rounding up could add); a
  second table, on weights rounded up, is built only inside that margin,
  and the exact big-integer DP only if the two still disagree.

The checkers compute on one :class:`~repro.core.types.ScaledWeights`
view -- its integers and the arrays built from them once per view:
capacities ``alpha * W`` as integer ratios in the view's units, a probe's
holders as index and count arrays.  The problem's thresholds stay
:class:`~fractions.Fraction` (:mod:`repro.core.problems`); a probe's only
Fraction operation is the ``upper < target`` that ends its quick test.
``check`` reads an assignment's holders off its
:class:`~repro.core.types.TicketAssignment`: one integer count per party,
non-negative and within ``int64``, or it raises instead of judging.

``--linear`` mode (paper terminology) maps ``UNCERTAIN`` to "invalid",
which keeps the solver quasilinear and still never violates the theorem
bounds, at the cost of possibly stopping above the family's local minimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import knapsack
from .problems import (
    WeightQualification,
    WeightReductionProblem,
    WeightRestriction,
    WeightSeparation,
)
from .types import SCALE_BITS, Number, ScaledWeights, TicketAssignment, scale_ints_rounded

__all__ = ["Verdict", "CheckStats", "RestrictionChecker", "SeparationChecker", "make_checker"]


class Verdict(enum.Enum):
    """Outcome of the three-valued quick test."""

    VALID = "valid"
    INVALID = "invalid"
    UNCERTAIN = "uncertain"


@dataclass
class CheckStats:
    """Counters describing how hard the checker had to work.

    Used by the ablation benchmarks to reproduce the paper's claim that the
    quick test filters out most knapsack invocations (Section 3.1).
    """

    checks: int = 0
    quick_valid: int = 0
    quick_invalid: int = 0
    quick_uncertain: int = 0
    dp_calls: int = 0
    exact_fallbacks: int = 0

    def merge(self, other: "CheckStats") -> None:
        """Accumulate ``other`` into ``self``."""
        self.checks += other.checks
        self.quick_valid += other.quick_valid
        self.quick_invalid += other.quick_invalid
        self.quick_uncertain += other.quick_uncertain
        self.dp_calls += other.dp_calls
        self.exact_fallbacks += other.exact_fallbacks


#: the largest ticket count the greedy bounds and the DP tables hold
_INT64_MAX = 2**63 - 1


def _ceil_ratio(x: Fraction, k: int) -> int:
    """Smallest integer >= ``x * k``."""
    return -((-x.numerator * k) // x.denominator)


class _Capacity(NamedTuple):
    """A strict knapsack capacity ``share * W``."""

    #: its exact value ``num / den`` in the view's integer weight units
    num: int
    den: int
    #: largest integer weight (same units) strictly below it
    strict: int
    #: the same for weights scaled to ``2**SCALE_BITS / W`` (numpy tier)
    strict_rounded: int


class _Checker:
    """What the two checkers share: the scaled view, the work counters and
    the quick-test / linear-mode / DP decision ladder.

    A checker decides on the *holders* of an assignment -- ascending party
    indices with positive ticket counts, as arrays.  Zero-ticket parties
    add nothing to any bound or table and density ties break in party
    order, so the dense vector and its holder-only form get the same
    verdict: ``check`` reads the holders off the assignment's
    :class:`~repro.core.types.TicketAssignment` and ``check_sparse``
    takes them as given, which saves the ``O(n)`` scans per probe on
    large committees.
    """

    def __init__(
        self,
        weights: "Sequence[Number] | ScaledWeights",
        problem,
        *,
        use_quick_test: bool = True,
        linear_mode: bool = False,
    ) -> None:
        #: the integer scaling every bound and DP of this checker reads
        self.scaled = ScaledWeights.of(weights)
        self.problem = problem
        self.use_quick_test = use_quick_test
        self.linear_mode = linear_mode
        self.stats = CheckStats()

    def _capacity(self, share: Fraction) -> _Capacity:
        cap = share * self.scaled.total
        return _Capacity(
            cap.numerator,
            cap.denominator,
            knapsack.strict_cap_int(cap),
            knapsack.strict_cap_int(share * (1 << SCALE_BITS)),
        )

    def quick(self, tickets: Sequence[int], total: int) -> Verdict:
        """Three-valued quick test from the greedy knapsack bounds."""
        order = knapsack.DensityOrder(self.scaled, *self._holders(tickets)[:2])
        return self._quick(order, total)[0]

    def _holders(self, tickets: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
        """Ascending holder indices, ``int64`` counts and total of an
        assignment, read off its (validated) :class:`TicketAssignment`."""
        if not isinstance(tickets, TicketAssignment):
            tickets = TicketAssignment(tickets)
        if len(tickets) != len(self.scaled):
            raise ValueError("tickets and weights must have equal length")
        indices, counts = tickets.sparse_counts()
        total = tickets.total
        if total > _INT64_MAX:
            over = np.flatnonzero(counts > _INT64_MAX)
            what = f"ticket count #{indices[over[0]]}" if len(over) else "the ticket total"
            raise ValueError(f"{what} is past the checker's int64 limit, 2**63 - 1")
        return indices, counts.astype(np.int64), total

    def _decide(self, indices: np.ndarray, counts: np.ndarray, total: int) -> bool:
        self.stats.checks += 1
        if total <= 0:
            return False
        reach = None
        if self.use_quick_test:
            order = knapsack.DensityOrder(self.scaled, indices, counts)
            verdict, reach = self._quick(order, total)
            if verdict is Verdict.VALID:
                self.stats.quick_valid += 1
                return True
            if verdict is Verdict.INVALID:
                self.stats.quick_invalid += 1
                return False
            self.stats.quick_uncertain += 1
        if self.linear_mode:
            # Conservative: cannot certify validity quasilinearly, reject.
            return False
        self.stats.dp_calls += 1
        return self._full(indices, counts, total, reach)

    def _table(
        self, held: list[int], counts: np.ndarray, width: int, *, round_up: bool
    ) -> knapsack.FoldedTable:
        """The DP table of the holders' weights scaled to ``w_i *
        2**SCALE_BITS / W`` as ``int64``, rounded down (never overstates a
        subset's weight, so every truly feasible subset stays feasible) or
        up (every subset feasible after scaling is truly feasible)."""
        weights64 = scale_ints_rounded(
            held, 1 << SCALE_BITS, self.scaled.total, round_up=round_up
        )
        return knapsack.FoldedTable(weights64, counts, width)

    def _held(self, indices: np.ndarray) -> list[int]:
        """The holders' exact weights."""
        ints = self.scaled.ints
        return [ints[i] for i in indices.tolist()]


class RestrictionChecker(_Checker):
    """Validity checker for Weight Restriction assignments.

    Parameters
    ----------
    weights:
        A :class:`~repro.core.types.ScaledWeights` view, or any weight
        sequence one can be built from.
    problem:
        The :class:`~repro.core.problems.WeightRestriction` instance.
    use_quick_test:
        Enable the quasilinear three-valued filter (paper default).  The
        ablation benchmark disables it to measure the filter's speedup.
    linear_mode:
        Paper's ``--linear``: never run the DP; ``UNCERTAIN`` counts as
        invalid.  Conservative and quasilinear.
    """

    def __init__(
        self,
        weights: "Sequence[Number] | ScaledWeights",
        problem: WeightRestriction,
        *,
        use_quick_test: bool = True,
        linear_mode: bool = False,
    ) -> None:
        super().__init__(
            weights, problem, use_quick_test=use_quick_test, linear_mode=linear_mode
        )
        #: strict capacity ``alpha_w * W`` of the violating-subset knapsack
        self._cap = self._capacity(problem.alpha_w)

    def violation_target(self, total: int) -> int:
        """Smallest ticket count that would violate ``t(S) < alpha_n * T``."""
        return _ceil_ratio(self.problem.alpha_n, total)

    def _quick(
        self, order: knapsack.DensityOrder, total: int
    ) -> tuple[Verdict, None]:
        target = self.violation_target(total)
        cap = self._cap
        if order.upper_bound(cap.num, cap.den) < target:
            return Verdict.VALID, None
        if order.lower_bound(cap.num, cap.den) >= target:
            return Verdict.INVALID, None
        return Verdict.UNCERTAIN, None

    def _full(
        self, indices: np.ndarray, counts: np.ndarray, total: int, reach: None
    ) -> bool:
        """No subset with ``w(S) < capacity`` reaches the violation target.

        Decided soundly by one table of width ``target`` on weights
        rounded down; a second one, rounded up, only when the first lands
        within a unit per holder of the capacity, and exact arithmetic only
        if the two roundings disagree.
        """
        target = self.violation_target(total)
        cap = self._cap
        held = self._held(indices)
        mw = self._table(held, counts, target, round_up=False).min_weight(target)
        if mw is None or mw > cap.strict_rounded:
            # Even with under-stated weights no subset violates.
            return True
        if mw + len(held) <= cap.strict_rounded:
            # Rounding up adds at most one unit per holder, so the same
            # subset violates with over-stated weights as well.
            return False
        mw = self._table(held, counts, target, round_up=True).min_weight(target)
        if mw is not None and mw <= cap.strict_rounded:
            # With over-stated weights a violating subset exists.
            return False
        self.stats.exact_fallbacks += 1
        mw = knapsack.min_weight_for_profit(held, counts.tolist(), target)
        return mw is None or mw > cap.strict

    def check(self, tickets: Sequence[int], total: Optional[int] = None) -> bool:
        """Decide viability of ``tickets`` (a :class:`TicketAssignment` or
        one count per party) for this WR instance, on its holders.  A
        count that is no integer raises :class:`TypeError`; a negative
        one, a count or total past ``2**63 - 1`` (the bounds and the DP
        are ``int64``) or a wrong length raises :class:`ValueError`."""
        indices, counts, exact = self._holders(tickets)
        return self._decide(indices, counts, exact if total is None else total)

    def check_sparse(self, indices: np.ndarray, counts: np.ndarray, total: int) -> bool:
        """Identical decision to :meth:`check` on the dense vector with
        ``counts[k]`` tickets at party ``indices[k]`` and zero elsewhere.

        ``indices`` must be an ascending integer array and ``counts`` an
        ``int64`` array of positive counts (the arrays
        :meth:`repro.core.prices.PriceStream.sparse_counts` produces).
        """
        return self._decide(indices, counts, total)


class SeparationChecker(_Checker):
    """Validity checker for Weight Separation assignments.

    Valid iff ``K(alpha) + K(1 - beta) < T`` where ``K(g)`` is the maximum
    ticket count over subsets with ``w(S) < g * W`` (the minimum over
    qualified sets is ``T - K(1 - beta)`` by complementation).
    """

    def __init__(
        self,
        weights: "Sequence[Number] | ScaledWeights",
        problem: WeightSeparation,
        *,
        use_quick_test: bool = True,
        linear_mode: bool = False,
    ) -> None:
        super().__init__(
            weights, problem, use_quick_test=use_quick_test, linear_mode=linear_mode
        )
        #: the two strict capacities ``alpha * W`` and ``(1 - beta) * W``
        self._caps = (self._capacity(problem.alpha), self._capacity(1 - problem.beta))

    def _reach(self, order: knapsack.DensityOrder) -> list[Fraction]:
        """The LP bound on ``K`` at each of the two capacities."""
        return [order.upper_bound(cap.num, cap.den) for cap in self._caps]

    def _quick(
        self, order: knapsack.DensityOrder, total: int
    ) -> tuple[Verdict, Fraction]:
        uppers = self._reach(order)
        reach = max(uppers)
        if sum(uppers) < total:
            return Verdict.VALID, reach
        if sum(order.lower_bound(cap.num, cap.den) for cap in self._caps) >= total:
            return Verdict.INVALID, reach
        return Verdict.UNCERTAIN, reach

    def _full(
        self,
        indices: np.ndarray,
        counts: np.ndarray,
        total: int,
        reach: Optional[Fraction],
    ) -> bool:
        """``K(alpha) + K(1 - beta) < T``, both read off one table.

        The table of minimum weights by profit does not depend on the
        capacity, so it is built once and read at both.  It is no wider
        than ``reach``, the LP bound at the larger of the two capacities
        (the bound grows with the capacity, and the two are not ordered:
        ``alpha > 1 - beta`` is allowed): no subset under either capacity
        collects more, so a reading of the rounded-down table stays an
        upper bound on ``K`` when clipped there, and a reading that is a
        lower bound on ``K`` never reaches the clip.
        """
        if reach is None:  # no quick test ran on this probe
            reach = max(self._reach(knapsack.DensityOrder(self.scaled, indices, counts)))
        width = min(total, reach.numerator // reach.denominator)
        held = self._held(indices)
        # Rounded-down weights enlarge the feasible family => upper bounds.
        table = self._table(held, counts, width, round_up=False)
        if self._tickets_within(table) < total:
            return True
        # Rounding up adds at most one unit per holder: a subset that fits
        # with that much room to spare fits with over-stated weights too.
        if self._tickets_within(table, spare=len(held)) >= total:
            return False
        # Rounded-up weights shrink the family => achievable lower bounds.
        if self._tickets_within(self._table(held, counts, width, round_up=True)) >= total:
            return False
        self.stats.exact_fallbacks += 1
        profits = counts.tolist()
        return sum(
            knapsack.max_profit_under(held, profits, cap.strict) for cap in self._caps
        ) < total

    def _tickets_within(self, table: knapsack.FoldedTable, spare: int = 0) -> int:
        """``K(alpha) + K(1 - beta)`` as ``table`` has them, each capacity
        lowered by ``spare`` units of the rounded scale."""
        return sum(table.max_profit(cap.strict_rounded - spare) for cap in self._caps)

    def check(self, tickets: Sequence[int], total: Optional[int] = None) -> bool:
        """Decide viability of ``tickets`` for this WS instance (same
        contract, and errors, as ``RestrictionChecker.check``)."""
        indices, counts, exact = self._holders(tickets)
        return self._decide(indices, counts, exact if total is None else total)

    def check_sparse(self, indices: np.ndarray, counts: np.ndarray, total: int) -> bool:
        """Identical decision to :meth:`check` on the corresponding dense
        vector (same contract as ``RestrictionChecker.check_sparse``)."""
        return self._decide(indices, counts, total)


def make_checker(
    problem: WeightReductionProblem,
    weights: "Sequence[Number] | ScaledWeights",
    *,
    use_quick_test: bool = True,
    linear_mode: bool = False,
) -> "RestrictionChecker | SeparationChecker":
    """Build the appropriate checker; WQ is checked via its WR reduction
    (Theorem 2.2: the two validity predicates coincide)."""
    if linear_mode:
        # Linear mode is *defined* by relying on the quasilinear bounds only.
        use_quick_test = True
    if isinstance(problem, WeightQualification):
        problem = problem.to_restriction()
    if isinstance(problem, WeightRestriction):
        cls = RestrictionChecker
    elif isinstance(problem, WeightSeparation):
        cls = SeparationChecker
    else:
        raise TypeError(f"unknown weight reduction problem: {problem!r}")
    return cls(weights, problem, use_quick_test=use_quick_test, linear_mode=linear_mode)
