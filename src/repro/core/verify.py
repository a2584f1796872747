"""Validity checking of ticket assignments (paper, Section 3.1).

A Weight Restriction assignment is *viable* when ``T >= 1`` and no subset
``S`` with ``w(S) < alpha_w * W`` collects ``t(S) >= ceil(alpha_n * T)``
tickets.  Deciding this is a Knapsack instance; the checkers below layer
the paper's architecture on top of :mod:`repro.core.knapsack`:

* a *quick test* built from quasilinear bounds that answers
  ``VALID`` / ``INVALID`` / ``UNCERTAIN`` (conservative + liberal checks);
* a *full test* that resolves ``UNCERTAIN`` with dynamic programming --
  first the sound two-sided numpy tier, then the exact big-integer tier.

The checkers compute on the integers of one
:class:`~repro.core.types.ScaledWeights` view: capacities ``alpha * W`` as
integer ratios in the view's units, the density order once per probe and
shared by that probe's bounds.  The problem's thresholds stay
:class:`~fractions.Fraction` (:mod:`repro.core.problems`); a probe's only
Fraction operation is the ``upper < target`` that ends its quick test.

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
from .types import Number, ScaledWeights

__all__ = ["Verdict", "CheckStats", "RestrictionChecker", "SeparationChecker", "make_checker"]

#: Instances with ``n * profit_range`` at most this many DP cells skip the
#: rounded numpy tier and run the exact DP directly (it is fast enough and
#: avoids any fallback bookkeeping).
_EXACT_DP_CELL_LIMIT = 2_000_000


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


def _holders(tickets: Sequence[int]) -> tuple[list[int], list[int]]:
    """Ascending holder indices of a dense vector and their ticket counts."""
    indices = [i for i, t in enumerate(tickets) if t > 0]
    return indices, [tickets[i] for i in indices]


class _Checker:
    """What the two checkers share: the scaled view, the work counters and
    the quick-test / linear-mode / DP decision ladder.

    A checker decides on the *holders* of an assignment -- ascending party
    indices with positive ticket counts.  Every knapsack routine skips
    zero-ticket items and breaks density ties by input position, so the
    dense vector and its holder-only form give the same bounds, the same
    DP values and the same verdict: ``check`` extracts the holders and
    ``check_sparse`` takes them as given, which saves the ``O(n)`` scans
    per probe on large committees.
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
            knapsack.strict_cap_int(share * (1 << knapsack.SCALE_BITS)),
        )

    def quick(self, tickets: Sequence[int], total: int) -> Verdict:
        """Three-valued quick test from the greedy knapsack bounds."""
        indices, counts = _holders(tickets)
        ints = self.scaled.ints
        return self._quick([ints[i] for i in indices], counts, total)

    def _decide(
        self, indices: Sequence[int], counts: Sequence[int], total: int
    ) -> bool:
        self.stats.checks += 1
        if total <= 0:
            return False
        ints = self.scaled.ints
        held = [ints[i] for i in indices]
        if self.use_quick_test:
            verdict = self._quick(held, counts, total)
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
        return self._full(indices, held, counts, total)

    def _rounded_holders(self, indices: Sequence[int], *, round_up: bool) -> np.ndarray:
        """The holders' weights in the numpy tier's units, rounded down
        (enlarges the feasible family) or up (shrinks it)."""
        return self.scaled.rounded(round_up=round_up)[np.asarray(indices, dtype=np.intp)]


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

    def _quick(self, held: list[int], counts: Sequence[int], total: int) -> Verdict:
        target = self.violation_target(total)
        cap = self._cap
        order = knapsack.density_order(held, counts, self.scaled.shift)
        if knapsack.upper_bound(held, counts, order, cap.num, cap.den) < target:
            return Verdict.VALID
        if knapsack.lower_bound(held, counts, order, cap.num, cap.den) >= target:
            return Verdict.INVALID
        return Verdict.UNCERTAIN

    def _full(
        self,
        indices: Sequence[int],
        held: list[int],
        counts: Sequence[int],
        total: int,
    ) -> bool:
        """No subset with ``w(S) < capacity`` reaches the violation target.

        Decided soundly: small instances run the exact DP; large ones run
        the two rounded numpy passes and fall back to exact arithmetic only
        if the passes disagree.
        """
        target = self.violation_target(total)
        cap = self._cap
        if len(counts) * target > _EXACT_DP_CELL_LIMIT:
            down = self._rounded_holders(indices, round_up=False)
            mw = knapsack.min_weight_for_profit_numpy(down, counts, target)
            if mw is None or mw > cap.strict_rounded:
                # Even with under-stated weights no subset violates.
                return True
            up = self._rounded_holders(indices, round_up=True)
            mw = knapsack.min_weight_for_profit_numpy(up, counts, target)
            if mw is not None and mw <= cap.strict_rounded:
                # With over-stated weights a violating subset exists.
                return False
            self.stats.exact_fallbacks += 1
        mw = knapsack.min_weight_for_profit(held, counts, target)
        return mw is None or mw > cap.strict

    def check(self, tickets: Sequence[int], total: Optional[int] = None) -> bool:
        """Decide viability of ``tickets`` for this WR instance."""
        if total is None:
            total = sum(tickets)
        return self._decide(*_holders(tickets), total)

    def check_sparse(
        self, indices: Sequence[int], counts: Sequence[int], total: int
    ) -> bool:
        """Identical decision to :meth:`check` on the dense vector with
        ``counts[k]`` tickets at party ``indices[k]`` and zero elsewhere.

        ``indices`` must be ascending and ``counts`` positive (the form
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

    def _quick(self, held: list[int], counts: Sequence[int], total: int) -> Verdict:
        low, high = self._caps
        order = knapsack.density_order(held, counts, self.scaled.shift)
        upper = knapsack.upper_bound(
            held, counts, order, low.num, low.den
        ) + knapsack.upper_bound(held, counts, order, high.num, high.den)
        if upper < total:
            return Verdict.VALID
        lower = knapsack.lower_bound(
            held, counts, order, low.num, low.den
        ) + knapsack.lower_bound(held, counts, order, high.num, high.den)
        if lower >= total:
            return Verdict.INVALID
        return Verdict.UNCERTAIN

    def _full(
        self,
        indices: Sequence[int],
        held: list[int],
        counts: Sequence[int],
        total: int,
    ) -> bool:
        if len(counts) * total > _EXACT_DP_CELL_LIMIT:
            # Rounded-down weights enlarge the feasible family => upper bounds.
            down = self._rounded_holders(indices, round_up=False)
            if sum(
                knapsack.max_profit_under_numpy(down, counts, cap.strict_rounded)
                for cap in self._caps
            ) < total:
                return True
            # Rounded-up weights shrink it => achievable lower bounds.
            up = self._rounded_holders(indices, round_up=True)
            if sum(
                knapsack.max_profit_under_numpy(up, counts, cap.strict_rounded)
                for cap in self._caps
            ) >= total:
                return False
            self.stats.exact_fallbacks += 1
        return sum(
            knapsack.max_profit_under(held, counts, cap.strict) for cap in self._caps
        ) < total

    def check(self, tickets: Sequence[int], total: Optional[int] = None) -> bool:
        """Decide viability of ``tickets`` for this WS instance."""
        if total is None:
            total = sum(tickets)
        return self._decide(*_holders(tickets), total)

    def check_sparse(
        self, indices: Sequence[int], counts: Sequence[int], total: int
    ) -> bool:
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
