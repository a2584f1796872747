"""Knapsack machinery backing the validity checks (paper, Section 3.1).

Verifying a Swiper ticket assignment is a Knapsack instance: "does some
subset of weight strictly below a capacity collect at least a target number
of tickets?".  The paper solves it with *dynamic programming by profits*
([Kellerer-Pferschy-Pisinger, Lemma 2.3.2], ``O(n * T)``) and filters most
invocations out with quasilinear lower/upper bounds.

This module provides three tiers, all decided *soundly*, all on a probe's
holders as arrays:

1. quasilinear greedy bounds (:class:`DensityOrder`): the fractional (LP)
   relaxation as an upper bound and an integral greedy + best-single-item
   value as an achievable lower bound -- the paper's conservative/liberal
   quick checks, which settle most probes.  The holders are put in density
   order by one numpy sort of float keys (exact keys only where floats
   cannot separate them), and both bounds read cumulative sums in that
   order: float sums locate where a capacity is crossed, exact integer
   sums on the view's limbs decide it;
2. a numpy DP on weights scaled to ``2**40`` relative precision, at every
   instance size (:class:`FoldedTable`): *one table* of minimum weights by
   profit (:func:`min_weight_table`) over every holder but the largest
   group with equal ticket counts -- on Swiper probes, the one-ticket
   holders -- which is folded in at read time, at as many capacities as
   the caller has.  It is built on weights rounded *down* (enlarges the
   feasible family: a "no" here is a certified no) and, if that did not
   settle it, rounded *up* (shrinks it: a "yes" here is a certified yes);
3. exact big-integer DP on weights scaled by their common denominator
   (:func:`min_weight_for_profit`, :func:`max_profit_under`), run only
   when the two roundings of (2) disagree -- and the oracle the tests
   hold (2) to.

Every tier computes on one :class:`~repro.core.types.ScaledWeights` view --
item weights ``a_i``, capacities as integer ratios ``cap_num / cap_den`` in
the same units; the only Fraction a bound builds is the value
:meth:`DensityOrder.upper_bound` returns, for the caller's one ``upper <
target``.

The density order is that of the exact rationals ``t_i / a_i``, ties in
holder order: float keys ``log a_i - log t_i`` sort, and every run of keys
closer than their error bound is re-sorted on the integer keys ``(t_i <<
K) // a_i``.  With ``2**K >= a_max**2`` two distinct densities are at
least ``2**K / (a_i a_j) >= 1`` apart after the shift, so their floors
differ in the same direction, and equal densities give equal keys
(:mod:`repro.core.types` has the argument in full).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .types import (
    KEY_TOLERANCE,
    SCALE_BITS,
    ScaledWeights,
    close_runs,
    scale_ints_rounded,
    scale_weights_exact,
)

__all__ = [
    "strict_cap_int",
    "scale_weights_exact",
    "scale_weights_rounded",
    "min_weight_for_profit",
    "max_profit_under",
    "min_weight_table",
    "FoldedTable",
    "DensityOrder",
    "SCALE_BITS",
]

_INT64_INF = np.int64(1) << np.int64(62)


def strict_cap_int(capacity: Fraction) -> int:
    """Largest integer strictly below ``capacity`` (``-1`` if none >= 0).

    Integer subset weights satisfy ``w(S) < capacity`` iff
    ``w(S) <= strict_cap_int(capacity)``.
    """
    if capacity <= 0:
        return -1
    p, q = capacity.numerator, capacity.denominator
    return (p - 1) // q


def scale_weights_rounded(
    weights: Sequence[Fraction], total: Fraction, *, round_up: bool
) -> np.ndarray:
    """Scale weights to ``w_i * 2**SCALE_BITS / total`` rounded to int64.

    ``round_up=False`` rounds down (never overstates a subset's weight, so
    every truly feasible subset stays feasible); ``round_up=True`` rounds
    up (every subset feasible after scaling is truly feasible).
    """
    ints, denom = scale_weights_exact(weights)
    scaled_total = total * denom
    return scale_ints_rounded(
        ints,
        scaled_total.denominator << SCALE_BITS,
        scaled_total.numerator,
        round_up=round_up,
    )


# ---------------------------------------------------------------------------
# The exact tier: dynamic programming by profits on big integers
# ---------------------------------------------------------------------------


def min_weight_for_profit(
    int_weights: Sequence[int], profits: Sequence[int], target: int
) -> Optional[int]:
    """Minimum total integer weight of a subset with profit >= ``target``.

    Exact DP by profits, ``O(n * target)``; returns ``None`` when even the
    full set falls short of ``target``.  ``target <= 0`` returns ``0`` (the
    empty set).
    """
    if target <= 0:
        return 0
    dp: list[Optional[int]] = [0] + [None] * target
    for w, t in zip(int_weights, profits):
        if t <= 0:
            continue
        for p in range(target, 0, -1):
            src = dp[p - t] if p > t else dp[0]
            if src is not None:
                cand = src + w
                cur = dp[p]
                if cur is None or cand < cur:
                    dp[p] = cand
    return dp[target]


def max_profit_under(
    int_weights: Sequence[int], profits: Sequence[int], cap: int
) -> int:
    """Maximum profit of a subset with total integer weight <= ``cap``.

    Exact DP by profits over the full profit range.  ``cap < 0`` admits no
    subset at all (not even the empty one) and returns ``0`` by convention
    with the understanding that callers treat a negative cap as "vacuous".
    """
    if cap < 0:
        return 0
    total_profit = sum(t for t in profits if t > 0)
    if total_profit == 0:
        return 0
    dp: list[Optional[int]] = [0] + [None] * total_profit
    for w, t in zip(int_weights, profits):
        if t <= 0:
            continue
        for p in range(total_profit, 0, -1):
            src = dp[p - t] if p > t else dp[0]
            if src is not None:
                cand = src + w
                cur = dp[p]
                if cur is None or cand < cur:
                    dp[p] = cand
    best = 0
    for p in range(total_profit, -1, -1):
        if dp[p] is not None and dp[p] <= cap:
            best = p
            break
    return best


# ---------------------------------------------------------------------------
# The rounded tier: one numpy table of minimum weights by profit
# ---------------------------------------------------------------------------


def min_weight_table(
    weights64: np.ndarray, profits: Sequence[int], width: int
) -> np.ndarray:
    """``table[p]``, ``p = 0..width``: minimum total weight of a subset
    with profit at least ``p`` (``2**62`` where no subset has).

    The one DP by profits of the rounded tier, a vector operation per
    item; ``weights64`` is ``int64`` (e.g. from
    :func:`~repro.core.types.scale_ints_rounded`) and the entries are in
    its units.  The table is non-decreasing and does not depend on any
    capacity.  A ``width`` below the total profit clips it -- entries
    ``0..width`` are those of the full table.
    """
    dp = np.full(width + 1, _INT64_INF, dtype=np.int64)
    dp[0] = 0
    shifted = np.empty_like(dp)
    reach = 0  # no subset of the items so far has a profit above this
    for w, t in zip(weights64.tolist(), profits):
        if t <= 0:
            continue
        reach = min(reach + t, width)
        if t >= reach:
            # Alone it reaches every profit any subset so far does.
            np.minimum(dp[1 : reach + 1], w, out=dp[1 : reach + 1])
            continue
        # dp[p] = min(dp[p], dp[max(p - t, 0)] + w), and dp[0] is 0.
        shifted[:t] = w
        np.add(dp[: reach + 1 - t], w, out=shifted[t : reach + 1])
        np.minimum(dp[: reach + 1], shifted[: reach + 1], out=dp[: reach + 1])
    return dp


class FoldedTable:
    """Minimum weights by profit over items with non-negative ``int64``
    weights and profits, clipped at ``width``; the largest group of items
    with equal positive profits is folded in at read time, and items of
    zero profit are skipped, as :func:`min_weight_table` skips them.

    The table proper is :func:`min_weight_table` over the other items.
    The group -- the one-ticket holders of a Swiper probe, most of them on
    a large committee -- is kept as ``lightest[k]``, the total weight of
    its ``k`` lightest members, and each reading is one vector expression
    over the table.  Both readings are exact: among the subsets that take
    ``k`` items of one equal-profit group, those taking the ``k`` lightest
    weigh the least.
    """

    def __init__(self, weights64: np.ndarray, profits: np.ndarray, width: int) -> None:
        values, sizes = np.unique(profits[profits > 0], return_counts=True)
        #: the group's common profit
        self.step = int(values[np.argmax(sizes)]) if len(values) else 1
        group = profits == self.step
        rest = ~group
        self.table = min_weight_table(weights64[rest], profits[rest].tolist(), width)
        self.lightest = np.concatenate(([0], np.cumsum(np.sort(weights64[group]))))

    def min_weight(self, target: int) -> Optional[int]:
        """Minimum total weight of a subset with profit at least ``target``
        (``0 <= target <= width``), ``None`` if no subset has:
        ``min_j table[j] + lightest[ceil((target - j) / step)]``."""
        step = self.step
        j = np.arange(max(0, target - step * (len(self.lightest) - 1)), target + 1)
        best = int((self.table[j] + self.lightest[(target - j + step - 1) // step]).min())
        return None if best >= _INT64_INF else best

    def max_profit(self, cap: int) -> int:
        """Maximum profit of a subset of total weight at most ``cap``, or
        the width if that is smaller: ``max_j j + step * #{k >= 1 :
        lightest[k] <= cap - table[j]}`` over the ``j`` with ``table[j] <=
        cap``.  ``cap < 0`` admits no subset and gives ``0``, the
        convention of :func:`max_profit_under`."""
        if cap < 0:
            return 0
        room = cap - self.table[: np.searchsorted(self.table, cap, side="right")]
        extra = np.searchsorted(self.lightest, room, side="right") - 1
        best = int((np.arange(len(room)) + self.step * extra).max())
        return min(len(self.table) - 1, best)


# ---------------------------------------------------------------------------
# The quasilinear tier: greedy bounds (the paper's quick checks)
# ---------------------------------------------------------------------------


class DensityOrder:
    """A probe's holders -- ascending party ``indices`` of ``view`` with
    positive ticket ``counts`` -- by non-increasing profit density
    ``t_i / a_i``, equal densities in holder order (zero weights, of
    infinite density, first), with the prefix sums both greedy bounds
    read: float sums locate a capacity's crossing, exact sums on the
    view's limbs decide it.
    """

    def __init__(
        self, view: ScaledWeights, indices: np.ndarray, counts: np.ndarray
    ) -> None:
        arrays = view.arrays
        self._ints = view.ints
        logs = arrays.logs[indices]
        keys = logs - np.log(counts)
        order = keys.argsort(kind="stable")
        keys = keys[order]
        free = int(keys.searchsorted(-math.inf, side="right"))
        # Float keys are off by a few ulps of the logs that enter them.
        tol = KEY_TOLERANCE * (logs.max(initial=0.0) + math.log(counts.max(initial=1)) + 1)
        members, runs = close_runs(keys[free:], tol)
        if len(members):
            members += free
            run = order[members]
            exact = [
                -((t << view.shift) // self._ints[i])
                for t, i in zip(counts[run].tolist(), indices[run].tolist())
            ]
            order[members] = [p for *_, p in sorted(zip(runs.tolist(), exact, run.tolist()))]
        self.parties = indices[order]
        self._t = counts[order]
        # Cumulative sums: entry k - 1 sums the first k items.
        self._tcum = self._t.cumsum()
        self._approx = arrays.floats[self.parties]
        self._acum = self._approx.cumsum()
        self._float_shift = arrays.float_shift
        self._cum = arrays.limbs[:, self.parties].cumsum(axis=1)
        self._limb_bits = arrays.limb_bits

    def _float(self, x: int) -> float:
        """``x`` in the units of the float sums (monotone in ``x``)."""
        return float(x >> self._float_shift)

    def _weight(self, k: int) -> int:
        """The exact weight of the ``k``-th item (from 0)."""
        return self._ints[int(self.parties[k])]

    def _tickets(self, k: int) -> int:
        """The total profit of the first ``k`` items."""
        return int(self._tcum[k - 1]) if k else 0

    def _prefix(self, k: int) -> int:
        """The exact total weight of the first ``k`` items."""
        if not k:
            return 0
        bits = self._limb_bits
        return sum(v << (bits * l) for l, v in enumerate(self._cum[:, k - 1].tolist()))

    def _fit(self, x: int) -> int:
        """How many leading items weigh at most ``x >= 0`` together: the
        float sums' guess, confirmed on two exact sums (bisected on exact
        sums only when the guess is off)."""
        k = int(self._acum.searchsorted(self._float(x), side="right"))
        if self._prefix(k) <= x:
            if k == len(self._t) or self._prefix(k + 1) > x:
                return k
            lo, hi = k + 1, len(self._t)
        else:
            lo, hi = 0, k - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._prefix(mid) <= x:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def upper_bound(self, cap_num: int, cap_den: int) -> Fraction:
        """LP-relaxation value: an upper bound on the strict-capacity optimum.

        Fills items in density order under the capacity ``cap_num /
        cap_den``, taking a fractional piece of the first item that no
        longer fits.  Computed with closed capacity, which only weakens
        (never invalidates) the bound for the strict problem.
        """
        if cap_num <= 0:
            return Fraction(0)
        # Integer weights fit the closed capacity iff they fit its floor.
        room, excess = divmod(cap_num, cap_den)
        j = self._fit(room)
        value = self._tickets(j)
        if j == len(self._t):
            return Fraction(value)
        left = room - self._prefix(j)
        return value + Fraction(
            int(self._t[j]) * (left * cap_den + excess), self._weight(j) * cap_den
        )

    def lower_bound(self, cap_num: int, cap_den: int) -> int:
        """An *achievable* profit under the strict capacity ``cap_num /
        cap_den``.

        Classic half-approximation: max of the density-greedy packing
        (which skips an item that does not fit and goes on) and the best
        single feasible item.  Every value returned is realized by an
        actual subset with ``w(S) < capacity``.
        """
        if cap_num <= 0:
            return 0
        strict = (cap_num - 1) // cap_den  # largest integer strictly below capacity
        j = self._fit(strict)
        packed = self._tickets(j)
        # Past the crossing only an item no heavier than what is left can
        # fit, and what is left only shrinks.
        left = strict - self._prefix(j)
        tail = j + 1 + (self._approx[j + 1 :] <= self._float(left)).nonzero()[0]
        ints = self._ints
        for i, t in zip(self.parties[tail].tolist(), self._t[tail].tolist()):
            w = ints[i]
            if w <= left:
                packed += t
                left -= w
        # The best single item: a float below the capacity's proves a fit,
        # above it a miss; only equal floats need the exact weight.
        at = self._float(strict)
        single = int(self._t[self._approx < at].max(initial=0))
        for k in ((self._approx == at) & (self._t > single)).nonzero()[0].tolist():
            if self._weight(k) <= strict:
                single = max(single, int(self._t[k]))
        return max(packed, single)
