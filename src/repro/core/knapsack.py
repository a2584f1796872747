"""Knapsack machinery backing the validity checks (paper, Section 3.1).

Verifying a Swiper ticket assignment is a Knapsack instance: "does some
subset of weight strictly below a capacity collect at least a target number
of tickets?".  The paper solves it with *dynamic programming by profits*
([Kellerer-Pferschy-Pisinger, Lemma 2.3.2], ``O(n * T)``) and filters most
invocations out with quasilinear lower/upper bounds.

This module provides three tiers, all decided *soundly*:

1. quasilinear greedy bounds: the fractional (LP) relaxation as an upper
   bound and an integral greedy + best-single-item value as an achievable
   lower bound.  These implement the paper's conservative/liberal quick
   checks and settle most probes;
2. a vectorized numpy DP on weights scaled to ``2**40`` relative
   precision, at every instance size: *one table* of minimum weights by
   profit (:func:`min_weight_table`) that is read at as many capacities as
   the caller has (:func:`max_profit_in`).  It is built on weights rounded
   *down* (enlarges the feasible family: a "no" here is a certified no)
   and, if that did not settle it, rounded *up* (shrinks it: a "yes" here
   is a certified yes);
3. exact big-integer DP on weights scaled by their common denominator
   (:func:`min_weight_for_profit`, :func:`max_profit_under`), run only
   when the two roundings of (2) disagree -- and the oracle the tests
   hold (2) to.

Every tier computes on the integers of one
:class:`~repro.core.types.ScaledWeights` view -- item weights ``a_i``,
capacities as integer ratios ``cap_num / cap_den`` in the same units.  The
functions that take :class:`~fractions.Fraction` weights scale them once
and call the integer forms (:func:`density_order`, :func:`upper_bound`,
:func:`lower_bound`); the only Fraction a bound builds is the value
:func:`upper_bound` returns, for the caller's one ``upper < target``.

The density order sorts items by ``t_i / a_i`` through the integer keys
``(t_i << K) // a_i``.  With ``2**K >= a_max**2`` two distinct densities
are at least ``2**K / (a_i a_j) >= 1`` apart after the shift, so their
floors differ in the same direction, and equal densities give equal keys,
which the stable sort leaves in input order -- the order, ties included,
of sorting by the exact rational (:mod:`repro.core.types` has the
argument in full).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .types import SCALE_BITS, scale_ints_rounded, scale_weights_exact

__all__ = [
    "strict_cap_int",
    "scale_weights_exact",
    "scale_weights_rounded",
    "min_weight_for_profit",
    "max_profit_under",
    "min_weight_table",
    "max_profit_in",
    "min_weight_for_profit_numpy",
    "density_order",
    "upper_bound",
    "lower_bound",
    "fractional_upper_bound",
    "greedy_lower_bound",
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
    capacity: :func:`max_profit_in` reads as many capacities off it as the
    caller has.  A ``width`` below the total profit clips it -- entries
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


def max_profit_in(table: np.ndarray, cap: int) -> int:
    """Largest ``p`` with ``table[p] <= cap``: the maximum profit of a
    subset of weight at most ``cap``, or the table's width if that is
    smaller.  ``cap < 0`` admits no subset and gives ``0``, the convention
    of :func:`max_profit_under`."""
    if cap < 0:
        return 0
    return int(np.searchsorted(table, cap, side="right")) - 1


def min_weight_for_profit_numpy(
    weights64: np.ndarray, profits: Sequence[int], target: int
) -> Optional[int]:
    """Numpy counterpart of :func:`min_weight_for_profit`: the last entry
    of the table of width ``target``, in the units of ``weights64``."""
    if target <= 0:
        return 0
    result = int(min_weight_table(weights64, profits, target)[target])
    return None if result >= int(_INT64_INF) else result


# ---------------------------------------------------------------------------
# The quasilinear tier: greedy bounds (the paper's quick checks)
# ---------------------------------------------------------------------------


def density_order(
    int_weights: Sequence[int], profits: Sequence[int], shift: int
) -> list[int]:
    """Positions of profit-bearing items by non-increasing profit density
    ``profits[i] / int_weights[i]``, equal densities in input order.

    ``2**shift`` must be at least the square of the largest weight (a
    view's ``shift`` is) for the integer keys to order exactly.  Zero-weight
    profit-bearing items have infinite density and come first.
    """
    bearing = [i for i, t in enumerate(profits) if t > 0]
    free = [i for i in bearing if not int_weights[i]]
    priced = [i for i in bearing if int_weights[i]] if free else bearing
    keys = [(profits[i] << shift) // int_weights[i] for i in priced]
    by_density = sorted(range(len(priced)), key=keys.__getitem__, reverse=True)
    return free + [priced[k] for k in by_density]


def upper_bound(
    int_weights: Sequence[int],
    profits: Sequence[int],
    order: Sequence[int],
    cap_num: int,
    cap_den: int,
) -> Fraction:
    """LP-relaxation value: an upper bound on the strict-capacity optimum.

    Fills items in density ``order`` under the capacity ``cap_num /
    cap_den``, taking a fractional piece of the first item that no longer
    fits.  Computed with closed capacity, which only weakens (never
    invalidates) the bound for the strict problem.
    """
    if cap_num <= 0:
        return Fraction(0)
    # Integer weights fit the closed capacity iff they fit its floor.
    room, excess = divmod(cap_num, cap_den)
    value = 0
    for i in order:
        w = int_weights[i]
        if w <= room:
            value += profits[i]
            room -= w
        else:
            return value + Fraction(profits[i] * (room * cap_den + excess), w * cap_den)
    return Fraction(value)


def lower_bound(
    int_weights: Sequence[int],
    profits: Sequence[int],
    order: Sequence[int],
    cap_num: int,
    cap_den: int,
) -> int:
    """An *achievable* profit under the strict capacity ``cap_num / cap_den``.

    Classic half-approximation: max of the density-greedy packing and the
    best single feasible item.  Every value returned is realized by an
    actual subset with ``w(S) < capacity``.
    """
    if cap_num <= 0:
        return 0
    strict = (cap_num - 1) // cap_den  # largest integer strictly below capacity
    packed = cum = best_single = 0
    for i in order:
        w, t = int_weights[i], profits[i]
        if cum + w <= strict:
            packed += t
            cum += w
        if w <= strict and t > best_single:
            best_single = t
    return max(packed, best_single)


def _scaled_instance(
    weights: Sequence[Fraction], profits: Sequence[int], capacity: Fraction
) -> tuple[list[int], list[int], int, int]:
    """Integer weights, their density order and the capacity as
    ``cap_num / cap_den`` in the same units."""
    ints, denom = scale_weights_exact(weights)
    order = density_order(ints, profits, 2 * max(ints, default=0).bit_length())
    cap = capacity * denom
    return ints, order, cap.numerator, cap.denominator


def fractional_upper_bound(
    weights: Sequence[Fraction], profits: Sequence[int], capacity: Fraction
) -> Fraction:
    """:func:`upper_bound` for rational weights and capacity."""
    ints, order, cap_num, cap_den = _scaled_instance(weights, profits, capacity)
    return upper_bound(ints, profits, order, cap_num, cap_den)


def greedy_lower_bound(
    weights: Sequence[Fraction], profits: Sequence[int], capacity: Fraction
) -> int:
    """:func:`lower_bound` for rational weights and capacity."""
    ints, order, cap_num, cap_den = _scaled_instance(weights, profits, capacity)
    return lower_bound(ints, profits, order, cap_num, cap_den)
