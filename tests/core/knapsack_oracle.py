"""The quick test as it was written on Python lists of exact integers.

``repro.core.knapsack`` now sorts a probe's holders with one numpy sort of
float keys and reads both greedy bounds off cumulative sums
(``DensityOrder``).  These are the list forms it replaced: a Python sort on
the integer keys ``(t << K) // a`` and item-by-item loops.  They share no
code with the array forms, which ``test_knapsack.py`` holds equal to them,
and ``test_fraction_oracle.py`` holds them equal to the Fraction bodies
before them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.core.types import scale_weights_exact


def density_order(
    int_weights: Sequence[int], profits: Sequence[int], shift: int
) -> list[int]:
    """Positions of profit-bearing items by non-increasing profit density
    ``profits[i] / int_weights[i]``, equal densities in input order.

    ``2**shift`` must be at least the square of the largest weight for the
    integer keys to order exactly.  Zero-weight profit-bearing items have
    infinite density and come first.
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
    """LP-relaxation value under the closed capacity ``cap_num / cap_den``."""
    if cap_num <= 0:
        return Fraction(0)
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
    """Max of the density-greedy packing and the best single item under
    the strict capacity ``cap_num / cap_den``."""
    if cap_num <= 0:
        return 0
    strict = (cap_num - 1) // cap_den
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
