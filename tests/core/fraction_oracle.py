"""The solver's hot path as it was written on exact ``Fraction`` values.

These are the bodies ``repro.core.prices`` and ``repro.core.knapsack`` had
before the solver moved to one integer scaling per weight vector: the
``(price, party, ordinal)`` heap, the Fraction-keyed density sort and the
two greedy bounds.  They share no arithmetic with the integer code, which
``test_fraction_oracle.py`` holds equal to them pick for pick, position
for position and value for value; ``test_price_selection.py`` holds the
price stream's array selection to :func:`cheapest_picks` as well.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence


def cheapest_picks(weights: Sequence[Fraction], c: Fraction, total: int) -> list[int]:
    """Party index of the ``k``-th cheapest ticket for ``k = 1..total``,
    prices ``(m - c) / w_i`` compared as Fractions, ties by party index."""
    heap = [((1 - c) / w, i, 1) for i, w in enumerate(weights) if w > 0]
    heapq.heapify(heap)
    picks = []
    while len(picks) < total:
        _, i, m = heapq.heappop(heap)
        picks.append(i)
        heapq.heappush(heap, ((m + 1 - c) / weights[i], i, m + 1))
    return picks


def density_order(weights: Sequence[Fraction], profits: Sequence[int]) -> list[int]:
    """Indices of profit-bearing items by non-increasing profit density."""
    items = [i for i, t in enumerate(profits) if t > 0]
    # Zero-weight profit-bearing items get infinite density; sort first by
    # the zero-weight flag then by exact rational density.
    return sorted(
        items,
        key=lambda i: (
            0 if weights[i] == 0 else 1,
            -Fraction(profits[i], 1) / weights[i] if weights[i] > 0 else 0,
        ),
    )


def fractional_upper_bound(
    weights: Sequence[Fraction], profits: Sequence[int], capacity: Fraction
) -> Fraction:
    """LP-relaxation value: an upper bound on the strict-capacity optimum."""
    if capacity <= 0:
        return Fraction(0)
    value = Fraction(0)
    remaining = capacity
    for i in density_order(weights, profits):
        w, t = weights[i], profits[i]
        if w == 0:
            value += t
            continue
        if w <= remaining:
            value += t
            remaining -= w
        else:
            value += Fraction(t) * remaining / w
            break
    return value


def greedy_lower_bound(
    weights: Sequence[Fraction], profits: Sequence[int], capacity: Fraction
) -> int:
    """An achievable profit under the strict capacity: max of the
    density-greedy packing and the best single feasible item."""
    if capacity <= 0:
        return 0
    packed = 0
    cum = Fraction(0)
    best_single = 0
    for i in density_order(weights, profits):
        w, t = weights[i], profits[i]
        if cum + w < capacity:
            packed += t
            cum += w
        if w < capacity and t > best_single:
            best_single = t
    return max(packed, best_single)
