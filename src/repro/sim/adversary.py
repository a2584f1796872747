"""Corruption strategies for weighted adversaries.

The weighted model lets the adversary corrupt any party set holding less
than a fraction ``f_w`` of the total weight (paper, Section 1.1).  Which
set an adversary *should* pick depends on its goal; the strategies here
include a greedy attack on weight reduction -- capturing *tickets* in
order of tickets per unit of weight -- used by the adversarial-attack
tests and the "hybrid distribution" future-work experiment (Section 9).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..core.types import Number, as_fraction, normalize_weights

__all__ = [
    "heaviest_under",
    "most_tickets_under",
    "corrupt_weight_fraction",
]


def _budget(weights: Sequence[Fraction], fraction: Fraction) -> Fraction:
    return fraction * sum(weights, start=Fraction(0))


def heaviest_under(weights: Sequence[Number], fraction: Number) -> set[int]:
    """Greedy: corrupt the heaviest parties while staying strictly below
    ``fraction`` of the total weight."""
    ws = normalize_weights(weights)
    budget = _budget(ws, as_fraction(fraction))
    chosen: set[int] = set()
    used = Fraction(0)
    for i in sorted(range(len(ws)), key=lambda i: (-ws[i], i)):
        if used + ws[i] < budget:
            chosen.add(i)
            used += ws[i]
    return chosen


def most_tickets_under(
    weights: Sequence[Number], tickets: Sequence[int], fraction: Number
) -> set[int]:
    """Greedy knapsack: pick parties in decreasing tickets-per-weight
    order while staying strictly below the weight budget.  A heuristic
    with no optimality guarantee: it can hold fewer tickets than the
    exact worst-case coalition under the same budget."""
    ws = normalize_weights(weights)
    if len(tickets) != len(ws):
        raise ValueError("tickets and weights must have equal length")
    budget = _budget(ws, as_fraction(fraction))
    order = sorted(
        (i for i in range(len(ws)) if tickets[i] > 0),
        key=lambda i: (-(Fraction(tickets[i]) / ws[i]) if ws[i] > 0 else 0, i),
    )
    chosen: set[int] = set()
    used = Fraction(0)
    for i in order:
        if used + ws[i] < budget:
            chosen.add(i)
            used += ws[i]
    # Zero-ticket parties are free damage-wise but may still block quorums;
    # include the lightest ones that fit.
    for i in sorted(range(len(ws)), key=lambda i: (ws[i], i)):
        if i not in chosen and used + ws[i] < budget:
            chosen.add(i)
            used += ws[i]
    return chosen


def corrupt_weight_fraction(
    weights: Sequence[Number], corrupt: set[int]
) -> Fraction:
    """Fraction of total weight held by ``corrupt``."""
    ws = normalize_weights(weights)
    total = sum(ws, start=Fraction(0))
    return sum((ws[i] for i in corrupt), start=Fraction(0)) / total
