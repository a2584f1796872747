"""Exact extremal coalitions over tickets, by integer knapsacks.

A theorem about a ticket assignment holds for *every* set of parties, so
a test of it at its boundary needs the extremal set, not a greedy one:

- :func:`most_tickets_under` -- the set lighter than a fraction of the
  total weight that holds the most tickets (Weight Restriction's worst
  case: the adversary's best coalition);
- :func:`fewest_tickets_above` -- the set heavier than a fraction of the
  total weight that holds the fewest tickets (Weight Qualification's
  worst case: the poorest honest quorum).

Both are dynamic programs over the ticket count, exact in integers (the
weight bound is compared as ``sum * den`` against ``total * num``).  They
import nothing from ``repro.core``, so they check the solver from outside.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

__all__ = ["most_tickets_under", "fewest_tickets_above"]


def _knapsack(
    weights: Sequence[int],
    tickets: Sequence[int],
    better: Callable[[int, int], bool],
) -> tuple[list, list[list[bool]]]:
    """``best[c]``: the best total weight (by ``better``) of a set holding
    exactly ``c`` tickets, ``None`` where no set does; ``taken[i][c]``:
    party ``i`` is in ``best[c]`` after party ``i``'s pass."""
    budget = sum(tickets)
    best: list = [None] * (budget + 1)
    best[0] = 0
    taken = []
    for w, t in zip(weights, tickets):
        row = [False] * (budget + 1)
        for c in range(budget, t - 1, -1):
            prev = best[c - t]
            if prev is not None and (best[c] is None or better(prev + w, best[c])):
                best[c] = prev + w
                row[c] = True
        taken.append(row)
    return best, taken


def _members(taken: list[list[bool]], tickets: Sequence[int], c: int) -> list[int]:
    members = []
    for i in range(len(taken) - 1, -1, -1):
        if taken[i][c]:
            members.append(i)
            c -= tickets[i]
    return sorted(members)


def most_tickets_under(weights, tickets, fraction) -> list[int]:
    """The set of parties lighter than ``fraction`` of the total weight
    (strictly) that holds the most tickets.  ``best[c]`` is the lightest
    set holding exactly ``c`` tickets; zero-ticket parties join no set
    (they add weight for nothing)."""
    bound = Fraction(fraction)
    total = sum(weights)
    best, taken = _knapsack(weights, tickets, lambda a, b: a < b)
    c = max(
        c
        for c, w in enumerate(best)
        if w is not None and w * bound.denominator < total * bound.numerator
    )
    return _members(taken, tickets, c)


def fewest_tickets_above(weights, tickets, fraction) -> list[int]:
    """The set of parties heavier than ``fraction`` of the total weight
    (strictly) that holds the fewest tickets.  ``best[c]`` is the heaviest
    set holding exactly ``c`` tickets; zero-ticket parties join every set
    (they add weight for free)."""
    bound = Fraction(fraction)
    total = sum(weights)
    best, taken = _knapsack(weights, tickets, lambda a, b: a > b)
    c = min(
        c
        for c, w in enumerate(best)
        if w is not None and w * bound.denominator > total * bound.numerator
    )
    return _members(taken, tickets, c)
