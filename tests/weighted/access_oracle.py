"""Access and adversary structures (paper, Section 4.2), as set predicates.

The protocols decide with ticket tallies and quorum policies
(``repro.weighted.quorum``); these definitions are what the tests hold
those to.  An *access structure* is the family of party sets able to perform a
protected action; an *adversary structure* is the family of sets the
adversary may corrupt simultaneously.  The paper's key definition is the
*blunt* access structure: it excludes every corruptible set and contains
at least one all-honest set -- precisely what liveness + safety of coins,
blunt threshold signatures, etc. require (Definition 4.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.core.types import Number, as_fraction, normalize_weights

__all__ = [
    "NominalThresholdAccess",
    "WeightedThresholdAccess",
    "TicketThresholdAccess",
    "WeightedAdversaryStructure",
    "is_blunt_for",
]


@dataclass(frozen=True)
class NominalThresholdAccess:
    """``A_n(alpha) = {P : |P| > alpha * n}`` -- nominal threshold access."""

    n: int
    alpha: Fraction

    def __init__(self, n: int, alpha: Number) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "alpha", as_fraction(alpha))
        if self.n <= 0 or not 0 < self.alpha < 1:
            raise ValueError("need n > 0 and alpha in (0, 1)")

    def contains(self, party_set: Iterable[int]) -> bool:
        return len(set(party_set)) > self.alpha * self.n

    @property
    def min_size(self) -> int:
        """Smallest set size in the structure."""
        return math.floor(self.alpha * self.n) + 1


@dataclass(frozen=True)
class WeightedThresholdAccess:
    """``A_w(alpha) = {P : w(P) > alpha * W}`` -- weighted threshold access."""

    weights: tuple[Fraction, ...]
    alpha: Fraction

    def __init__(self, weights: Sequence[Number], alpha: Number) -> None:
        object.__setattr__(self, "weights", normalize_weights(weights))
        object.__setattr__(self, "alpha", as_fraction(alpha))
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")

    @property
    def total(self) -> Fraction:
        return sum(self.weights, start=Fraction(0))

    def contains(self, party_set: Iterable[int]) -> bool:
        w = sum((self.weights[i] for i in set(party_set)), start=Fraction(0))
        return w > self.alpha * self.total


@dataclass(frozen=True)
class TicketThresholdAccess:
    """Access by ticket count: ``{P : t(P) >= ceil(alpha_n * T)}``.

    This is what a Weight Restriction solution induces when each ticket
    becomes a virtual user in a nominal threshold scheme (Theorem 4.2).
    """

    tickets: tuple[int, ...]
    alpha_n: Fraction

    def __init__(self, tickets: Sequence[int], alpha_n: Number) -> None:
        object.__setattr__(self, "tickets", tuple(int(t) for t in tickets))
        object.__setattr__(self, "alpha_n", as_fraction(alpha_n))
        if not 0 < self.alpha_n < 1:
            raise ValueError("alpha_n must be in (0, 1)")
        if sum(self.tickets) <= 0:
            raise ValueError("assignment must allocate at least one ticket")

    @property
    def total(self) -> int:
        return sum(self.tickets)

    @property
    def threshold(self) -> int:
        """``ceil(alpha_n * T)`` shares/virtual users needed."""
        value = self.alpha_n * self.total
        return -((-value.numerator) // value.denominator)

    def contains(self, party_set: Iterable[int]) -> bool:
        held = sum(self.tickets[i] for i in set(party_set))
        return held >= self.threshold


@dataclass(frozen=True)
class WeightedAdversaryStructure:
    """``F_w(f_w) = {P : w(P) < f_w * W}`` -- weighted corruption family."""

    weights: tuple[Fraction, ...]
    f_w: Fraction

    def __init__(self, weights: Sequence[Number], f_w: Number) -> None:
        object.__setattr__(self, "weights", normalize_weights(weights))
        object.__setattr__(self, "f_w", as_fraction(f_w))
        if not 0 < self.f_w < 1:
            raise ValueError("f_w must be in (0, 1)")

    @property
    def total(self) -> Fraction:
        return sum(self.weights, start=Fraction(0))

    def corruptible(self, party_set: Iterable[int]) -> bool:
        w = sum((self.weights[i] for i in set(party_set)), start=Fraction(0))
        return w < self.f_w * self.total

    def max_corruptible_sets(self) -> None:
        raise NotImplementedError(
            "enumeration is exponential; use repro.sim.adversary strategies"
        )


def is_blunt_for(
    access,
    adversary: WeightedAdversaryStructure,
    *,
    n: int,
) -> bool:
    """Definition 4.1 check by exhaustive enumeration (small ``n`` only).

    ``access`` must be blunt w.r.t. ``adversary``: no corruptible set is in
    the access structure, and the complement of some corruptible set
    containing every honest party is in it.  Checking all subsets is
    exponential; intended for tests (``n <= 16``).
    """
    if n > 16:
        raise ValueError("exhaustive bluntness check limited to n <= 16")
    universe = list(range(n))
    from itertools import combinations

    all_sets = [
        frozenset(c) for r in range(n + 1) for c in combinations(universe, r)
    ]
    corruptible = [s for s in all_sets if adversary.corruptible(s)]
    for f in corruptible:
        if access.contains(f):
            return False
    for f in corruptible:
        honest = frozenset(universe) - f
        if access.contains(honest):
            continue
        return False
    return True
