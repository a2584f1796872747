"""Tight access structures via one extra vote round (paper, Section 4.3).

A blunt primitive only guarantees "honest can, corrupt alone cannot".  To
get a *tight* weighted threshold ``A_w(beta)`` -- the action happens iff
parties of weight more than ``beta * W`` want it -- the paper prepends a
vote round: an honest party first broadcasts a weightless VOTE; only when
it has seen votes of weight above ``beta * W`` does it contribute its
actual secret share.  The blunt structure underneath then ensures the
action completes exactly when a weighted threshold of parties voted.

:class:`TightGate` is the pure state machine of that vote round; protocol
code drives it with delivered votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..core.types import Number, as_fraction, normalize_weights

__all__ = ["TightGate"]


class TightGate:
    """Vote-collection gate for one action.

    The gate opens when distinct voters accumulate weight strictly above
    ``beta * W``; once open it stays open (votes are never retracted).
    """

    def __init__(self, weights: Sequence[Number], beta: Number) -> None:
        self.weights = normalize_weights(weights)
        self.beta = as_fraction(beta)
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        self.total = sum(self.weights, start=Fraction(0))
        self._voters: set[int] = set()
        self._weight = Fraction(0)

    @property
    def voted_weight(self) -> Fraction:
        return self._weight

    @property
    def open(self) -> bool:
        """Has the weighted vote threshold been crossed?"""
        return self._weight > self.beta * self.total

    def add_vote(self, party: int) -> bool:
        """Record a vote (idempotent); returns the gate state after it."""
        if not 0 <= party < len(self.weights):
            raise IndexError(f"unknown party {party}")
        if party not in self._voters:
            self._voters.add(party)
            self._weight += self.weights[party]
        return self.open

    def missing_weight(self) -> Fraction:
        """Weight still needed to open (0 when already open)."""
        needed = self.beta * self.total - self._weight
        return max(needed, Fraction(0))
