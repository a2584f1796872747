"""Quorum policies: nominal counting vs. weighted voting (Section 1.2).

Many protocols only need "wait until enough confirmations"; the weighted
translation replaces a count threshold with a weight-fraction threshold.
Protocols in :mod:`repro.protocols` are parameterized by a
:class:`QuorumPolicy` so the same code runs nominally or weighted -- the
paper's observation that weighted voting alone converts the quorum-based
parts of a protocol with no resilience loss.

A policy says the same thing twice.  The set predicates (``echo_quorum``
and friends) judge a set of senders from scratch.  The integer form --
``vote_weights`` and the ``*_need`` thresholds, with the one rule
``tally > need`` -- lets a protocol keep a running tally and pay one
integer add per distinct vote: Bracha's ECHO / READY rules
(:class:`~repro.protocols.reliable_broadcast.BrachaInstance`) run on it,
and the predicates stay for the set-valued questions (AVID's storage
phase, recovery's certificates, ``SmrParty.epoch_closed``) and as the
tally's oracle in ``tests/weighted/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..core.types import Number, as_fraction, normalize_weights

__all__ = ["QuorumPolicy", "NominalQuorums", "WeightedQuorums"]


class QuorumPolicy:
    """Threshold predicates a Bracha-style broadcast needs.

    ``echo_quorum``: enough ECHOs to become ready (intersects any other
    echo quorum in an honest party).  ``ready_amplify``: enough READYs to
    echo the readiness even without an echo quorum.  ``deliver_quorum``:
    enough READYs to deliver.  ``storage_quorum``: enough stored-fragment
    acks for dispersal completeness (AVID).

    The same thresholds as integers, for running tallies: party ``i``'s
    vote adds ``vote_weights[i]``, and a tally of distinct senders is an
    echo quorum -- and, of READYs, a deliver quorum -- iff it is
    ``> echo_need``, and amplifies a READY iff it is ``> ready_need``.
    """

    #: integer weight of each party's vote, indexed by pid
    vote_weights: tuple[int, ...]
    #: ECHO-quorum and delivery threshold of a tally (``tally > need``)
    echo_need: int
    #: READY-amplification threshold of a tally (``tally > need``)
    ready_need: int

    def echo_quorum(self, senders: Iterable[int]) -> bool:
        raise NotImplementedError

    def ready_amplify(self, senders: Iterable[int]) -> bool:
        raise NotImplementedError

    def deliver_quorum(self, senders: Iterable[int]) -> bool:
        raise NotImplementedError

    def storage_quorum(self, senders: Iterable[int]) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class NominalQuorums(QuorumPolicy):
    """Classic ``n = 3t + 1`` thresholds: echo/deliver at ``n - t``,
    ready amplification at ``t + 1``, storage at ``2t + 1``.  Every vote
    weighs 1."""

    n: int
    t: int

    def __post_init__(self) -> None:
        if not (self.n >= 3 * self.t + 1 and self.t >= 0):
            raise ValueError("nominal quorums require n >= 3t + 1")
        object.__setattr__(self, "vote_weights", (1,) * self.n)
        object.__setattr__(self, "echo_need", self.n - self.t - 1)
        object.__setattr__(self, "ready_need", self.t)

    def _count(self, senders: Iterable[int]) -> int:
        return len(set(senders))

    def echo_quorum(self, senders: Iterable[int]) -> bool:
        return self._count(senders) >= self.n - self.t

    def ready_amplify(self, senders: Iterable[int]) -> bool:
        return self._count(senders) >= self.t + 1

    def deliver_quorum(self, senders: Iterable[int]) -> bool:
        return self._count(senders) >= self.n - self.t

    def storage_quorum(self, senders: Iterable[int]) -> bool:
        return self._count(senders) >= 2 * self.t + 1


@dataclass(frozen=True)
class WeightedQuorums(QuorumPolicy):
    """Weighted-voting thresholds with resilience ``f_w`` (default 1/3):
    echo/deliver above ``(1 - f_w) W``, ready amplification above
    ``f_w W``, storage above ``2 f_w W``.

    Everything is integer arithmetic: weights are scaled to a common
    denominator once at construction (``vote_weights``) and each
    ``weight > c * W`` predicate becomes one cross-multiplied integer
    comparison -- exactly equivalent to the Fraction math, with none of
    its per-call allocation.  For a tally ``s`` of scaled weights,
    ``s * q > p * W`` iff ``s > floor(p * W / q)``, which is the ``*_need``
    of the threshold ``c = p / q``.
    """

    weights: tuple[Fraction, ...]
    f_w: Fraction

    def __init__(self, weights: Sequence[Number], f_w: Number = Fraction(1, 3)) -> None:
        object.__setattr__(self, "weights", normalize_weights(weights))
        object.__setattr__(self, "f_w", as_fraction(f_w))
        if not 0 < self.f_w < Fraction(1, 2):
            raise ValueError("f_w must be in (0, 1/2)")
        # Integer fast path: w_i * D with D the common denominator; the
        # predicate `sum > (p/q) * W` becomes `sum_int * q > p * W_int`.
        scale = math.lcm(*(w.denominator for w in self.weights)) if self.weights else 1
        int_weights = tuple(int(w * scale) for w in self.weights)
        total_int = sum(int_weights)
        object.__setattr__(self, "vote_weights", int_weights)
        thresholds = {}
        for name, c in (
            ("echo", 1 - self.f_w),
            ("ready", self.f_w),
            ("storage", 2 * self.f_w),
        ):
            c = as_fraction(c)
            thresholds[name] = (c.denominator, c.numerator * total_int)
        object.__setattr__(self, "_thresholds", thresholds)
        for name in ("echo", "ready"):
            q, bound = thresholds[name]
            object.__setattr__(self, f"{name}_need", bound // q)

    def _over(self, senders: Iterable[int], name: str) -> bool:
        int_weights = self.vote_weights
        q, bound = self._thresholds[name]
        return sum(int_weights[i] for i in set(senders)) * q > bound

    @classmethod
    def for_committee(
        cls, committee, f_w: Number = Fraction(1, 3)
    ) -> "WeightedQuorums":
        """Quorums over a :class:`repro.api.Committee` (duck-typed:
        anything exposing ``weights``) -- the facade's bridge point."""
        return cls(committee.weights, f_w)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, start=Fraction(0))

    def weight(self, senders: Iterable[int]) -> Fraction:
        return sum((self.weights[i] for i in set(senders)), start=Fraction(0))

    def echo_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, "echo")

    def ready_amplify(self, senders: Iterable[int]) -> bool:
        return self._over(senders, "ready")

    def deliver_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, "echo")  # same (1 - f_w) W bound

    def storage_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, "storage")
