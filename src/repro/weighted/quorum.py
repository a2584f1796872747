"""Quorum policies and the one vote tally (Section 1.2).

Many protocols only need "wait until enough confirmations"; the weighted
translation replaces a count threshold with a weight-fraction threshold.
Protocols in :mod:`repro.protocols` are parameterized by a
:class:`QuorumPolicy` so the same code runs nominally or weighted -- the
paper's observation that weighted voting alone converts the quorum-based
parts of a protocol with no resilience loss.

Every quorum in the protocols is one rule.  A phase's votes are one
:class:`Tally`: each sender's first choice counts, a later vote of the
same sender is dropped before any arithmetic, and each choice carries
one integer weight over the policy's ``vote_weights``.  A choice has a
quorum when its weight is ``> need``, for one of the policy's integer
thresholds (``echo_need``, ``ready_need``, ``storage_need``) or, for
any other fraction ``c`` of the total weight, ``WeightedQuorums.need(c)``.
The set predicates (``echo_quorum`` and friends) judge a sender set from
scratch, by their own rules: nominal counts (``>= n - t``, ``>= t + 1``,
``>= 2t + 1``) and weighted cross-multiplied comparisons (``s * q > p *
W`` for ``c = p / q``), never through the ``*_need`` integers.  No
protocol asks them; they stay as the tallies' independent oracle in
``tests/weighted/`` and as the ledger's wrapped ``weighted.quorum``
cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ..core.types import Number, as_fraction, normalize_weights

__all__ = ["QuorumPolicy", "NominalQuorums", "WeightedQuorums", "Tally"]


class Tally:
    """The votes of one phase: ``sender -> choice`` and one integer weight
    per choice.

    A sender's first vote counts; any later one -- for the same choice or
    another -- is dropped before any arithmetic, so a phase holds at most
    ``n`` senders and ``n`` choices however many frames arrive.
    """

    __slots__ = ("votes", "totals")

    def __init__(self) -> None:
        #: sender -> the choice its first vote named
        self.votes: dict[int, object] = {}
        #: choice -> the summed vote weight of the senders that chose it
        self.totals: dict[object, int] = {}

    def add(self, sender: int, choice, vote_weights: Sequence[int]) -> int:
        """Count ``sender``'s vote for ``choice``: the weight behind
        ``choice`` after it, or 0 when ``sender`` has voted before.  A
        quorum is ``weight > need``, and every need is ``>= 0``, so a
        dropped vote never makes one."""
        votes = self.votes
        if sender in votes:
            return 0
        totals = self.totals
        weight = totals[choice] = totals.get(choice, 0) + vote_weights[sender]
        votes[sender] = choice
        return weight


class QuorumPolicy:
    """Threshold rules a Bracha-style broadcast needs, as integers.

    Party ``i``'s vote adds ``vote_weights[i]`` to a :class:`Tally`, and a
    tally's weight is an ECHO quorum -- and, of READYs, a deliver quorum --
    iff it is ``> echo_need``, amplifies a READY iff it is ``>
    ready_need``, and stores an AVID dispersal iff it is ``> storage_need``.

    The set predicates say the same of a set of senders from scratch:
    ``echo_quorum`` (enough ECHOs to become ready; intersects any other
    echo quorum in an honest party), ``ready_amplify`` (enough READYs to
    echo the readiness even without an echo quorum), ``deliver_quorum``
    (enough READYs to deliver) and ``storage_quorum`` (enough
    stored-fragment acks for dispersal completeness).
    """

    #: integer weight of each party's vote, indexed by pid
    vote_weights: tuple[int, ...]
    #: ECHO-quorum and delivery threshold of a tally (``tally > need``)
    echo_need: int
    #: READY-amplification threshold of a tally (``tally > need``)
    ready_need: int
    #: AVID storage threshold of a tally (``tally > need``)
    storage_need: int

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
        object.__setattr__(self, "storage_need", 2 * self.t)

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
    denominator once at construction (``vote_weights``), and each
    threshold "weight above ``c W``" is one integer, :meth:`need`.
    """

    weights: tuple[Fraction, ...]
    f_w: Fraction

    def __init__(self, weights: Sequence[Number], f_w: Number = Fraction(1, 3)) -> None:
        object.__setattr__(self, "weights", normalize_weights(weights))
        object.__setattr__(self, "f_w", as_fraction(f_w))
        if not 0 < self.f_w < Fraction(1, 2):
            raise ValueError("f_w must be in (0, 1/2)")
        scale = math.lcm(*(w.denominator for w in self.weights)) if self.weights else 1
        object.__setattr__(self, "vote_weights", tuple(int(w * scale) for w in self.weights))
        object.__setattr__(self, "echo_need", self.need(1 - self.f_w))
        object.__setattr__(self, "ready_need", self.need(self.f_w))
        object.__setattr__(self, "storage_need", self.need(2 * self.f_w))

    def need(self, c: Number) -> int:
        """The integer threshold of "weight above ``c W``", ``0 < c < 1``:
        for a tally ``s`` of scaled weights and ``c = p / q``, ``s * q >
        p * W`` iff ``s > floor(p * W / q)``."""
        c = as_fraction(c)
        if not 0 < c < 1:
            raise ValueError("a quorum fraction must be in (0, 1)")
        return c.numerator * sum(self.vote_weights) // c.denominator

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

    def _over(self, senders: Iterable[int], c: Fraction) -> bool:
        # The oracle form: "weight above c W" cross-multiplied on the
        # scaled weights, ``s * q > p * W``, never through ``need``.
        weights = self.vote_weights
        mine = sum(weights[i] for i in set(senders))
        return mine * c.denominator > c.numerator * sum(weights)

    def echo_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, 1 - self.f_w)

    def ready_amplify(self, senders: Iterable[int]) -> bool:
        return self._over(senders, self.f_w)

    def deliver_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, 1 - self.f_w)  # same (1 - f_w) W bound

    def storage_quorum(self, senders: Iterable[int]) -> bool:
        return self._over(senders, 2 * self.f_w)
