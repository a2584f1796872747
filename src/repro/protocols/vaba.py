"""Validated (asynchronous) Byzantine agreement and its black-box
weighted transformation (paper, Definition 4.3 and Section 4.4).

The nominal protocol here is a deliberately compact round-based VABA in
the style of [Cachin et al. 2001]: parties broadcast signed proposals,
a common coin retro-actively elects a round leader, parties vote for the
leader's (externally valid) proposal, and a vote quorum decides.  The
asynchronous adversary controls message timing through the simulator's
delay model; the coin's unpredictability makes the leader un-biasable, so
the protocol terminates in expected O(1) rounds.

The black-box weighted version (:func:`black_box_parties`) runs the
*same* nominal logic among the ``T`` virtual users of a ``WR(f_n - eps,
f_n)`` solution (:func:`~repro.weighted.transform.black_box_setup`);
:meth:`~repro.weighted.transform.BlackBoxSetup.real_outputs` maps their
decisions back to real parties, zero-ticket ones included, by the
Section 4.4 output rule.  Field types are checked at the door
(``Party.receive``); the handlers check a round's range and a value's
validity.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.process import Party
from ..weighted.quorum import NominalQuorums, Tally
from ..weighted.transform import BlackBoxSetup

__all__ = ["Proposal", "Vote", "Decide", "VabaParty", "black_box_parties"]


@dataclass(frozen=True)
class Proposal:
    """A party's proposal for a round."""

    round: int
    value: bytes


@dataclass(frozen=True)
class Vote:
    """A vote for the elected leader's value in a round."""

    round: int
    value: bytes


@dataclass(frozen=True)
class Commit:
    """Once-per-party commitment to a value.

    The commit layer is what makes agreement round-independent: an honest
    party commits at most one value in its lifetime, so two commit
    quorums of size ``n - t`` for different values would have to share
    ``n - 2t >= t + 1`` honest double-committers -- impossible.
    """

    value: bytes


@dataclass(frozen=True)
class Decide:
    """Decision announcement (forwarded for totality)."""

    value: bytes


def _coin_value(seed: int, rnd: int, n: int) -> int:
    """Deterministic unpredictable-enough round coin for the simulation.

    Stands in for a threshold-signature coin (implemented for real in
    :mod:`repro.protocols.common_coin`); hashing the (seed, round) pair
    keeps every party in agreement while being uncorrelated with
    proposals made before the round closes.
    """
    digest = hashlib.sha256(f"vaba-coin|{seed}|{rnd}".encode()).digest()
    return int.from_bytes(digest, "big") % n


class VabaParty(Party):
    """Nominal VABA participant (n parties, < n/3 Byzantine).

    ``validity_predicate`` implements external validity; invalid values
    are never proposed, voted for, or decided by honest parties.  A frame
    whose round is negative is dropped before the predicate sees it.

    Each round's votes, the commits and the decides are one
    :class:`~repro.weighted.quorum.Tally` each over ``NominalQuorums(n,
    t)``: a sender's first value counts, and a value is backed by a
    quorum above ``echo_need`` (``n - t`` votes) and by an honest party
    above ``ready_need`` (``t + 1``).

    ``coin`` optionally replaces the hash stand-in with a real round
    coin, any ``coin(round) -> int``: it is only demanded at the quorum
    decision point (``n - t`` proposals in), which is where a threshold-
    signature coin batch-verifies its shares -- verify-in-batches rather
    than verify-on-arrival.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        *,
        coin_seed: int = 0,
        coin: Optional[Callable[[int], int]] = None,
        validity_predicate: Optional[Callable[[bytes], bool]] = None,
        on_decide: Optional[Callable[[int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.n = n
        self.t = t
        self.coin_seed = coin_seed
        self.coin = coin
        self.validity = validity_predicate or (lambda value: True)
        self.on_decide = on_decide
        self.decided: Optional[bytes] = None
        self.input_value: Optional[bytes] = None
        self.round = 0
        self.max_rounds = 64  # safety valve for simulation runs
        self._proposals: dict[int, dict[int, bytes]] = {}
        self._voted_rounds: set[int] = set()
        self._advanced_rounds: set[int] = set()
        self.quorums = NominalQuorums(n, t)
        #: round -> that round's votes
        self._votes: dict[int, Tally] = {}
        self.committed: Optional[bytes] = None
        self._commits = Tally()
        self._decides = Tally()
        self.on(Proposal, self._handle_proposal)
        self.on(Vote, self._handle_vote)
        self.on(Commit, self._handle_commit)
        self.on(Decide, self._handle_decide)

    # -- protocol ----------------------------------------------------------------
    def propose(self, value: bytes) -> None:
        """Start the protocol with an externally valid input."""
        if type(value) is not bytes:
            raise TypeError("a VABA input is bytes")
        if not self.validity(value):
            raise ValueError("input does not satisfy the validity predicate")
        self.input_value = value
        self._start_round(0)

    def _start_round(self, rnd: int) -> None:
        if self.decided is not None or rnd > self.max_rounds:
            return
        self.round = max(self.round, rnd)
        assert self.input_value is not None
        self.broadcast(Proposal(round=rnd, value=self.input_value))

    def _handle_proposal(self, message: Proposal, sender: int) -> None:
        if self.decided is not None or message.round < 0:
            return
        if not self.validity(message.value):
            return
        bucket = self._proposals.setdefault(message.round, {})
        bucket.setdefault(sender, message.value)
        self._try_progress(message.round)

    def _try_progress(self, rnd: int) -> None:
        """Re-evaluated on every proposal arrival for round ``rnd``.

        Once ``n - t`` proposals are in, the round's coin elects a leader
        retroactively.  A party votes as soon as it holds the leader's
        proposal, and (independently) advances to the next round so that
        rounds keep progressing even when the leader stays silent.
        Agreement argument: within a round all honest votes carry the
        leader's value as each honest party saw it, and two values can
        only both reach ``n - t`` votes if ``n <= 3t`` -- excluded.
        Across rounds, a decision quorum retires at least ``t + 1``
        honest parties, leaving fewer than ``n - t`` possible voters.
        """
        bucket = self._proposals.get(rnd, {})
        if len(bucket) < self.n - self.t:
            return
        if self.coin is not None:
            leader = self.coin(rnd) % self.n
        else:
            leader = _coin_value(self.coin_seed, rnd, self.n)
        if rnd not in self._voted_rounds and leader in bucket:
            self._voted_rounds.add(rnd)
            self.bump("coin_flips")
            self.broadcast(Vote(round=rnd, value=bucket[leader]))
        if rnd not in self._advanced_rounds:
            self._advanced_rounds.add(rnd)
            # Adopt the leader's value when known to converge inputs.
            self.input_value = bucket.get(leader, next(iter(bucket.values())))
            self._start_round(rnd + 1)

    def _handle_vote(self, message: Vote, sender: int) -> None:
        rnd, value = message.round, message.value
        if self.decided is not None or rnd < 0 or not self.validity(value):
            return
        votes = self._votes.get(rnd)
        if votes is None:
            votes = self._votes[rnd] = Tally()
        quorums = self.quorums
        if votes.add(sender, value, quorums.vote_weights) > quorums.echo_need:
            self._commit(value)

    def _commit(self, value: bytes) -> None:
        """Commit once, forever: the safety anchor (see :class:`Commit`)."""
        if self.committed is not None:
            return
        self.committed = value
        self.input_value = value  # future proposals carry the commitment
        self.broadcast(Commit(value=value))

    def _handle_commit(self, message: Commit, sender: int) -> None:
        value = message.value
        if not self.validity(value):
            return
        quorums = self.quorums
        weight = self._commits.add(sender, value, quorums.vote_weights)
        # Amplify: t+1 commits contain an honest one, safe to join.
        if weight > quorums.ready_need:
            self._commit(value)
        if weight > quorums.echo_need:
            self._decide(value)

    def _decide(self, value: bytes) -> None:
        if self.decided is not None:
            return
        self.decided = value
        self.bump("decisions")
        self.broadcast(Decide(value=value))
        if self.on_decide is not None:
            self.on_decide(self.pid, value)

    def _handle_decide(self, message: Decide, sender: int) -> None:
        value = message.value
        if not self.validity(value):
            return
        quorums = self.quorums
        if self._decides.add(sender, value, quorums.vote_weights) > quorums.ready_need:
            self._decide(value)


def black_box_parties(setup: BlackBoxSetup, **kwargs) -> list[VabaParty]:
    """Section 4.4's nominal protocol: one :class:`VabaParty` per virtual
    user of ``setup`` (pids are virtual ids), with the nominal fault
    budget; ``kwargs`` go to every party.  Real party ``i`` drives
    ``setup.vmap.virtual_ids(i)`` with its input."""
    n, t = setup.total_virtual, setup.nominal_fault_budget()
    return [VabaParty(vid, n, t, **kwargs) for vid in range(n)]
