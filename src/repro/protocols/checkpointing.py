"""Proof-of-stake checkpointing with blunt and tight threshold signatures
(paper, Sections 4.3 and 6.3).

Every ``interval`` blocks the validator set co-signs a checkpoint hash.
Two flavors:

* **blunt** -- parties holding tickets sign immediately with their
  virtual signers; a checkpoint certificate forms when ``ceil(alpha_n T)``
  shares combine.  Safety/liveness follow from the blunt access
  structure (Theorem 4.2).
* **tight** -- one extra vote round (paper, Section 4.3): an honest
  party first broadcasts a weightless vote and reveals its shares only
  once votes of weight above ``beta W`` arrived, upgrading the access
  structure to the weighted threshold ``A_w(beta)`` at the cost of
  exactly one message delay per checkpoint (the paper's claim, measured
  by the benchmark).  A checkpoint's votes are one
  :class:`~repro.weighted.quorum.Tally`, the gate's threshold
  ``WeightedQuorums(weights).need(beta)``.

The randomness beacon is this protocol too: a
:class:`~repro.protocols.common_coin.BeaconParty` is a blunt party whose
checkpoints are epoch messages; it overrides the
:meth:`CheckpointParty._admits` predicate to refuse any other.

Certificate assembly is a hot path when checkpoints are frequent: the
share combine interpolates at zero over the quorum's share indices,
which stabilize after the first certificate -- the Lagrange coefficients
are LRU-cached by index set
(:func:`~repro.crypto.polynomial.lagrange_coefficients_at`), so every
subsequent checkpoint pays only the exponentiations -- and those run as
one Straus multi-exponentiation.  Share verification is batched at the
quorum decision point: shares buffer unverified until ``k`` are pending,
then one random-linear-combination aggregate
(:meth:`~repro.crypto.threshold_sig.ThresholdSignatureScheme.verify_shares_batch`)
checks them all, with bisection isolating Byzantine shares.  A frame's
field types, down to the share's DLEQ proof, are checked at the door
(``Party.receive``), before it makes a gate or a collector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..crypto.common_coin import WeightedCoin
from ..crypto.threshold_sig import SignatureShare
from ..sim.process import Party
from ..weighted.quorum import Tally, WeightedQuorums
from .batching import BatchedQuorumCollector

__all__ = ["CheckpointVote", "CheckpointShare", "CheckpointParty"]


@dataclass(frozen=True)
class CheckpointVote:
    """Tight mode's weightless pre-vote for signing a checkpoint."""

    checkpoint: bytes


@dataclass(frozen=True)
class CheckpointShare:
    """One virtual signer's share over the checkpoint hash."""

    checkpoint: bytes
    share: SignatureShare


class CheckpointParty(Party):
    """A validator in the checkpointing protocol.

    It holds its key -- ``setup.key(pid)``, the secret shares of its own
    tickets -- next to ``setup``'s public scheme and ticket layout, and
    nothing else of the dealing.  ``mode`` is ``"blunt"`` or ``"tight"``;
    tight mode gates each checkpoint's shares on a vote round, whose
    ``beta`` must lie in ``(0, 1)``.
    """

    def __init__(
        self,
        pid: int,
        setup: WeightedCoin,
        rng: random.Random,
        *,
        mode: str = "blunt",
        weights=None,
        beta=None,
        on_certified: Optional[Callable[[int, bytes, int], None]] = None,
    ) -> None:
        super().__init__(pid)
        if mode not in ("blunt", "tight"):
            raise ValueError("mode must be 'blunt' or 'tight'")
        if mode == "tight" and (weights is None or beta is None):
            raise ValueError("tight mode needs weights and beta")
        self.scheme = setup.coin.scheme
        self.vmap = setup.vmap
        self.key = setup.key(pid)
        self.rng = rng
        self.mode = mode
        self.weights = weights
        self.beta = beta
        self.on_certified = on_certified
        self.certificates: dict[bytes, int] = {}
        #: per-checkpoint verify-in-batches quorum state
        self._collectors: dict[bytes, BatchedQuorumCollector] = {}
        #: tight mode: checkpoint -> its votes (the gate), opening above
        #: ``_gate_need`` over ``_vote_weights``
        self._gates: dict[bytes, Tally] = {}
        self._shared: set[bytes] = set()
        # A blunt party has no vote round: a stray vote is an unhandled
        # type, which ``Party.receive`` drops.
        if mode == "tight":
            quorums = WeightedQuorums(weights)
            self._vote_weights = quorums.vote_weights
            self._gate_need = quorums.need(beta)
            self.on(CheckpointVote, self._handle_vote)
        self.on(CheckpointShare, self._handle_share)

    # -- initiation -----------------------------------------------------------
    def sign_checkpoint(self, checkpoint: bytes) -> None:
        """Participate in certifying ``checkpoint``."""
        if self.mode == "blunt":
            self._reveal_shares(checkpoint)
        else:
            self.broadcast(CheckpointVote(checkpoint))

    def _reveal_shares(self, checkpoint: bytes) -> None:
        if checkpoint in self._shared:
            return
        self._shared.add(checkpoint)
        for secret in self.key:
            share = self.scheme.sign_share(secret, checkpoint, self.rng)
            self.bump("shares_signed")
            self.broadcast(CheckpointShare(checkpoint=checkpoint, share=share))

    # -- tight-mode vote round ---------------------------------------------------
    def _handle_vote(self, message: CheckpointVote, sender: int) -> None:
        """Count a sender's first vote on a checkpoint; the gate opens --
        the party reveals its shares -- once the votes weigh more than
        ``beta W``."""
        checkpoint = message.checkpoint
        gate = self._gates.get(checkpoint)
        if gate is None:
            gate = self._gates[checkpoint] = Tally()
        if gate.add(sender, checkpoint, self._vote_weights) > self._gate_need:
            self._reveal_shares(checkpoint)

    # -- share collection ----------------------------------------------------------
    def _admits(self, checkpoint: bytes) -> bool:
        """Whether to collect shares on ``checkpoint``: any bytes here."""
        return True

    def _handle_share(self, message: CheckpointShare, sender: int) -> None:
        """Buffer the share; verify in batches at the quorum point.

        A share on a checkpoint :meth:`_admits` refuses is dropped before
        it makes a collector.
        """
        checkpoint = message.checkpoint
        if checkpoint in self.certificates or not self._admits(checkpoint):
            return
        collector = self._collectors.get(checkpoint)
        if collector is None:
            collector = self._collectors[checkpoint] = BatchedQuorumCollector(
                self.scheme.k,
                lambda batch, cp=checkpoint: self.scheme.verify_shares_batch(batch, cp),
            )
        outcome = collector.add(message.share)
        if outcome is None:
            return
        accepted, rejected = outcome
        if accepted:
            self.bump("shares_verified", accepted)
        if rejected:
            self.bump("invalid_shares", rejected)
        if collector.has_quorum:
            signature = self.scheme.combine(
                collector.quorum_shares(), checkpoint, verify=False
            )
            self.certificates[checkpoint] = signature
            del self._collectors[checkpoint]
            self.bump("certificates")
            if self.on_certified is not None:
                self.on_certified(self.pid, checkpoint, signature)
