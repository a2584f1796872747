"""Verify-in-batches quorum collection, shared by share-combining
protocols (beacon and checkpointing).

Verifying every share on arrival costs one ``verify_dleq`` call (four
full-width exponentiations) per share, per receiving party.  This
collector moves verification to the **quorum decision point**:
shares buffer unverified until a quorum's worth is pending, then one
random-linear-combination aggregate checks them all, with the batch
verifier's bisection isolating any Byzantine shares.

Byzantine-robustness invariants (a regression test covers the first):

* An index is never trusted or *blocked* by index alone.  Share
  messages carry no sender authentication, so a Byzantine party can
  broadcast garbage under an honest signer's index; buffering multiple
  candidate shares per index and remembering rejections by share
  *content* (the share dataclasses are frozen, hence hashable) keeps
  the honest share verifiable whenever it arrives -- before, after, or
  between forgeries.
* Every distinct share is batch-verified at most once (while it stays
  in the bounded dedup window), so an adversary replaying rejected
  shares cannot cheaply re-trigger aggregate work.
* State is **bounded**: when the buffered candidates alone reach a
  batch's worth they are verified immediately even without a quorum in
  sight (flooding buys the attacker amortized batch-verification work,
  the same cost profile as verifying on arrival, instead of unbounded
  memory), and the dedup set is windowed -- overflowing it
  merely lets a replayed share be re-verified once more.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

__all__ = ["BatchedQuorumCollector"]

#: dedup-window size as a multiple of the threshold (plus a floor):
#: overflow only costs re-verification of replays, never correctness
_SEEN_WINDOW_FACTOR = 8
_SEEN_WINDOW_FLOOR = 64


class BatchedQuorumCollector:
    """Collects one message's shares and batch-verifies at the quorum point.

    ``verify_batch`` maps a list of shares to per-share verdicts (e.g.
    :meth:`ThresholdSignatureScheme.verify_shares_batch` bound to the
    message).  ``verified`` maps signer index to the first share of that
    index that survived a batch.
    """

    __slots__ = (
        "threshold",
        "_verify_batch",
        "_pending",
        "_pending_count",
        "_seen",
        "verified",
    )

    def __init__(
        self, threshold: int, verify_batch: Callable[[Sequence], List[bool]]
    ) -> None:
        self.threshold = threshold
        self._verify_batch = verify_batch
        #: signer index -> unverified candidate shares (possibly several
        #: per index: forgeries must not shadow the honest share)
        self._pending: Dict[int, list] = {}
        self._pending_count = 0
        #: recently buffered shares, by content: dedup + no re-verify
        self._seen: set = set()
        self.verified: Dict[int, object] = {}

    def add(self, share) -> "tuple[int, int] | None":
        """Buffer ``share``; batch-verify once a quorum's worth is pending.

        Returns ``(accepted, rejected)`` share counts when a batch ran,
        ``None`` when the share was merely buffered (or was a duplicate).
        """
        index = share.index
        if index in self.verified or share in self._seen:
            return None
        if len(self._seen) >= _SEEN_WINDOW_FACTOR * self.threshold + _SEEN_WINDOW_FLOOR:
            self._seen.clear()
        self._seen.add(share)
        self._pending.setdefault(index, []).append(share)
        self._pending_count += 1
        quorum_possible = len(self.verified) + len(self._pending) >= self.threshold
        # Memory-pressure flush: a flood of forged candidates is drained
        # through batch verification instead of accumulating.
        overfull = self._pending_count >= self.threshold + _SEEN_WINDOW_FLOOR
        if not (quorum_possible or overfull):
            return None
        batch = [s for candidates in self._pending.values() for s in candidates]
        self._pending.clear()
        self._pending_count = 0
        accepted = rejected = 0
        for candidate, ok in zip(batch, self._verify_batch(batch)):
            if ok:
                if candidate.index not in self.verified:
                    self.verified[candidate.index] = candidate
                    accepted += 1
            else:
                rejected += 1
        return accepted, rejected

    @property
    def has_quorum(self) -> bool:
        """Do the verified shares reach the threshold?"""
        return len(self.verified) >= self.threshold

    def quorum_shares(self) -> list:
        """The verified shares (call when :attr:`has_quorum`)."""
        return list(self.verified.values())
