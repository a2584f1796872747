"""Asynchronous state-machine replication by composition (Section 6.1).

HoneyBadger-style round structure: in every epoch each party reliably
broadcasts its transaction batch (Bracha RBC, converted to the weighted
model by weighted voting: a replica is a
:class:`~repro.protocols.reliable_broadcast.BrachaHost` with one instance
per (epoch, proposer), speaking the ``BrachaSend`` / ``BrachaEcho`` /
``BrachaReady`` frames an RBC party speaks for its one instance); the
epoch's common coin (weighted via WR(1/3, 1/2), Section 4.1) fixes the
ordering.
The paper's point is compositional: the broadcast layer keeps resilience
``f_w = 1/3`` through weighted voting/WQ, the randomness layer uses a
nominal ``alpha_n = 1/2`` threshold scheme behind WR, and the composed
protocol keeps resilience 1/3 -- "levelling the resilience of different
parts without affecting the resilience of the composition".

Ordering rule: a committed batch's position within its epoch is a pure
function of ``(proposer, coin, n)`` -- independent of which other batches
a replica happens to have delivered so far.  RBC agreement + totality
then give every honest replica the *same* eventual log without an extra
agreement-on-a-set (ACS) phase; replicas differ only in how much of the
log they have seen yet.  (Production HoneyBadger-style systems add ACS to
close epochs at a common cut; our epoch-closed flag is advisory.)
"""

from __future__ import annotations

from typing import Callable, Optional

from ..weighted.quorum import QuorumPolicy
from .reliable_broadcast import BrachaHost, BrachaSend, well_formed

__all__ = ["SmrParty", "batch_position"]


def batch_position(proposer: int, coin_value: int, n: int) -> int:
    """Deterministic position of ``proposer``'s batch within its epoch:
    a coin-keyed rotation.  Depends only on common-knowledge inputs, so
    every replica places every batch identically."""
    return (proposer + coin_value) % n


class SmrParty(BrachaHost):
    """One replica of the composed asynchronous SMR.

    Runs one Bracha instance per (epoch, proposer) pair -- the host's
    ``instances``; any key :func:`well_formed` accepts opens one.
    ``ordered_log(epoch)`` returns the epoch's committed batches in coin
    order.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        quorums: QuorumPolicy,
        coin_source: Callable[[int], int],
        *,
        on_commit: Optional[Callable[[int, int, int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid, quorums)
        self.n = n
        self.coin_source = coin_source
        self.on_commit = on_commit
        #: epoch -> {position -> (proposer, payload)}
        self.committed: dict[int, dict[int, tuple[int, bytes]]] = {}

    # -- proposing ---------------------------------------------------------------
    def propose_batch(self, epoch: int, payload: bytes) -> None:
        """Reliably broadcast this replica's batch for ``epoch``."""
        self.broadcast(BrachaSend(epoch, self.pid, payload))

    def _admits(self, epoch: int, origin: int) -> bool:
        return well_formed(epoch, origin, self.n)

    # -- commitment --------------------------------------------------------------
    def _commit(self, epoch: int, proposer: int, payload: bytes) -> None:
        epoch_map = self.committed.setdefault(epoch, {})
        coin = self.coin_source(epoch)
        position = batch_position(proposer, coin, self.n)
        if position in epoch_map:
            return
        epoch_map[position] = (proposer, payload)
        self.bump("batches_committed")
        if self.on_commit is not None:
            self.on_commit(self.pid, epoch, position, payload)

    def ordered_log(self, epoch: int) -> list[tuple[int, bytes]]:
        """The epoch's committed batches in deterministic coin order."""
        epoch_map = self.committed.get(epoch, {})
        return [epoch_map[pos] for pos in sorted(epoch_map)]
