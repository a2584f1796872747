"""Asynchronous state-machine replication by composition (Section 6.1).

HoneyBadger-style round structure: in every epoch each party reliably
broadcasts its transaction batch (Bracha RBC, converted to the weighted
model by weighted voting: one
:class:`~repro.protocols.reliable_broadcast.BrachaInstance` per
(epoch, proposer), the same object an RBC party runs once); the epoch's
common coin (weighted via WR(1/3, 1/2), Section 4.1) fixes the ordering.
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

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.process import Party
from ..weighted.quorum import QuorumPolicy
from .reliable_broadcast import BrachaInstance

__all__ = ["BatchSend", "BatchEcho", "BatchReady", "SmrParty", "batch_position"]


@dataclass(frozen=True)
class BatchSend:
    """Epoch-scoped RBC SEND carrying a proposer's batch."""

    epoch: int
    proposer: int
    payload: bytes

    def wire_size(self) -> int:
        return 64 + len(self.payload)


@dataclass(frozen=True)
class BatchEcho:
    """RBC ECHO for one (epoch, proposer) instance."""

    epoch: int
    proposer: int
    payload: bytes

    def wire_size(self) -> int:
        return 64 + len(self.payload)


@dataclass(frozen=True)
class BatchReady:
    """RBC READY for one (epoch, proposer) instance."""

    epoch: int
    proposer: int
    payload: bytes

    def wire_size(self) -> int:
        return 64 + len(self.payload)


def batch_position(proposer: int, coin_value: int, n: int) -> int:
    """Deterministic position of ``proposer``'s batch within its epoch:
    a coin-keyed rotation.  Depends only on common-knowledge inputs, so
    every replica places every batch identically."""
    return (proposer + coin_value) % n


class _Instances(dict):
    """(epoch, proposer) -> its instance, made by the first message that
    names it, with the proposer as origin."""

    def __missing__(self, key: tuple[int, int]) -> BrachaInstance:
        instance = self[key] = BrachaInstance(key[1])
        return instance


class SmrParty(Party):
    """One replica of the composed asynchronous SMR.

    Runs one Bracha instance per (epoch, proposer) pair -- ``instances``,
    multiplexed on the wire by tagging the message types with both ids.
    ``ordered_log(epoch)`` returns the epoch's committed batches in coin
    order.
    """

    #: the wire types of the three phases, SEND / ECHO / READY
    PHASES = (BatchSend, BatchEcho, BatchReady)

    def __init__(
        self,
        pid: int,
        n: int,
        quorums: QuorumPolicy,
        coin_source: Callable[[int], int],
        *,
        on_commit: Optional[Callable[[int, int, int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.n = n
        self.quorums = quorums
        self.coin_source = coin_source
        self.on_commit = on_commit
        #: epoch -> {position -> (proposer, payload)}
        self.committed: dict[int, dict[int, tuple[int, bytes]]] = {}
        #: (epoch, proposer) -> that broadcast's state at this replica
        self.instances = _Instances()
        self.on(BatchSend, self._handle_send)
        self.on(BatchEcho, self._handle_echo)
        self.on(BatchReady, self._handle_ready)

    # -- proposing ---------------------------------------------------------------
    def propose_batch(self, epoch: int, payload: bytes) -> None:
        """Reliably broadcast this replica's batch for ``epoch``."""
        self.broadcast(BatchSend(epoch=epoch, proposer=self.pid, payload=payload))

    # -- per-instance Bracha --------------------------------------------------------
    def _handle_send(self, message: BatchSend, sender: int) -> None:
        if self.instances[message.epoch, message.proposer].on_send(sender):
            self.broadcast(
                BatchEcho(message.epoch, message.proposer, message.payload)
            )

    def _handle_echo(self, message: BatchEcho, sender: int) -> None:
        instance = self.instances[message.epoch, message.proposer]
        if instance.on_echo(self.quorums, message.payload, sender):
            self.broadcast(
                BatchReady(message.epoch, message.proposer, message.payload)
            )

    def _handle_ready(self, message: BatchReady, sender: int) -> None:
        instance = self.instances[message.epoch, message.proposer]
        ready, deliver = instance.on_ready(self.quorums, message.payload, sender)
        if ready:
            self.broadcast(
                BatchReady(message.epoch, message.proposer, message.payload)
            )
        if deliver:
            self._commit(message.epoch, message.proposer, message.payload)

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

    def epoch_closed(self, epoch: int) -> bool:
        """Advisory: batches from a deliver-quorum of proposers committed."""
        proposers = {p for p, _ in self.committed.get(epoch, {}).values()}
        return self.quorums.deliver_quorum(proposers)
