"""Crash-recoverable SMR replica: WAL-backed commits and state sync.

The composed SMR protocol's party half of crash recovery:

* every commit is appended to a :class:`~repro.recovery.wal.WriteAheadLog`
  *before* it is applied (write-ahead), so a SIGKILL between fsync and
  apply loses at most the in-memory suffix, never corrupts the log;
* on :meth:`restart` the replica wipes its volatile Bracha state (the
  one ``instances`` container), replays the WAL's intact prefix and
  truncates the log to it, then broadcasts a :class:`StateSyncRequest`;
  live peers answer with their committed entries and keep *pushing*
  each later commit to the requester, so instances whose ECHO/READY
  traffic predates the crash still reach the recovered replica;
* a synced entry is applied only once a **deliver quorum by weight** of
  distinct responders vouches for it -- the same rule Bracha uses to
  deliver on READYs, so up to ``f_w`` Byzantine responders cannot forge
  an entry into the recovered log.  Each ``(epoch, proposer)`` slot's
  vouches are one :class:`~repro.weighted.quorum.Tally`: a responder's
  first payload for the slot counts and a later one is dropped.  Entry
  types are checked at the door (``Party.receive``); an entry whose key
  names no broadcast is skipped.

Duplicate redelivery after recovery is harmless by construction: a
:class:`~repro.protocols.reliable_broadcast.BrachaInstance` counts each
sender's first vote per phase and says each thing once, so replays are
absorbed idempotently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..protocols.reliable_broadcast import well_formed
from ..protocols.smr import SmrParty, batch_position
from ..weighted.quorum import QuorumPolicy, Tally
from .wal import InMemoryWal, WriteAheadLog

__all__ = ["StateSyncRequest", "StateSyncResponse", "RecoverableSmrParty"]


@dataclass(frozen=True)
class StateSyncRequest:
    """Broadcast by a restarted replica: send me your committed state."""

    requester: int


@dataclass(frozen=True)
class StateSyncResponse:
    """One peer's committed entries, ``((epoch, proposer, payload), ...)``.

    Sent once as a snapshot when the request arrives and then
    incrementally (one entry at a time) for every later commit, so a
    recovering replica converges even on instances that were still in
    flight when it crashed.
    """

    responder: int
    entries: tuple[tuple[int, int, bytes], ...] = ()


class RecoverableSmrParty(SmrParty):
    """:class:`SmrParty` with durable commits and restart/rejoin."""

    def __init__(
        self,
        pid: int,
        n: int,
        quorums: QuorumPolicy,
        coin_source: Callable[[int], int],
        *,
        wal=None,
        on_commit: Optional[Callable[[int, int, int, bytes], None]] = None,
    ) -> None:
        super().__init__(pid, n, quorums, coin_source, on_commit=on_commit)
        self.wal = wal if wal is not None else InMemoryWal()
        #: per-source receive watermarks persisted for the transport layer
        self.watermarks: dict[int, int] = {}
        self.restarts = 0
        self.recovered_from_wal = 0
        self.recovered_from_peers = 0
        #: peers currently rejoining; every commit is pushed to them
        self._sync_subscribers: set[int] = set()
        #: (epoch, proposer) -> the responders' vouches for its payload
        self._sync_votes: dict[tuple[int, int], Tally] = {}
        self.on(StateSyncRequest, self._handle_sync_request)
        self.on(StateSyncResponse, self._handle_sync_response)

    # -- durable commit path ------------------------------------------------------
    def _commit(self, epoch: int, proposer: int, payload: bytes) -> None:
        position = batch_position(proposer, self.coin_source(epoch), self.n)
        if position in self.committed.get(epoch, {}):
            return
        # write-ahead: the record is durable (or at least framed) before
        # the in-memory state and the on_commit callback observe it
        self.wal.append(
            {
                "kind": "commit",
                "epoch": epoch,
                "proposer": proposer,
                "payload": payload.hex(),
            }
        )
        self._apply_commit(epoch, proposer, payload)

    def _apply_commit(self, epoch: int, proposer: int, payload: bytes) -> None:
        epoch_map = self.committed.setdefault(epoch, {})
        position = batch_position(proposer, self.coin_source(epoch), self.n)
        if position in epoch_map:
            return
        epoch_map[position] = (proposer, payload)
        self.bump("batches_committed")
        if self.on_commit is not None:
            self.on_commit(self.pid, epoch, position, payload)
        if self._sync_subscribers:
            push = StateSyncResponse(
                responder=self.pid, entries=((epoch, proposer, payload),)
            )
            for peer in sorted(self._sync_subscribers):
                self.send(peer, push)

    def note_watermark(self, src: int, seq: int) -> None:
        """Persist the transport's per-source receive watermark."""
        if self.watermarks.get(src, -1) >= seq:
            return
        self.watermarks[src] = seq
        self.wal.append({"kind": "watermark", "src": src, "seq": seq})

    # -- restart / rejoin ---------------------------------------------------------
    def restart(self) -> None:
        """Rejoin after a crash: replay the WAL, then sync from peers."""
        super().restart()
        self.restarts += 1
        self.committed.clear()
        self.instances.clear()
        self._sync_votes.clear()
        self.watermarks.clear()
        self.recovered_from_wal = self.replay_wal()
        # drop a torn tail, or every later append would sit behind it
        self.wal.truncate_torn_tail()
        self.broadcast(StateSyncRequest(requester=self.pid))

    def replay_wal(self) -> int:
        """Apply the WAL's intact prefix; returns commits recovered."""
        recovered = 0
        for record in self.wal.replay():
            kind = record.get("kind")
            if kind == "commit":
                before = len(self.committed.get(record["epoch"], {}))
                self._apply_commit(
                    record["epoch"],
                    record["proposer"],
                    bytes.fromhex(record["payload"]),
                )
                recovered += int(
                    len(self.committed.get(record["epoch"], {})) > before
                )
            elif kind == "watermark":
                src, seq = record["src"], record["seq"]
                if self.watermarks.get(src, -1) < seq:
                    self.watermarks[src] = seq
        return recovered

    # -- sync protocol ------------------------------------------------------------
    def _snapshot_entries(self) -> tuple:
        entries = []
        for epoch in sorted(self.committed):
            for position in sorted(self.committed[epoch]):
                proposer, payload = self.committed[epoch][position]
                entries.append((epoch, proposer, payload))
        return tuple(entries)

    def _handle_sync_request(self, message: StateSyncRequest, sender: int) -> None:
        if sender == self.pid or sender != message.requester:
            return
        self._sync_subscribers.add(sender)
        self.send(
            sender,
            StateSyncResponse(responder=self.pid, entries=self._snapshot_entries()),
        )

    def _handle_sync_response(self, message: StateSyncResponse, sender: int) -> None:
        if sender != message.responder:
            return
        for epoch, proposer, payload in message.entries:
            if not well_formed(epoch, proposer, self.n):
                continue
            position = batch_position(proposer, self.coin_source(epoch), self.n)
            if position in self.committed.get(epoch, {}):
                continue
            slot = (epoch, proposer)
            votes = self._sync_votes.get(slot)
            if votes is None:
                votes = self._sync_votes[slot] = Tally()
            quorums = self.quorums
            if votes.add(sender, payload, quorums.vote_weights) > quorums.echo_need:
                del self._sync_votes[slot]
                self._committed_via_sync(epoch, proposer, payload)

    def _committed_via_sync(self, epoch: int, proposer: int, payload: bytes) -> None:
        position = batch_position(proposer, self.coin_source(epoch), self.n)
        if position in self.committed.get(epoch, {}):
            return
        self.recovered_from_peers += 1
        # durable like any other commit: a second crash must not redo the sync
        self._commit(epoch, proposer, payload)
