"""Crash-recoverable SMR replica: WAL-backed commits and state sync.

The composed SMR protocol's party half of crash recovery:

* every commit is appended to a :class:`~repro.recovery.wal.WriteAheadLog`
  *before* it is applied (write-ahead), so a SIGKILL between fsync and
  apply loses at most the in-memory suffix, never corrupts the log;
* on :meth:`restart` the replica wipes its volatile Bracha state (the
  one ``instances`` container), replays the WAL's intact prefix, then
  broadcasts a :class:`StateSyncRequest`; live peers answer with their
  committed entries and keep *pushing* each later commit to the
  requester, so instances whose ECHO/READY traffic predates the crash
  still reach the recovered replica;
* a synced entry is applied only once a **deliver quorum by weight** of
  distinct responders vouches for it -- the same amplification rule
  Bracha uses for READY, so up to ``f_w`` Byzantine responders cannot
  forge an entry into the recovered log.  An entry that is not an
  ``(epoch, proposer, payload)`` triple of the right types is dropped.

Duplicate redelivery after recovery is harmless by construction: a
:class:`~repro.protocols.reliable_broadcast.BrachaInstance` keeps its
voters in sets and says each thing once, so replays are absorbed
idempotently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..protocols.smr import SmrParty, batch_position
from ..weighted.quorum import QuorumPolicy
from .wal import InMemoryWal, WriteAheadLog

__all__ = ["StateSyncRequest", "StateSyncResponse", "RecoverableSmrParty"]


@dataclass(frozen=True)
class StateSyncRequest:
    """Broadcast by a restarted replica: send me your committed state."""

    requester: int

    def wire_size(self) -> int:
        return 16


@dataclass(frozen=True)
class StateSyncResponse:
    """One peer's committed entries, ``((epoch, proposer, payload), ...)``.

    Sent once as a snapshot when the request arrives and then
    incrementally (one entry at a time) for every later commit, so a
    recovering replica converges even on instances that were still in
    flight when it crashed.
    """

    responder: int
    entries: tuple = ()

    def wire_size(self) -> int:
        return 64 + sum(24 + len(p) for _, _, p in self.entries)


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
        #: (epoch, proposer, payload) -> responders vouching for it
        self._sync_confirmers: dict[tuple[int, int, bytes], set[int]] = {}
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
        self._sync_confirmers.clear()
        self.watermarks.clear()
        self.recovered_from_wal = self.replay_wal()
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
        if sender != message.responder or not isinstance(message.entries, tuple):
            return
        for entry in message.entries:
            if not self._well_formed(entry):
                continue
            epoch, proposer, payload = entry
            position = batch_position(proposer, self.coin_source(epoch), self.n)
            if position in self.committed.get(epoch, {}):
                continue
            confirmers = self._sync_confirmers.setdefault(entry, set())
            confirmers.add(sender)
            if self.quorums.deliver_quorum(confirmers):
                del self._sync_confirmers[entry]
                self._committed_via_sync(epoch, proposer, payload)

    def _well_formed(self, entry) -> bool:
        """An ``(epoch, proposer, payload)`` triple a peer could have sent."""
        if not (isinstance(entry, tuple) and len(entry) == 3):
            return False
        epoch, proposer, payload = entry
        return (
            type(epoch) is int
            and epoch >= 0
            and type(proposer) is int
            and 0 <= proposer < self.n
            and type(payload) is bytes
        )

    def _committed_via_sync(self, epoch: int, proposer: int, payload: bytes) -> None:
        position = batch_position(proposer, self.coin_source(epoch), self.n)
        if position in self.committed.get(epoch, {}):
            return
        self.recovered_from_peers += 1
        # durable like any other commit: a second crash must not redo the sync
        self._commit(epoch, proposer, payload)
