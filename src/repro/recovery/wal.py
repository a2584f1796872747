"""Durable write-ahead log for per-party protocol state.

One record per line, framed as ``crc32(payload):payload`` where the
payload is compact JSON.  The CRC is computed over the exact payload
bytes, so any torn tail -- a partial line from a crash mid-``write``,
a flipped bit from a bad disk -- fails the frame check and replay stops
there.  Everything *before* the first bad frame is intact by
construction (records are appended, never rewritten), which is exactly
the recovery contract a restarted party needs: replay the durable
prefix, refetch the rest from live peers.  A restart then truncates the
file to that prefix (:meth:`WriteAheadLog.truncate_torn_tail`) before it
appends again: the log opens for append, so a record written after a
torn tail would sit behind it, where no replay reaches.

``fsync_every`` batches the expensive ``os.fsync`` across appends;
records between the last fsync and a crash may be lost but never
corrupted into acceptance -- the CRC frame turns them into a clean
truncation instead.

:class:`InMemoryWal` is the zero-disk stand-in used by the sim/inproc
backends when no ``--state-dir`` is given: same interface, same replay
semantics, state survives a simulated restart but not the process.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Iterator, Optional, Union

__all__ = ["WalError", "WriteAheadLog", "InMemoryWal", "open_wal"]


class WalError(RuntimeError):
    """Raised for misuse (appending to a closed log), never for torn
    tails -- those are expected crash artifacts and handled by replay."""


def _frame(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return b"%08x:%s\n" % (zlib.crc32(payload), payload)


def _unframe(line: bytes) -> Optional[dict[str, Any]]:
    """Decode one framed line; ``None`` means torn/corrupt."""
    if not line.endswith(b"\n") or len(line) < 10 or line[8:9] != b":":
        return None
    payload = line[9:-1]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog:
    """Append-only JSONL log with CRC framing and batched fsync."""

    def __init__(self, path: Union[str, Path], *, fsync_every: int = 8) -> None:
        self.path = Path(path)
        self.fsync_every = max(int(fsync_every), 1)
        self.records_written = 0
        self.records_replayed = 0
        #: frames discarded by the last :meth:`replay` (torn tail)
        self.torn_records = 0
        self._unsynced = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")

    # -- write path ---------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            raise WalError(f"write-ahead log {self.path} is closed")
        self._fh.write(_frame(record))
        self.records_written += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        if self._fh is None or self._unsynced == 0:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    # -- read path ----------------------------------------------------------------
    def replay(self) -> Iterator[dict[str, Any]]:
        """Yield every intact record in append order.

        Stops at the first torn or corrupt frame (counted in
        ``torn_records``) -- a crash can only damage the tail, so
        everything after a bad frame is untrusted.
        """
        if self._fh is not None:
            self._fh.flush()
        self.records_replayed = 0
        self.torn_records = 0
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            for line in fh:
                record = _unframe(line)
                if record is None:
                    self.torn_records += 1
                    break
                self.records_replayed += 1
                yield record

    def truncate_torn_tail(self) -> int:
        """Rewrite the file to its intact prefix; returns bytes dropped."""
        good = 0
        with open(self.path, "rb") as fh:
            for line in fh:
                if _unframe(line) is None:
                    break
                good += len(line)
        size = self.path.stat().st_size
        if good < size:
            if self._fh is not None:
                self._fh.flush()
            with open(self.path, "rb+") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())
        return size - good

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class InMemoryWal:
    """List-backed WAL with the same surface; used when no state dir is
    configured.  Survives a *simulated* restart (the object outlives the
    party), not a process crash."""

    def __init__(self) -> None:
        self.path = None
        self.records_written = 0
        self.records_replayed = 0
        self.torn_records = 0
        self._records: list[dict[str, Any]] = []

    def append(self, record: dict[str, Any]) -> None:
        # round-trip through the frame so both WALs accept exactly the
        # same record shapes (JSON-serializable, dict-rooted)
        decoded = _unframe(_frame(record))
        assert decoded is not None
        self._records.append(decoded)
        self.records_written += 1

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def replay(self) -> Iterator[dict[str, Any]]:
        self.records_replayed = len(self._records)
        yield from list(self._records)

    def truncate_torn_tail(self) -> int:
        return 0

    def __enter__(self) -> "InMemoryWal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def open_wal(
    state_dir: Optional[Union[str, Path]], name: str, *, fsync_every: int = 8
) -> Union[WriteAheadLog, InMemoryWal]:
    """Durable WAL under ``state_dir`` when given, in-memory otherwise."""
    if state_dir is None:
        return InMemoryWal()
    return WriteAheadLog(Path(state_dir) / f"{name}.wal", fsync_every=fsync_every)
