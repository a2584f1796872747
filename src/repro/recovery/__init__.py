"""Crash-recovery layer: durable party state and restart/rejoin.

The missing half of fault tolerance.  :mod:`repro.runtime.faults` can
crash, partition, and delay; this package brings parties *back*: a
CRC-framed write-ahead log for protocol-critical state and a recoverable
SMR replica that rejoins via a ``STATE_SYNC`` exchange with live peers.
The self-healing transport's seeded backoff and heartbeat failure
detection live beside it in :mod:`repro.runtime`.
"""

from .smr import RecoverableSmrParty, StateSyncRequest, StateSyncResponse
from .wal import InMemoryWal, WalError, WriteAheadLog, open_wal

__all__ = [
    "InMemoryWal",
    "RecoverableSmrParty",
    "StateSyncRequest",
    "StateSyncResponse",
    "WalError",
    "WriteAheadLog",
    "open_wal",
]
