"""Crash-recovery layer: durable party state, restart/rejoin, backoff.

The missing half of fault tolerance.  :mod:`repro.runtime.faults` can
crash, partition, and delay; this package brings parties *back*: a
CRC-framed write-ahead log for protocol-critical state, a seeded-jitter
backoff schedule for self-healing transports, heartbeat failure
detection, and a recoverable SMR replica that rejoins via a
``STATE_SYNC`` exchange with live peers.
"""

from .backoff import BackoffSchedule
from .heartbeat import HeartbeatMonitor
from .smr import RecoverableSmrParty, StateSyncRequest, StateSyncResponse
from .wal import InMemoryWal, WalError, WriteAheadLog, open_wal

__all__ = [
    "BackoffSchedule",
    "HeartbeatMonitor",
    "InMemoryWal",
    "RecoverableSmrParty",
    "StateSyncRequest",
    "StateSyncResponse",
    "WalError",
    "WriteAheadLog",
    "open_wal",
]
