"""A restart over a torn WAL keeps what it appends afterwards.

A proc worker SIGKILLed mid-``write`` leaves a partial last line; the
respawned worker reopens the same log and its replica restarts.  Replay
stops at the torn frame, so the restart must cut the log back to its
intact prefix before the replica appends again -- else every later
record sits behind the torn line and the next replay never reaches it.
"""

from repro.recovery import WriteAheadLog
from repro.recovery.smr import RecoverableSmrParty
from repro.sim import SimHost
from repro.weighted.quorum import NominalQuorums


def _replica(wal):
    """Party 0 of a 4-party sim host, logging to ``wal``."""
    return SimHost(
        lambda pid: RecoverableSmrParty(
            pid, 4, NominalQuorums(n=4, t=1), lambda e: 0, wal=wal if pid == 0 else None
        ),
        4,
        seed=0,
    ).party(0)


def test_records_appended_after_a_torn_tail_survive_the_next_replay(tmp_path):
    path = tmp_path / "party0.wal"
    wal = WriteAheadLog(path)
    party = _replica(wal)
    for seq in range(3):
        party.note_watermark(1, seq)
    wal.close()
    with open(path, "ab") as fh:
        fh.write(b'deadbeef:{"kind":"watermark","sr')  # killed mid-append

    wal = WriteAheadLog(path)  # the respawned worker reopens the log
    party = _replica(wal)
    party.crash()
    party.restart()
    assert wal.records_replayed == 3 and wal.torn_records == 1
    assert party.watermarks == {1: 2}
    party.note_watermark(1, 3)
    wal.close()

    wal = WriteAheadLog(path)
    assert [r["seq"] for r in wal.replay()] == [0, 1, 2, 3]
    assert wal.torn_records == 0
    wal.close()
