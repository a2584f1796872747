"""Durability primitives: WAL framing/torn-tail recovery, seeded
backoff, and the heartbeat failure detector.

The WAL's contract is asymmetric by design: a crash may *lose* the
un-fsynced suffix but must never corrupt a record into acceptance --
every torn tail decodes as a clean truncation at the first bad frame.
The backoff schedule's contract is the repo-wide one: with a fixed seed
the delay sequence is a pure function of call order (retry timing is
not allowed to be the one place wall-clock entropy sneaks in).
"""

import random

import pytest

from repro.recovery import InMemoryWal, WalError, WriteAheadLog, open_wal
from repro.runtime.backoff import BackoffSchedule
from repro.runtime.heartbeat import HeartbeatMonitor

RECORDS = [
    {"kind": "commit", "epoch": 0, "proposer": 3, "payload": "aa" * 16},
    {"kind": "cert", "epoch": 0, "digest": "0e" * 32, "cert": "beef"},
    {"kind": "watermark", "src": 5, "seq": 17},
]


class TestWriteAheadLog:
    def test_append_replay_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path / "p0.wal") as wal:
            for rec in RECORDS:
                wal.append(rec)
        with WriteAheadLog(tmp_path / "p0.wal") as wal:
            assert list(wal.replay()) == RECORDS
            assert wal.records_replayed == len(RECORDS)
            assert wal.torn_records == 0

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "p0.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORDS[0])
        with WriteAheadLog(path) as wal:
            wal.append(RECORDS[1])
            assert list(wal.replay()) == RECORDS[:2]

    @pytest.mark.parametrize("cut", [1, 3, 7, 11])
    def test_torn_tail_truncates_to_intact_prefix(self, tmp_path, cut):
        """Chop the last frame mid-record: replay yields everything
        before it and counts exactly one torn frame."""
        path = tmp_path / "p0.wal"
        with WriteAheadLog(path) as wal:
            for rec in RECORDS:
                wal.append(rec)
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) - cut]
        path.write_bytes(torn)
        wal = WriteAheadLog(path)
        assert list(wal.replay()) == RECORDS[:-1]
        assert wal.torn_records == 1
        wal.close()

    def test_corrupt_middle_byte_stops_replay_at_the_flip(self, tmp_path):
        path = tmp_path / "p0.wal"
        with WriteAheadLog(path) as wal:
            for rec in RECORDS:
                wal.append(rec)
        raw = bytearray(path.read_bytes())
        # flip one payload byte of the second frame (past its CRC+colon)
        second_start = raw.index(b"\n") + 1
        raw[second_start + 12] ^= 0xFF
        path.write_bytes(bytes(raw))
        wal = WriteAheadLog(path)
        # frame 1 intact, frame 2 fails its CRC, frame 3 is untrusted
        assert list(wal.replay()) == RECORDS[:1]
        assert wal.torn_records == 1
        wal.close()

    def test_truncate_torn_tail_rewrites_the_file(self, tmp_path):
        path = tmp_path / "p0.wal"
        with WriteAheadLog(path) as wal:
            for rec in RECORDS:
                wal.append(rec)
        intact_size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"deadbeef:{\"torn\":")  # crash mid-append
        wal = WriteAheadLog(path)
        dropped = wal.truncate_torn_tail()
        assert dropped > 0
        assert path.stat().st_size == intact_size
        assert list(wal.replay()) == RECORDS
        assert wal.torn_records == 0
        wal.close()

    def test_fsync_batching_counts(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "p0.wal", fsync_every=4)
        for i in range(10):
            wal.append({"i": i})
        assert wal.records_written == 10
        assert wal._unsynced == 2  # 8 of 10 flushed by the batch policy
        wal.close()

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "p0.wal")
        wal.close()
        with pytest.raises(WalError):
            wal.append({"x": 1})

    def test_in_memory_wal_same_surface(self):
        wal = InMemoryWal()
        for rec in RECORDS:
            wal.append(rec)
        assert list(wal.replay()) == RECORDS
        assert wal.truncate_torn_tail() == 0

    def test_open_wal_dispatches_on_state_dir(self, tmp_path):
        assert isinstance(open_wal(None, "p0"), InMemoryWal)
        durable = open_wal(tmp_path, "p0")
        assert isinstance(durable, WriteAheadLog)
        assert durable.path == tmp_path / "p0.wal"
        durable.close()


class TestBackoffSchedule:
    def test_same_seed_same_delay_sequence(self):
        a = BackoffSchedule(base=0.02, max_delay=0.5, seed="3->7")
        b = BackoffSchedule(base=0.02, max_delay=0.5, seed="3->7")
        assert [a.next_delay() for _ in range(12)] == [
            b.next_delay() for _ in range(12)
        ]

    def test_different_seeds_jitter_differently(self):
        a = BackoffSchedule(seed="3->7")
        b = BackoffSchedule(seed="7->3")
        assert [a.next_delay() for _ in range(6)] != [
            b.next_delay() for _ in range(6)
        ]

    def test_exponential_growth_capped_at_max(self):
        sched = BackoffSchedule(base=0.05, max_delay=1.0, jitter=0.0, seed=0)
        delays = [sched.next_delay() for _ in range(8)]
        assert delays[:5] == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert delays[5:] == [1.0, 1.0, 1.0]

    def test_jitter_stays_in_band(self):
        sched = BackoffSchedule(base=0.1, max_delay=0.1, jitter=0.5, seed=1)
        for _ in range(100):
            assert 0.05 <= sched.next_delay() <= 0.15

    def test_reset_restarts_from_base_with_the_stream_advancing(self):
        sched = BackoffSchedule(base=0.05, max_delay=1.0, jitter=0.0, seed=0)
        for _ in range(4):
            sched.next_delay()
        sched.reset()
        assert sched.next_delay() == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0.0},
            {"base": 0.1, "max_delay": 0.05},
            {"jitter": 1.0},
            {"jitter": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffSchedule(**kwargs)


class TestHeartbeatMonitor:
    def test_silence_suspects_and_a_beat_clears(self):
        mon = HeartbeatMonitor(peers=[1, 2], interval=0.1, suspect_after=3)
        for pid in (1, 2):
            mon.observe(pid, 10.0)
        assert mon.check(10.2) == []
        assert set(mon.check(10.4)) == {1, 2}  # > 3 intervals silent
        assert mon.suspect_transitions == 2
        mon.observe(1, 10.5)
        assert mon.check(10.6) == []
        assert not mon.is_suspected(1)
        assert mon.is_suspected(2)
        assert mon.alive_transitions == 1
