"""Crash-restart fault plans end to end: sim determinism and the proc
backend's SIGKILL-and-respawn recovery.

The acceptance bar from the recovery layer:

* on the sim backend a crash-restart run is byte-deterministic and the
  recovered party's committed log is identical to the fault-free run's;
* on the proc backend the orchestrator really SIGKILLs a worker OS
  process mid-run, respawns it, and the rejoined replica converges on
  the same decided digest as every survivor -- with the recovery
  telemetry (WAL replays, peer syncs, reconnects) in the record.
"""

import dataclasses
import json

import pytest

from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.spec import FaultSpec


def _fault_free(spec):
    return dataclasses.replace(spec, faults=FaultSpec())


class TestSimCrashRestart:
    def test_restart_run_is_byte_deterministic(self):
        spec = get_scenario("crash-restart-smr")
        first = run_scenario(spec, backend="sim")
        again = run_scenario(spec, backend="sim")
        assert first.completed
        assert first.record_json() == again.record_json()

    def test_recovered_party_matches_the_fault_free_log(self):
        spec = get_scenario("crash-restart-smr")
        faulty = run_scenario(spec, backend="sim")
        clean = run_scenario(_fault_free(spec), backend="sim")
        assert faulty.completed and clean.completed
        assert set(faulty.decided.values()) == set(clean.decided.values())
        assert len(set(faulty.decided.values())) == 1
        # the restarted party (pid 2) itself decided the common value
        (restarted_pid, _crash_at, _restart_at), = spec.faults.restarts
        assert faulty.decided[str(restarted_pid)] in clean.decided.values()

    def test_mixed_crash_and_restart_budgets_compose(self):
        """One permanent crash plus one crash-restart under the combined
        f_w budget: the restarted party recovers, the dead one stays
        out, everyone live agrees."""
        spec = get_scenario("crash-restart-mixed-smr")
        result = run_scenario(spec, backend="sim")
        assert result.completed
        (restarted_pid, _, _), = spec.faults.restarts
        assert str(restarted_pid) in result.decided
        assert str(spec.faults.crashes[0]) not in result.decided
        assert len(set(result.decided.values())) == 1

    def test_restart_over_budget_is_rejected(self):
        """A restarted party counts against the crash budget while it is
        down; restarting the heaviest party must fail validation."""
        from repro.api import CommitteeValidationError

        spec = get_scenario("crash-restart-smr")
        over = dataclasses.replace(
            spec, faults=FaultSpec(restarts=((0, 0.2, 1.0),))
        )
        with pytest.raises(CommitteeValidationError):
            run_scenario(over, backend="sim")

    def test_recovery_invariant_flags_a_silent_rejoin_failure(self):
        """The fuzz invariant layer: a completed record whose restarted
        party never decided is a violation."""
        from repro.adversary.invariants import EMPTY_DIGEST, check_record

        spec = get_scenario("crash-restart-smr")
        record = run_scenario(spec, backend="sim").record()
        assert check_record(spec, record) == []
        (restarted_pid, _, _), = spec.faults.restarts
        broken = json.loads(json.dumps(record))
        broken["decided"][str(restarted_pid)] = EMPTY_DIGEST
        assert any(
            v.startswith("recovery") for v in check_record(spec, broken)
        )


@pytest.mark.proc
class TestProcSigkillRecovery:
    def test_sigkilled_worker_rejoins_and_matches_fault_free(self):
        spec = get_scenario("crash-restart-smr")
        result = run_scenario(spec, backend="proc", timeout=60.0)
        assert result.completed
        digests = set(result.decided.values())
        assert len(digests) == 1
        clean = run_scenario(_fault_free(spec), backend="proc", timeout=60.0)
        assert clean.completed
        assert digests == set(clean.decided.values())

        (restarted_pid, _, _), = spec.faults.restarts
        recovery = result.recovery
        assert recovery is not None
        assert recovery["restarts"] >= 1
        node_rec = recovery["nodes"][str(restarted_pid)]
        assert "killed_at" in node_rec and "respawned_at" in node_rec
        assert node_rec["downtime_seconds"] > 0
        # respawn -> quiescence: well under a second when healthy; a rejoin
        # that falls into the retry/timeout regime takes the full 60
        assert node_rec["rejoin_seconds"] <= 10.0
        # the record carries the rejoin telemetry
        assert result.record()["recovery"]["restarts"] >= 1

    def test_recovery_section_lands_in_the_unified_record(self):
        spec = get_scenario("crash-restart-smr")
        rec = run_scenario(spec, backend="proc", timeout=60.0).record()
        for key in (
            "restarts",
            "recovered_from_wal",
            "recovered_from_peers",
            "reconnects",
            "duplicates_dropped",
            "suspect_transitions",
            "alive_transitions",
        ):
            assert key in rec["recovery"], key
