"""The chaos orchestrator end to end: staged timelines on every backend,
the registry's chaos scenarios, and the liveness watchdog's postmortems."""

import dataclasses
import json

import pytest

from repro.chaos import watchdog_section
from repro.chaos.schedule import ChaosSpec, ChaosStage, TriggerSpec
from repro.runtime import Cluster
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.harness import _arm, build_driver
from repro.scenarios.spec import ScenarioSpec, WeightSpec, WorkloadSpec

#: record keys that legitimately differ between backends: clocks, event
#: counts, and byte metering (the sim meters abstract payload sizes, the
#: runtimes meter encoded frames -- message *counts* still must agree)
BACKEND_KEYS = {"backend", "sim_time", "sim_events", "wall_seconds",
                "bytes", "bytes_by_type"}


def _stall_spec():
    """An unhealed chaos partition below the deliver quorum: the
    expected-no-liveness stall the watchdog must turn into a postmortem."""
    return ScenarioSpec(
        name="stall-probe",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=(30, 25, 20, 10, 5, 5, 3, 2)),
        workload=WorkloadSpec(payload_size=32, epochs=1),
        chaos=ChaosSpec(
            stages=(
                ChaosStage(
                    action="partition",
                    trigger=TriggerSpec(kind="time", value=0.0),
                    params=(("groups", ((0, 1, 2, 3), (4, 5, 6, 7))),),
                ),
            ),
        ),
    )


class TestStagedTimelineOnSim:
    def test_partition_heal_corrupt_completes(self):
        result = run_scenario(get_scenario("partition-heal-corrupt-smr"),
                              backend="sim")
        record = result.record()
        assert record["completed"]
        assert record["dropped_messages"] > 0  # the partition bit
        stages = record["chaos"]["stages"]
        assert [s["action"] for s in stages] == ["partition", "heal", "byzantine"]
        assert all(s["fired"] for s in stages)
        assert not record["chaos"]["watchdog"]["stalled"]

    def test_weather_storm_completes_without_duplicate_commits(self):
        spec = get_scenario("weather-storm-smr")
        stormy = run_scenario(spec, backend="sim")
        record = stormy.record()
        assert record["completed"]
        counters = record["chaos"]["weather"]["counters"]
        assert counters["duplicated"] > 0 and counters["reordered"] > 0
        assert counters["lost"] == 0
        assert record["chaos"]["duplicate_commits"] == 0
        # Against the same spec without weather: same decisions, and the
        # storm costs delivery work, not a retransmission/timeout regime
        # (virtual time, so the ratio is deterministic).
        clean = run_scenario(dataclasses.replace(spec, chaos=None), backend="sim")
        assert clean.completed
        assert stormy.decided == clean.decided
        assert stormy.sim_time / clean.sim_time <= 3.0

    def test_rolling_restart_under_load_commits_the_surge(self):
        record = run_scenario(get_scenario("rolling-restart-under-load"),
                              backend="sim").record()
        assert record["completed"]
        assert record["chaos"]["stages"][0]["fired"]  # the load surge
        # every observer decided the same value, surge epoch included
        assert len(set(record["decided"].values())) == 1

    def test_sim_record_is_deterministic(self):
        spec = get_scenario("partition-heal-corrupt-smr")
        a = json.dumps(run_scenario(spec, backend="sim").record(), sort_keys=True)
        b = json.dumps(run_scenario(spec, backend="sim").record(), sort_keys=True)
        assert a == b


class TestCrossBackend:
    def test_sim_and_inproc_records_agree(self):
        spec = get_scenario("partition-heal-corrupt-smr")
        sim = run_scenario(spec, backend="sim").record()
        live = run_scenario(spec, backend="inproc", timeout=30).record()
        sim_cmp = {k: v for k, v in sim.items() if k not in BACKEND_KEYS}
        live_cmp = {k: v for k, v in live.items() if k not in BACKEND_KEYS}
        assert sim_cmp == live_cmp

    @pytest.mark.proc
    def test_runs_on_proc(self):
        spec = get_scenario("partition-heal-corrupt-smr")
        sim = run_scenario(spec, backend="sim").record()
        proc = run_scenario(spec, backend="proc", timeout=60).record()
        assert proc["completed"]
        assert proc["decided"] == sim["decided"]
        stages = proc["chaos"]["stages"]
        assert all(s["fired"] for s in stages)
        assert proc["chaos"]["duplicate_commits"] == 0


class TestWatchdog:
    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_stall_yields_postmortem_not_timeout(self, backend):
        record = run_scenario(_stall_spec(), backend=backend,
                              timeout=20).record()
        assert not record["completed"]
        watchdog = record["chaos"]["watchdog"]
        assert watchdog["stalled"]
        assert watchdog["classification"] == "expected-no-liveness"
        postmortem = watchdog["postmortem"]
        assert postmortem["partitioned"]
        assert postmortem["dropped_messages"] > 0
        assert postmortem["trace"]  # per-link last-N message fates
        assert postmortem["stages"][0]["fired"]

    @pytest.mark.proc
    def test_stall_postmortem_on_proc(self):
        record = run_scenario(_stall_spec(), backend="proc", timeout=30).record()
        assert not record["completed"]
        watchdog = record["chaos"]["watchdog"]
        assert watchdog["stalled"]
        assert watchdog["classification"] == "expected-no-liveness"
        assert watchdog["postmortem"]["trace"]

    def test_completed_runs_carry_no_postmortem(self):
        record = run_scenario(get_scenario("partition-heal-corrupt-smr"),
                              backend="sim").record()
        assert "postmortem" not in record["chaos"]["watchdog"]

    def test_genuine_stall_classified_distinctly(self):
        # Same quiescence, opposite liveness claim: a run that was
        # expected to finish but went quiet is a bug, not an expectation.
        stall = watchdog_section(expect_liveness=True, completed=False)
        assert stall["classification"] == "stall"
        expected = watchdog_section(expect_liveness=False, completed=False)
        assert expected["classification"] == "expected-no-liveness"
        done = watchdog_section(expect_liveness=True, completed=True)
        assert done == {"stalled": False, "expect_liveness": True}


class TestStageActions:
    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_restart_stage_needs_a_recoverable_party(self, backend):
        # like a flat restart plan: rejected when the driver is built,
        # before any stage can fire
        def at(t, action):
            return ChaosStage(
                action=action,
                trigger=TriggerSpec(kind="time", value=t),
                params=(("pids", (3,)),),
            )

        spec = ScenarioSpec(
            name="rbc-restart-stage",
            protocol="rbc",
            weights=WeightSpec(kind="explicit", values=(5, 5, 5, 5)),
            chaos=ChaosSpec(stages=(at(0.0, "crash"), at(0.05, "restart"))),
        )
        with pytest.raises(ValueError, match="no crash-recoverable party"):
            run_scenario(spec, backend=backend, timeout=10)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="no-such-action"):
            ScenarioSpec(
                name="bad-stage",
                protocol="smr",
                weights=WeightSpec(kind="explicit", values=(5, 5, 5, 5)),
                chaos=ChaosSpec(
                    stages=(
                        ChaosStage(
                            action="no-such-action",
                            trigger=TriggerSpec(kind="time", value=0.0),
                        ),
                    ),
                ),
            )


class TestProcWorkerScope:
    """A proc worker's scope rule, without a process: its one-node
    cluster (never started) hosts only its own party, so a fault plan's
    party-level effects and the workload reach that party alone, while
    the controller takes the whole plan."""

    def test_crash_stage_and_workload_reach_only_the_hosted_party(self):
        crash = ChaosStage(
            action="crash",
            trigger=TriggerSpec(kind="time", value=0.0),
            params=(("pids", (1, 3)),),
        )
        spec = ScenarioSpec(
            name="worker-scope",
            protocol="smr",
            weights=WeightSpec(kind="explicit", values=(5,) * 7),
            workload=WorkloadSpec(payload_size=32, epochs=1),
            chaos=ChaosSpec(stages=(crash,)),
        )
        driver = build_driver(spec, backend="proc")
        fired = []
        driver.fire = lambda host, nid, epoch: fired.append((nid, epoch))
        host = Cluster(transport="tcp", node_id=2)
        driver.spawn(host)
        assert [party.pid for party in host.parties] == [2]
        # t = 0 runs now: neither the stage nor epoch 0 needs a loop
        _arm(spec, driver, host, restart_timers=False)
        driver.start(host)
        assert host.faults.crashed == {1, 3}
        assert not host.party(2).crashed
        assert fired == [(2, 0)]


class TestFuzzReplay:
    def test_chaos_episode_replays_byte_identically(self):
        from repro.adversary.fuzz import FuzzConfig, build_episode, run_episode

        config = FuzzConfig(episodes=0, seed=0)
        episode = next(
            build_episode(config, i)
            for i in range(200)
            if build_episode(config, i)["kind"] == "chaos"
        )
        first = run_episode(episode)
        second = run_episode(episode)
        assert not first.skipped
        assert json.dumps(first.record, sort_keys=True) == json.dumps(
            second.record, sort_keys=True
        )
        assert first.violations == []
