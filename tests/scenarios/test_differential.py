"""Sim-vs-live differential coverage of the one run lifecycle.

Every batch scenario of the registry runs on the simulator's host and
on the one live host, a ``Cluster``: in process, and (``tcp``-marked)
over the TCP mesh with all nodes on one loop, and (``proc``-marked) over
the same mesh with a one-node ``Cluster`` per worker process.  Each must
tell the same story: completion, decided values, message counts and
bytes per message type wherever the driver claims them comparable, and
which chaos stages fired.  The two service scenarios run on the
simulator and on the in-process runtime and must complete, commit every
request and decide one digest per backend.  The remaining tests pin the
four places the backends' lifecycles used to diverge: a live run ending
before its fault plan's horizon, the sim ignoring
``ChaosSpec.watchdog=False``, a driver claiming comparable counts for an
epoch that runs inside a partition, and a scheduled callback that raises
(the sim raised it; a live run logged it and ran on to its timeout,
where ``Cluster.call_later`` now keeps it for the next poll to raise).
"""

import time
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.chaos.schedule import ChaosStage, TriggerSpec
from repro.scenarios import SCENARIOS, get_scenario, run_scenario, scenario_names
from repro.scenarios.drivers import SmrDriver
from repro.scenarios.spec import ScenarioSpec, WeightSpec, WorkloadSpec

BATCH = tuple(n for n in scenario_names() if SCENARIOS[n].workload.kind == "batch")
#: service workloads run on the same two hosts (``SimHost``, ``Cluster``);
#: a rotation cannot cross processes, so they have no tcp/proc form
SERVICE = tuple(n for n in scenario_names() if SCENARIOS[n].workload.kind == "service")
#: VABA's real outputs aggregate every virtual user: no single-node form
PROC_CAPABLE = tuple(n for n in BATCH if SCENARIOS[n].protocol != "vaba")


def _late_weather_spec():
    """``partition-heal-corrupt-smr`` plus a lossless weather stage long
    after the protocol has decided: only a run that lasts to the plan's
    horizon fires it."""
    spec = get_scenario("partition-heal-corrupt-smr")
    late = ChaosStage(
        action="weather",
        trigger=TriggerSpec(kind="time", value=2.0),
        params=(("weather", (("jitter", 0.01),)),),
    )
    return replace(
        spec,
        name="late-weather-smr",
        chaos=replace(spec.chaos, stages=spec.chaos.stages + (late,)),
    )


_EXTRA = {"late-weather-smr": _late_weather_spec}


@lru_cache(maxsize=None)
def _record(name: str, backend: str) -> dict:
    spec = _EXTRA[name]() if name in _EXTRA else get_scenario(name)
    return run_scenario(spec, backend=backend, timeout=60).record()


def _fired(record: dict) -> list:
    return [stage["fired"] for stage in record.get("chaos", {}).get("stages", [])]


def _assert_same_story(sim: dict, live: dict) -> None:
    assert sim["completed"] and live["completed"]
    assert live["decided"] == sim["decided"]
    assert live["count_comparable"] == sim["count_comparable"]
    if sim["count_comparable"]:
        assert live["by_type"] == sim["by_type"]
        assert live["messages"] == sim["messages"]
        assert live["bytes_by_type"] == sim["bytes_by_type"]
    assert _fired(live) == _fired(sim)


class TestSimVsInproc:
    @pytest.mark.parametrize("name", BATCH)
    def test_registry_scenario_agrees(self, name):
        _assert_same_story(_record(name, "sim"), _record(name, "inproc"))


class TestServiceOnBothHosts:
    """Slot cuts are wall-clock on inproc, so logs (and digests) differ
    between the backends; within one, every replica decides one digest."""

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    @pytest.mark.parametrize("name", SERVICE)
    def test_completes_with_one_digest(self, name, backend):
        record = _record(name, backend)
        assert record["completed"], record["service"].get("error")
        requests = get_scenario(name).param("requests")
        assert record["service"]["requests_committed"] == requests
        assert len(record["decided"]) == record["n_nodes"]
        assert len(set(record["decided"].values())) == 1


@pytest.mark.tcp
class TestSimVsTcp:
    @pytest.mark.parametrize("name", BATCH)
    def test_registry_scenario_agrees(self, name):
        _assert_same_story(_record(name, "sim"), _record(name, "tcp"))


@pytest.mark.proc
class TestSimVsProc:
    @pytest.mark.parametrize("name", PROC_CAPABLE)
    def test_registry_scenario_agrees(self, name):
        _assert_same_story(_record(name, "sim"), _record(name, "proc"))


class TestRunsToTheHorizon:
    """A live run is not complete before the fault plan's horizon."""

    def test_crash_restart_actually_crashes_and_restarts(self):
        live = _record("crash-restart-smr", "inproc")
        assert live["completed"]
        assert live["wall_seconds"] >= 1.0  # restart_at
        assert "StateSyncRequest" in live["by_type"]
        assert "StateSyncRequest" in _record("crash-restart-smr", "sim")["by_type"]

    @pytest.mark.parametrize("name", ["rolling-restart-under-load", "late-weather-smr"])
    def test_late_stages_fire_on_inproc(self, name):
        sim = _fired(_record(name, "sim"))
        assert sim and all(sim)
        assert _fired(_record(name, "inproc")) == sim

    @pytest.mark.proc
    @pytest.mark.parametrize("name", ["rolling-restart-under-load", "late-weather-smr"])
    def test_late_stages_fire_on_proc(self, name):
        assert _fired(_record(name, "proc")) == _fired(_record(name, "sim"))

    @pytest.mark.parametrize(
        "backend", ["inproc", pytest.param("proc", marks=pytest.mark.proc)]
    )
    def test_an_epoch_the_driver_never_fires_sets_no_horizon(self, backend):
        # RBC fires epoch 0 only: the second epoch's start at 1.5 s
        # schedules nothing, so the run ends when it is done
        spec = ScenarioSpec(
            name="rbc-two-epoch-times",
            protocol="rbc",
            weights=WeightSpec(kind="explicit", values=(3, 2, 1, 1, 1)),
            workload=WorkloadSpec(epochs=2, epoch_times=(0.0, 1.5)),
        )
        live = run_scenario(spec, backend=backend, timeout=30).record()
        sim = run_scenario(spec, backend="sim").record()
        assert live["completed"]
        assert live["wall_seconds"] < 1.0
        assert live["messages"] == sim["messages"]
        assert live["decided"] == sim["decided"]


class TestWatchdogFlag:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_chaos_section_keys_agree_across_backends(self, enabled):
        spec = get_scenario("partition-heal-corrupt-smr")
        spec = replace(spec, chaos=replace(spec.chaos, watchdog=enabled))
        sim = run_scenario(spec, backend="sim").record()["chaos"]
        live = run_scenario(spec, backend="inproc", timeout=30).record()["chaos"]
        assert set(sim) == set(live)
        assert ("watchdog" in sim) == enabled


class TestScheduledCallbackFailure:
    """Epoch 1's workload raises when it fires at t = 0.05: every backend
    ends the run with that exception, well inside the timeout."""

    TIMEOUT = 20.0

    @pytest.fixture
    def failing_epoch(self, monkeypatch):
        fire = SmrDriver.fire

        def faulty(driver, host, nid, epoch):
            if epoch == 1:
                raise RuntimeError("workload bug")
            return fire(driver, host, nid, epoch)

        monkeypatch.setattr(SmrDriver, "fire", faulty)

    @pytest.mark.parametrize(
        "backend",
        [
            "sim",
            "inproc",
            pytest.param("tcp", marks=pytest.mark.tcp),
            pytest.param("proc", marks=pytest.mark.proc),
        ],
    )
    def test_run_ends_with_the_error(self, failing_epoch, backend):
        spec = replace(
            get_scenario("zipf-stake-smr"),
            workload=WorkloadSpec(payload_size=64, epochs=2, epoch_times=(0.0, 0.05)),
        )
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="workload bug"):
            run_scenario(spec, backend=backend, timeout=self.TIMEOUT)
        assert time.perf_counter() - started < self.TIMEOUT / 4


class TestCountComparable:
    def test_best_effort_epoch_voids_count_comparability(self):
        # epoch 0 of partition-heal-smr runs inside the partition: how many
        # of its messages the heal still catches in flight is timing
        assert not _record("partition-heal-smr", "sim")["count_comparable"]
        assert not _record("partition-heal-corrupt-smr", "sim")["count_comparable"]

    def test_fault_free_smr_stays_comparable(self):
        assert _record("zipf-stake-smr", "sim")["count_comparable"]
