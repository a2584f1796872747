"""The process-per-party ``proc`` backend.

The acceptance bars pinned here:

* cross-backend equivalence: the pinned ``uniform-rbc`` and
  ``crash-f-rbc`` scenarios produce the same unified record fields on
  ``sim``, ``inproc``, and ``proc`` (decided values, completion, message
  counts; byte counts additionally match ``inproc``, which meters the
  same codec);
* a 16-party proc cluster completes the pinned SMR scenario with one
  distinct OS process per party (distinct PIDs in the run record);
* concurrent proc clusters cannot collide on ports (kernel-assigned,
  published over the control pipe);
* worker crash and timeout surface as catchable errors, not hangs.

Everything that spawns processes is ``proc``-marked; the guard tests at
the bottom are tier-1 (no processes).
"""

import json
import threading

import pytest

from repro.parallel.proc import CRASH_ENV, ProcError
from repro.runtime.cluster import Cluster
from repro.scenarios.harness import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, WeightSpec, WorkloadSpec


def _small_spec(name, seed=0, n=4):
    return ScenarioSpec(
        name=name,
        protocol="rbc",
        weights=WeightSpec(kind="constant", n=n, total=n * 100),
        seed=seed,
        workload=WorkloadSpec(payload_size=16),
    )


@pytest.mark.proc
class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("name", ["uniform-rbc", "crash-f-rbc"])
    def test_pinned_scenarios_match_sim_and_inproc(self, name):
        spec = get_scenario(name)
        sim = run_scenario(spec, backend="sim")
        inproc = run_scenario(spec, backend="inproc", timeout=30)
        proc = run_scenario(spec, backend="proc", timeout=60)
        assert proc.completed and sim.completed and inproc.completed
        assert proc.decided == sim.decided == inproc.decided
        assert proc.messages == sim.messages == inproc.messages
        assert dict(proc.by_type) == dict(sim.by_type) == dict(inproc.by_type)
        assert proc.dropped_messages == sim.dropped_messages
        # Byte metering is the runtime codec's; the sim estimates, so the
        # byte bar is proc == inproc.
        assert proc.bytes == inproc.bytes
        assert dict(proc.bytes_by_type) == dict(inproc.bytes_by_type)

    def test_record_shape_carries_workers(self):
        record = run_scenario(
            get_scenario("uniform-rbc"), backend="proc", timeout=60
        ).record()
        assert record["backend"] == "proc"
        assert set(record["workers"]) == {str(n) for n in range(8)}
        json.dumps(record)  # record stays JSON-able


@pytest.mark.proc
class TestProcessPerParty:
    def test_sixteen_party_smr_runs_sixteen_processes(self):
        import os

        spec = ScenarioSpec(
            name="smr-16-proc",
            protocol="smr",
            weights=WeightSpec(kind="constant", n=16, total=1600),
            workload=WorkloadSpec(payload_size=16, epochs=1),
        )
        result = run_scenario(spec, backend="proc", timeout=120)
        assert result.completed
        pids = list(result.workers.values())
        assert len(pids) == 16
        assert len(set(pids)) == 16  # one distinct OS process per party
        assert os.getpid() not in pids  # none of them is the parent

    def test_concurrent_clusters_do_not_collide(self):
        # Two proc clusters at once: every port is kernel-assigned and
        # published through the control pipe, so both must complete.
        results = {}
        errors = []

        def run(key, seed):
            try:
                results[key] = run_scenario(
                    _small_spec(f"cc-{key}", seed=seed), backend="proc", timeout=60
                )
            except Exception as exc:  # noqa: BLE001 -- surfaced below
                errors.append((key, exc))

        threads = [
            threading.Thread(target=run, args=(key, seed))
            for key, seed in (("a", 0), ("b", 1))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert results["a"].completed and results["b"].completed
        assert not (
            set(results["a"].workers.values()) & set(results["b"].workers.values())
        )


@pytest.mark.proc
class TestFailureSurfaces:
    def test_worker_crash_raises_proc_error(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "1")
        with pytest.raises(ProcError, match="worker 1"):
            run_scenario(_small_spec("crash-surface"), backend="proc", timeout=30)

    def test_proc_error_is_a_runtime_error(self):
        # The CLI's uniform {"error": ...} handler catches RuntimeError.
        assert issubclass(ProcError, RuntimeError)

    def test_timeout_raises_timeout_error(self):
        with pytest.raises(TimeoutError):
            run_scenario(_small_spec("timeout-surface"), backend="proc", timeout=0.001)


class TestGuards:
    """Tier-1 (no processes): misuse is rejected eagerly."""

    def test_vaba_is_rejected(self):
        spec = ScenarioSpec(
            name="vaba-proc",
            protocol="vaba",
            weights=WeightSpec(kind="constant", n=4, total=400),
        )
        with pytest.raises(ValueError, match="not supported on the proc"):
            run_scenario(spec, backend="proc")

    def test_service_workloads_are_rejected(self):
        spec = ScenarioSpec(
            name="svc-proc",
            protocol="smr",
            weights=WeightSpec(kind="constant", n=4, total=400),
            workload=WorkloadSpec(kind="service"),
        )
        with pytest.raises(ValueError, match="not proc"):
            run_scenario(spec, backend="proc")

    def test_single_loop_cluster_rejects_the_proc_transport(self):
        with pytest.raises(ValueError, match="process-per-party"):
            Cluster(lambda pid: None, 4, transport="proc")
