"""Sim-backend epoch service: rotation, log integrity, determinism.

The acceptance bar for the service subsystem: at least three committee
generations under open-loop load, a gap-free prefix-consistent committed
log, identical per-party epoch digests, the incremental re-solve fast
path on small stake drifts, and byte-identical records across runs.
"""

import pytest

from repro.api import Committee, CommitteeValidationError
from repro.scenarios import get_scenario, run_scenario
from repro.service import (
    DriftSchedule,
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for
from repro.sim import SimHost

N = 6


def _run_service(schedule=None, *, epochs=3, requests=36, rate=60.0, seed=0):
    committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=seed)
    if schedule is None:
        schedule = drift_schedule_for(tuple(committee.int_weights), epochs)
    manager = EpochManager(schedule, f_w="1/3")
    config = ServiceConfig(
        f_w="1/3", slot_interval=0.05, slots_per_epoch=3, max_time=60.0
    )
    load = LoadGenerator(rate, requests, payload_size=32, seed=seed)
    service = EpochService(
        SimHost(), manager, config, seed=seed, load=load
    )
    service.run()
    return service


@pytest.fixture(scope="module")
def service():
    return _run_service()


class TestRotation:
    def test_runs_through_at_least_three_epochs(self, service):
        result = service.result()
        assert result.completed, result.error
        section = result.service
        assert section["requests_committed"] == 36
        assert section["rotations"] >= 2
        assert len(section["epochs"]) >= 3

    def test_first_epoch_cold_then_incremental(self, service):
        modes = [e.solver_mode for e in service.metrics.epochs]
        assert modes[0] == "cold"
        assert all(m == "incremental" for m in modes[1:])
        assert service.manager.solver.incremental_hits >= 2

    def test_every_epoch_certifies_one_digest(self, service):
        assert len(service.epoch_party_digests) == len(service.metrics.epochs)
        for digests in service.epoch_party_digests:
            assert len(digests) == N
            assert len(set(digests.values())) == 1


class TestCommittedLog:
    def test_log_is_gap_free(self, service):
        by_slot = {}
        for slot, position, _payload in service.committed_log:
            by_slot.setdefault(slot, []).append(position)
        assert sorted(by_slot) == list(range(len(by_slot)))
        for positions in by_slot.values():
            assert sorted(positions) == list(range(N))

    def test_emission_order_is_prefix_consistent(self, service):
        keys = [(slot, pos) for slot, pos, _ in service.committed_log]
        assert keys == sorted(keys)

    def test_all_requests_appear_exactly_once(self, service):
        from repro.service.service import decode_batch

        load = LoadGenerator(60.0, 36, payload_size=32, seed=0)
        expected = {load.payload(i) for i in range(36)}
        committed = [
            (rid, payload)
            for _, _, batch in service.committed_log
            for rid, payload in decode_batch(batch)
        ]
        assert sorted(rid for rid, _ in committed) == list(range(36))
        assert {payload for _, payload in committed} == expected


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, service):
        again = _run_service()
        assert again.result() == service.result()
        assert again.committed_log == service.committed_log


class TestInfeasibleRotation:
    def test_zeroed_committee_fails_with_epoch_context(self):
        committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=0)
        dead = DriftSchedule(
            initial=tuple(committee.int_weights),
            drifts=tuple((1, i, 0) for i in range(N)),
        )
        service = _run_service(dead)
        result = service.result()
        assert not result.completed
        assert "epoch 1" in result.error
        # Epoch 0's work is preserved: the log up to the failure is intact.
        assert service.metrics.epochs

    def test_out_of_range_drift_index_rejected(self):
        with pytest.raises(CommitteeValidationError):
            DriftSchedule(initial=(10, 10), drifts=((1, 5, 3),)).resolve(1)


class TestHarnessRouting:
    def test_registry_scenario_completes_on_sim(self):
        record = run_scenario(get_scenario("epoch-service"), backend="sim").record()
        assert record["completed"]
        service = record["service"]
        assert service["requests_committed"] == 36
        assert len(service["epochs"]) >= 3

    def test_service_workload_requires_smr(self):
        spec = get_scenario("epoch-service")
        bad = type(spec)(
            name="bad",
            protocol="rbc",
            weights=spec.weights,
            workload=spec.workload,
        )
        with pytest.raises(ValueError, match="smr"):
            run_scenario(bad, backend="sim")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("slot_interval", 0),
            ("slot_interval", -0.01),
            ("slots_per_epoch", -1),
            ("epoch_seconds", -0.5),
            ("max_pending", -1),
            ("request_deadline", -1.0),
        ],
    )
    def test_unrunnable_values_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_zero_turns_triggers_and_limits_off(self):
        config = ServiceConfig(
            slots_per_epoch=0, epoch_seconds=0.0, max_pending=0, request_deadline=0.0
        )
        assert config.slots_per_epoch == 0 and config.epoch_seconds == 0.0


class TestDriftParam:
    def test_drift_param_is_the_explicit_schedule(self):
        # params["drift"] replaces drift_schedule_for with the listed
        # E:I:W entries -- the same run as a hand-built DriftSchedule.
        committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=0)
        weights = tuple(committee.int_weights)
        drifts = ((1, 2, weights[2] + 40), (2, N, 25))
        spec = get_scenario("epoch-service")
        spec = type(spec)(
            name="service",
            protocol="smr",
            weights=spec.weights,
            workload=spec.workload,
            params=(
                *spec.params,
                ("drift", ",".join(f"{e}:{i}:{w}" for e, i, w in drifts)),
            ),
        )
        section = run_scenario(spec, backend="sim").record()["service"]
        direct = _run_service(DriftSchedule(initial=weights, drifts=drifts))
        assert section == direct.result().service
        assert [e["n"] for e in section["epochs"]] == [N, N, N + 1]

    def test_malformed_drift_param_is_refused(self):
        spec = get_scenario("epoch-service")
        bad = type(spec)(
            name="bad",
            protocol="smr",
            weights=spec.weights,
            workload=spec.workload,
            params=(("drift", "1:2"),),
        )
        with pytest.raises(ValueError, match="E:I:W"):
            run_scenario(bad, backend="sim")
