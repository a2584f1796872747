"""Graceful degradation under overload: bounded submit queue with
reject-with-retry-after, per-request deadline shedding, and the uniform
``{"error": ...}`` reply once the service has drained.

The backpressure loop is closed end to end: the open-loop generator
honors ``retry_after`` and re-submits, so a run with rejections still
commits every request -- later, not never -- and stays byte-identical
across runs (rejection timing is scheduled on the same virtual clock as
everything else).
"""

import dataclasses

from repro.api import Committee
from repro.scenarios import get_scenario, run_scenario
from repro.service import (
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for
from repro.sim import SimHost

N = 6


def _run_service(*, max_pending=0, request_deadline=0.0, rate=60.0,
                 requests=36, seed=0):
    committee = Committee.synthetic("zipf", n=N, total=600, skew=1.2, seed=seed)
    schedule = drift_schedule_for(tuple(committee.int_weights), 3)
    config = ServiceConfig(
        f_w="1/3",
        slot_interval=0.05,
        slots_per_epoch=3,
        max_time=60.0,
        max_pending=max_pending,
        request_deadline=request_deadline,
    )
    load = LoadGenerator(rate, requests, payload_size=32, seed=seed)
    service = EpochService(
        SimHost(),
        EpochManager(schedule, f_w="1/3"),
        config,
        seed=seed,
        load=load,
    )
    service.run()
    return service


class TestBackpressure:
    def test_bounded_queue_rejects_then_commits_everything(self):
        service = _run_service(max_pending=4, rate=400.0, requests=40)
        result = service.result()
        assert result.completed, result.error
        section = result.service
        assert section["requests_rejected"] > 0
        # retry-until-accepted: every request still lands
        assert section["requests_committed"] == 40
        assert service.load.rejections == section["requests_rejected"]
        assert service.load.abandoned == 0

    def test_rejection_reply_carries_retry_after_and_depth(self):
        service = _run_service(max_pending=2, rate=400.0, requests=12)
        # refill the queue manually: the run has finished, so exercise the
        # overload shape on a fresh service instead
        fresh = EpochService(
            SimHost(),
            EpochManager(
                drift_schedule_for(
                    tuple(
                        Committee.synthetic(
                            "zipf", n=N, total=600, skew=1.2, seed=1
                        ).int_weights
                    ),
                    1,
                ),
                f_w="1/3",
            ),
            ServiceConfig(f_w="1/3", slot_interval=0.05, max_pending=2),
            seed=1,
        )
        fresh.start()
        assert isinstance(fresh.submit(b"a"), int)
        assert isinstance(fresh.submit(b"b"), int)
        outcome = fresh.submit(b"c")
        assert outcome["error"] == "submit queue full"
        assert outcome["retry_after"] == 0.05
        assert outcome["pending"] == 2
        assert fresh.metrics.rejected == 1
        assert service.result().completed

    def test_unbounded_queue_never_rejects(self):
        service = _run_service(max_pending=0, rate=400.0, requests=40)
        assert service.result().service["requests_rejected"] == 0

    def test_backpressure_run_is_byte_deterministic(self):
        a = _run_service(max_pending=4, rate=400.0, requests=40)
        b = _run_service(max_pending=4, rate=400.0, requests=40)
        assert a.result() == b.result()


class TestDrainedSubmit:
    def test_submit_after_drain_returns_uniform_error_shape(self):
        service = _run_service()
        assert service.finished
        outcome = service.submit(b"late")
        assert set(outcome) == {"error"}
        assert "drained" in outcome["error"]
        # no retry_after: the run is over, retrying is pointless
        assert "retry_after" not in outcome

    def test_load_generator_abandons_on_drained_reply(self):
        class _Backend:
            def __init__(self):
                self.scheduled = []

            def call_later(self, delay, fn):
                self.scheduled.append((delay, fn))

        class _Drained:
            def __init__(self):
                self.backend = _Backend()

            def submit(self, payload):
                return {"error": "service has drained; request not accepted"}

        load = LoadGenerator(100.0, 3, seed=0)
        target = _Drained()
        load.install(target)
        for _delay, fn in list(target.backend.scheduled):
            fn()
        assert load.abandoned == 3
        assert load.rejections == 0
        # nothing re-scheduled: drained replies are terminal
        assert len(target.backend.scheduled) == 3


class TestDeadlineShedding:
    def test_expired_requests_are_shed_not_committed(self):
        # deadline shorter than the slot interval: anything that waits a
        # full slot is already expired when the cut happens
        service = _run_service(
            request_deadline=0.02, rate=400.0, requests=40
        )
        section = service.result().service
        assert section["requests_shed"] > 0
        assert (
            section["requests_committed"] + section["requests_shed"]
            <= section["requests_submitted"]
        )

    def test_generous_deadline_sheds_nothing(self):
        service = _run_service(request_deadline=30.0, rate=60.0, requests=36)
        result = service.result()
        assert result.completed, result.error
        section = result.service
        assert section["requests_shed"] == 0
        assert section["requests_committed"] == 36


class TestScenarioParams:
    def test_spec_params_reach_the_service_config(self):
        base = get_scenario("epoch-service")
        spec = dataclasses.replace(
            base,
            params=base.params
            + (("max_pending", 3), ("arrival_rate", 400.0)),
        )
        result = run_scenario(spec, backend="sim")
        assert result.completed
        assert result.service["requests_rejected"] > 0
        # deterministic like every sim scenario
        assert (
            run_scenario(spec, backend="sim").record_json()
            == result.record_json()
        )
