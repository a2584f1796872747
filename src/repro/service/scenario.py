"""The epoch service as a scenario driver.

A ``kind="service"`` spec -- ``repro scenario`` service workloads and
``repro serve`` alike -- runs through the scenario harness like every
batch workload: :func:`~repro.scenarios.harness.build_driver` returns a
:class:`ServiceDriver`, and the harness hosts it, arms its (empty) fault
plan, applies the stop rule and assembles the record.  The driver reads
the weight-drift schedule from ``params["drift"]`` or derives a
deterministic one (each rotation bumps one party's stake, so every
re-solve after the first exercises the incremental path), and attaches
the service-level numbers (ops/sec, latency percentiles, per-epoch
records) under ``service``.

On the sim backend the whole record -- arrivals, slot cuts, rotations,
percentiles -- is a pure function of the spec, exactly like batch
scenarios.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional

from ..chaos.schedule import compile_timeline
from ..scenarios.drivers import ProtocolDriver
from ..scenarios.spec import ScenarioSpec
from .epoch import DriftSchedule, EpochManager
from .load import LoadGenerator
from .service import EpochService, ServiceConfig

__all__ = ["ServiceDriver", "drift_schedule_for"]

#: backends a service workload runs on
SERVICE_BACKENDS = ("sim", "inproc")


def drift_schedule_for(
    initial: tuple[int, ...], epochs: int
) -> DriftSchedule:
    """The spec-derived stake evolution: rotation ``e`` bumps party
    ``(e-1) % n`` by ~1/8 of its stake -- a small delta, so the manager's
    re-solve hits the incremental fast path."""
    n = len(initial)
    drifts = []
    current = list(initial)
    for e in range(1, epochs):
        i = (e - 1) % n
        current[i] = current[i] + max(1, current[i] // 8)
        drifts.append((e, i, current[i]))
    return DriftSchedule(initial=tuple(initial), drifts=tuple(drifts))


def _parse_drifts(text: str) -> tuple[tuple[int, int, int], ...]:
    """``params["drift"]``: comma-joined ``E:I:W`` entries -- from epoch
    ``E`` on, party ``I`` weighs ``W`` (``I == n`` appends a party)."""
    drifts = []
    for entry in text.split(","):
        parts = entry.split(":")
        if len(parts) != 3:
            raise ValueError(f"drift entries are E:I:W, got {entry!r}")
        drifts.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return tuple(drifts)


class ServiceDriver(ProtocolDriver):
    """The epoch service, run by the scenario harness.

    :meth:`start` builds an :class:`EpochService` on the run's host,
    which spawns and retires the service's generations (one per
    committee, one per checkpoint handover).  The run is done when the
    service finishes, completed or not, and ends right there: what is
    still pending then is the next slot tick and deliveries to retired
    parties, so draining would only move the clock.
    """

    count_comparable = False
    proc_capable = False
    # strategies attack the epoch machinery, not one protocol instance
    attacked_as = "service"
    drains = False

    @classmethod
    def check(cls, spec: ScenarioSpec, backend: str) -> None:
        if spec.protocol != "smr":
            raise ValueError("service workloads run on the smr protocol")
        if backend not in SERVICE_BACKENDS:
            raise ValueError(
                f"service workloads run on the {' or '.join(SERVICE_BACKENDS)} "
                f"backends, not {backend}: a rotation rebinds node ids 0..n-1 "
                "inside one transport object, and the TCP mesh has no "
                "cross-process rebind"
            )
        timeline = compile_timeline(spec)
        armed = [json.dumps(stage.to_dict(), sort_keys=True) for stage in timeline.stages]
        armed += [f"link delay {list(delay)}" for delay in timeline.link_delays]
        if timeline.weather is not None:
            armed.append(f"weather {timeline.weather.to_dict()}")
        if armed:
            raise ValueError(
                "service workloads arm no fault timeline (byzantine fault-plan "
                f"entries only), got {armed[0]}"
            )
        if spec.param("quorums", "weighted") != "weighted":
            raise ValueError("service workloads vote with weighted quorums only")

    def __init__(self, spec: ScenarioSpec, committee, adversary=None) -> None:
        super().__init__(spec, committee, adversary)
        self.load = LoadGenerator(
            float(spec.param("arrival_rate", 100.0)),
            int(spec.param("requests", 32)),
            payload_size=spec.workload.payload_size,
            seed=spec.seed,
        )
        #: max_time is the run's timeout, set at start
        self.config = ServiceConfig(
            f_w=spec.f_w,
            slot_interval=float(spec.param("slot_interval", 0.05)),
            slots_per_epoch=int(spec.param("slots_per_epoch", 3)),
            epoch_seconds=float(spec.param("epoch_seconds", 0.0)),
            max_pending=int(spec.param("max_pending", 0)),
            request_deadline=float(spec.param("request_deadline", 0.0)),
        )
        # the stop poll runs at the slot tick, and the service wakes it
        # when it finishes
        self.poll = self.config.slot_interval
        initial = tuple(committee.int_weights)
        drift = spec.param("drift")
        if drift is None:
            schedule = drift_schedule_for(initial, spec.workload.epochs)
        else:
            schedule = DriftSchedule(initial=initial, drifts=_parse_drifts(drift))
        self.manager = EpochManager(schedule, f_w=spec.f_w)
        self.service: Optional[EpochService] = None

    @property
    def epochs(self) -> int:
        return 0  # the service cuts its own slots; the harness fires none

    def spawn(self, host) -> None:
        """Nothing yet: the service spawns each generation as it goes."""

    def start(self, host) -> None:
        self.service = EpochService(
            host,
            self.manager,
            replace(self.config, max_time=self.timeout),
            name=self.spec.name,
            seed=self.spec.seed,
            load=self.load,
            adversary=self.adversary,
        )
        self.service.start()

    def done(self, host) -> bool:
        return self.service.finished

    def completed(self, host) -> bool:
        return self.service.completed

    def outputs(self, host) -> dict[str, str]:
        """The last epoch's per-replica log digests."""
        digests = self.service.epoch_party_digests
        return {str(pid): d for pid, d in sorted(digests[-1].items())} if digests else {}

    def sections(self, host) -> dict:
        service = self.service
        section = service.metrics.summary(service.elapsed)
        if service.error:
            section = {**section, "error": service.error}
        return {"service": section}
