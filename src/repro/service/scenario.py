"""Run a ``kind="service"`` workload from a declarative scenario spec.

This is the bridge between the scenario engine and the epoch service,
and the one engine behind both ``repro scenario`` service workloads and
``repro serve``: :func:`run_service_spec` takes the same
:class:`ScenarioSpec` the harness takes, reads its weight-drift schedule
from ``params["drift"]`` or derives a deterministic one (each rotation
bumps one party's stake, so every re-solve after the first exercises the
incremental path), and returns the harness's
:class:`~repro.scenarios.harness.ScenarioResult` shape with the
service-level numbers (ops/sec, latency percentiles, per-epoch records)
attached under ``service``.

On the sim backend the whole record -- arrivals, slot cuts, rotations,
percentiles -- is a pure function of the spec, exactly like batch
scenarios.
"""

from __future__ import annotations

import json

from ..chaos.schedule import compile_timeline
from ..scenarios.spec import ScenarioSpec
from .backends import InprocServiceBackend, SimServiceBackend
from .epoch import DriftSchedule, EpochManager
from .load import LoadGenerator
from .service import EpochService, ServiceConfig

__all__ = ["run_service_spec", "drift_schedule_for"]

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


def run_service_spec(
    spec: ScenarioSpec, *, backend: str = "sim", timeout: float = 60.0, committee=None
):
    """Execute a service-workload spec; returns a ``ScenarioResult``."""
    from ..api.committee import Committee
    from ..scenarios.harness import _assemble

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
    if committee is None:
        committee = Committee.from_weight_spec(spec.weights, seed=spec.seed)
    committee.validate(
        f_w=spec.f_w,
        payload_size=spec.workload.payload_size,
        epochs=spec.workload.epochs,
    )
    adversary = None
    if spec.faults.byzantine:
        from ..adversary.strategies import Adversary

        # Service workloads attack the epoch machinery, not one protocol
        # instance, so strategies must support the "service" protocol.
        adversary = Adversary(spec, committee, protocol="service")

    rate = float(spec.param("arrival_rate", 100.0))
    requests = int(spec.param("requests", 32))
    slot_interval = float(spec.param("slot_interval", 0.05))
    slots_per_epoch = int(spec.param("slots_per_epoch", 3))
    epoch_seconds = float(spec.param("epoch_seconds", 0.0))
    max_pending = int(spec.param("max_pending", 0))
    request_deadline = float(spec.param("request_deadline", 0.0))

    initial = tuple(committee.int_weights)
    drift = spec.param("drift")
    if drift is None:
        schedule = drift_schedule_for(initial, spec.workload.epochs)
    else:
        schedule = DriftSchedule(initial=initial, drifts=_parse_drifts(drift))
    manager = EpochManager(schedule, f_w=spec.f_w)
    config = ServiceConfig(
        f_w=spec.f_w,
        slot_interval=slot_interval,
        slots_per_epoch=slots_per_epoch,
        epoch_seconds=epoch_seconds,
        max_time=timeout,
        max_pending=max_pending,
        request_deadline=request_deadline,
    )
    if backend == "sim":
        svc_backend = SimServiceBackend(
            seed=spec.seed,
            delay_low=spec.net.delay_low,
            delay_high=spec.net.delay_high,
        )
    else:
        svc_backend = InprocServiceBackend()
    load = LoadGenerator(
        rate,
        requests,
        payload_size=spec.workload.payload_size,
        seed=spec.seed,
    )
    service = EpochService(
        svc_backend,
        manager,
        config,
        name=spec.name,
        seed=spec.seed,
        load=load,
        adversary=adversary,
    )
    result = service.run()

    decided = (
        {str(pid): d for pid, d in sorted(service.epoch_party_digests[-1].items())}
        if service.epoch_party_digests
        else {}
    )
    service_section = result.service
    if result.error:
        service_section = {**service_section, "error": result.error}
    if backend == "sim":
        simulator = svc_backend.simulator
        clock = {"sim_time": simulator.now, "sim_events": simulator.events_processed}
    else:
        clock = {"wall_seconds": result.elapsed_seconds}
    return _assemble(
        spec, backend, committee, svc_backend.message_totals(),
        n_nodes=committee.n,
        count_comparable=False,
        adversary=adversary,
        completed=result.completed,
        decided=decided,
        dropped_messages=0,
        delayed_messages=0,
        service=service_section,
        **clock,
    )
