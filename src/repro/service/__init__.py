"""Epoch service: long-lived multi-committee SMR over rotating weighted
committees.

The scenario engine runs one committee to completion; real weighted
systems run *forever* while stake moves under them.  This package is
that missing layer: an :class:`EpochService` that batches submitted
requests into pipelined consensus slots, an
:class:`~repro.service.epoch.EpochManager` that re-forms the committee
each epoch (incrementally re-solving the Swiper instance when the stake
delta is small), checkpoint handover between committees via the blunt
weighted threshold signatures of Section 4.3, and an open-loop Poisson
:class:`LoadGenerator` with latency/throughput metrics.

Quick start::

    from repro.service import (
        DriftSchedule, EpochManager, EpochService, LoadGenerator,
        ServiceConfig,
    )
    from repro.sim import SimHost

    schedule = DriftSchedule(initial=(40, 25, 15, 10, 5, 3, 1, 1),
                             drifts=((1, 2, 18), (2, 5, 4)))
    manager = EpochManager(schedule, f_w="1/3")
    service = EpochService(
        SimHost(), manager, ServiceConfig(slots_per_epoch=3),
        load=LoadGenerator(rate=100.0, requests=40),
    )
    result = service.run()
    print(result.service["ops_per_sec"])

The host is the run's clock and the keeper of its party generations: a
:class:`~repro.sim.runner.SimHost` (virtual time, deterministic) or a
:class:`~repro.runtime.cluster.LiveHost` (wall time, in-process
transport) -- the same two hosts the scenario harness runs every
workload on; a ``kind="service"`` spec runs this service there through
:class:`~repro.service.scenario.ServiceDriver`.
"""

# the ledger benchmark's name for the live host
from ..runtime.cluster import LiveHost as InprocServiceBackend  # noqa: F401
from .epoch import DriftSchedule, EpochManager
from .load import LoadGenerator
from .metrics import EpochRecord, ServiceMetrics, ServiceResult
from .service import EpochService, ServiceConfig

__all__ = [
    "DriftSchedule",
    "EpochManager",
    "EpochRecord",
    "EpochService",
    "LoadGenerator",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceResult",
]
