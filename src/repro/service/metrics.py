"""Service-level metrics: open-loop latency percentiles and throughput.

The scenario engine's records count messages and bytes; a long-lived
service additionally needs *request*-level numbers -- how many operations
committed, how long each took from submission to full commitment, and
how the committee evolved across epochs.  :class:`ServiceMetrics`
accumulates those during the run; its summary is the ``service``
section of the scenario record (written by
:class:`repro.service.scenario.ServiceDriver`) and of the
:class:`ServiceResult` a standalone run returns.  Every value
on the sim backend is a pure function of the spec, so service sections
are byte-identical across runs, like scenario records.

Latency convention: a request's latency ends when its slot is committed
by *every* live replica (full commitment), not by the first -- the
conservative end-to-end number an open-loop client would observe from a
service that acknowledges only finalized batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["EpochRecord", "ServiceMetrics", "ServiceResult", "percentile"]


def percentile(sorted_values: list[float], p: float) -> Optional[float]:
    """Nearest-rank percentile of an already-sorted sample (None if empty)."""
    if not sorted_values:
        return None
    if not 0 < p <= 100:
        raise ValueError("percentile p must be in (0, 100]")
    rank = max(1, -(-int(p * len(sorted_values)) // 100))  # ceil(p*n/100)
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class EpochRecord:
    """One committee's tenure: which slots it served and how it was formed."""

    epoch: int
    n: int
    #: half-open global slot range [first, last) this committee served
    first_slot: int
    last_slot: int
    requests: int
    #: Swiper tickets backing the epoch's threshold setup
    total_tickets: int
    #: how the epoch's ticket re-solve ran: "cold" or "incremental"
    solver_mode: str
    #: scenario seconds from rotation trigger to the next epoch's activation
    #: (0.0 for the first epoch, which has no handover)
    rotation_seconds: float

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "n": self.n,
            "first_slot": self.first_slot,
            "last_slot": self.last_slot,
            "requests": self.requests,
            "total_tickets": self.total_tickets,
            "solver_mode": self.solver_mode,
            "rotation_seconds": round(self.rotation_seconds, 6),
        }


@dataclass
class ServiceMetrics:
    """Mutable counters the service updates as it runs."""

    submitted: int = 0
    committed: int = 0
    slots_cut: int = 0
    rotations: int = 0
    #: submissions refused at the max_pending high-water mark (backpressure)
    rejected: int = 0
    #: pending requests dropped past their per-request deadline (shedding)
    shed: int = 0
    #: per-request submit-to-full-commit latency (scenario seconds)
    latencies: list[float] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    def observe_latency(self, seconds: float, count: int = 1) -> None:
        self.latencies.extend([seconds] * count)
        self.committed += count

    def summary(self, elapsed_seconds: float) -> dict:
        """The JSON service section (scenario-record shaped, sorted keys)."""
        lat = sorted(self.latencies)
        p50 = percentile(lat, 50)
        p99 = percentile(lat, 99)
        ops = self.committed / elapsed_seconds if elapsed_seconds > 0 else 0.0
        return {
            "requests_submitted": self.submitted,
            "requests_committed": self.committed,
            "requests_rejected": self.rejected,
            "requests_shed": self.shed,
            "slots": self.slots_cut,
            "rotations": self.rotations,
            "epochs": [e.as_dict() for e in self.epochs],
            "ops_per_sec": round(ops, 3),
            "latency_p50_s": round(p50, 6) if p50 is not None else None,
            "latency_p99_s": round(p99, 6) if p99 is not None else None,
        }


@dataclass(frozen=True)
class ServiceResult:
    """The frozen outcome of one service run."""

    completed: bool
    #: rotation/validation failure message, if the run failed (the
    #: scenario record carries it as ``service.error``)
    error: Optional[str]
    elapsed_seconds: float
    #: the JSON service section (:meth:`ServiceMetrics.summary`)
    service: dict
    messages: int
    bytes: int
