"""Workload parameters and seeded input generation.

The program under test receives only what is generated here: weight
vectors, request payloads and their due times, objects to disperse,
stake-drift steps.  Everything random derives from ``--seed``; the
committees themselves are fixed (their shape is the workload, not its
input), so ticket totals repeat exactly across seeds.  Why each workload
exists is recorded next to its name in ``BENCHMARK.json``.

Two scales: ``full`` is what the ledger reports; ``smoke`` shrinks every
workload to well under a second so the tier-1 smoke test can run all of
them (smaller committees and objects, a 256-bit group, two chains).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "NAMES",
    "AvidBulk",
    "Beacon",
    "SmrTcp",
    "SolveChains",
    "SvcOpen",
    "delta_steps",
    "params",
    "payload_pool",
    "synthetic_committee",
]

NAMES = ("svc-open", "smr-tcp", "avid-bulk", "beacon-2048", "solve-chains")


@dataclass(frozen=True)
class SvcOpen:
    """Open-loop Poisson requests into the epoch service (in-process)."""

    n: int = 8
    total: int = 800
    skew: float = 1.2
    #: arrival rate, requests per second: about half of what saturates
    #: one core, so the row shows latency and CPU per request, not peak rate
    rate: float = 2500.0
    payload_size: int = 64
    #: requests due in the first ``warm_s`` seconds warm the service up and
    #: are left out of every number
    warm_s: float = 1.0
    #: requests of the warm-up service run that ends the set-up
    setup_requests: int = 500
    #: rotations per run, at evenly spaced times of the measured window
    rotations: int = 2


@dataclass(frozen=True)
class SmrTcp:
    """Closed-loop SMR slots over loopback TCP, ``window`` in flight."""

    n: int = 8
    total: int = 800
    skew: float = 1.2
    batch_size: int = 1024
    window: int = 4
    warm_slots: int = 8
    #: peak RSS is read when this many measured slots are done, so that a
    #: faster run (more slots, more retained log) does not read as a
    #: memory regression
    rss_slots: int = 250


@dataclass(frozen=True)
class AvidBulk:
    """Disperse, crash, retrieve one large object at a time (in-process)."""

    n: int = 16
    total: int = 1600
    skew: float = 1.2
    object_size: int = 4 * 2**20


@dataclass(frozen=True)
class Beacon:
    """Threshold-signature randomness beacon epochs (in-process)."""

    n: int = 12
    total: int = 12000
    skew: float = 0.6
    group: str = "RFC3526_GROUP_2048"


@dataclass(frozen=True)
class SolveChains:
    """Cold Swiper solves on chain snapshots, then incremental re-solves."""

    #: (chain, problem) cells solved cold each round; algorand WQ/WS
    #: (2.3 s + 2.8 s a solve) are left out so a round fits the run length
    cells: tuple[tuple[str, str], ...] = tuple(
        (chain, problem)
        for chain in ("aptos", "tezos", "filecoin")
        for problem in ("wr", "wq", "ws")
    ) + (("algorand", "wr"),)
    #: the committee re-solved incrementally (bench_service's rotation row)
    incremental_n: int = 10_000
    incremental_total: int = 1_000_000
    incremental_skew: float = 1.3
    incremental_steps: int = 8


_FULL = {
    "svc-open": SvcOpen(),
    "smr-tcp": SmrTcp(),
    "avid-bulk": AvidBulk(),
    "beacon-2048": Beacon(),
    "solve-chains": SolveChains(),
}

_SMOKE = {
    "svc-open": SvcOpen(rate=400.0, warm_s=0.1, setup_requests=20, rotations=1),
    "smr-tcp": SmrTcp(n=4, total=400, batch_size=64, window=2, warm_slots=1, rss_slots=2),
    "avid-bulk": AvidBulk(n=8, total=800, object_size=16 * 2**10),
    "beacon-2048": Beacon(n=4, total=4000, group="TEST_GROUP_256"),
    "solve-chains": SolveChains(
        cells=(("aptos", "wr"), ("aptos", "wq"), ("aptos", "ws"), ("tezos", "wr")),
        incremental_n=300,
        incremental_total=30_000,
        incremental_steps=2,
    ),
}


def params(name: str, *, smoke: bool = False):
    """The parameter set of workload ``name`` at the chosen scale."""
    try:
        return (_SMOKE if smoke else _FULL)[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}") from None


def synthetic_committee(p):
    """The workload's fixed Zipf committee (``seed=0`` always: the seed of
    a run varies its inputs, not the committee's shape)."""
    from repro.api import Committee

    return Committee.synthetic("zipf", n=p.n, total=p.total, skew=p.skew, seed=0)


def payload_pool(seed: int, tag: str, count: int, size: int) -> list[bytes]:
    """``count`` seeded random payloads of ``size`` bytes."""
    rng = random.Random(f"ledger|{tag}|{seed}")
    return [rng.randbytes(size) for _ in range(count)]


def delta_steps(seed: int, weights, steps: int) -> list[tuple[int, ...]]:
    """Successive weight vectors, each one party's stake away from the
    last: a seeded party gains 1/16 to 1/4 of its stake per step."""
    rng = random.Random(f"ledger|drift|{seed}")
    current = list(weights)
    out = []
    for _ in range(steps):
        i = rng.randrange(len(current))
        current[i] += max(1, current[i] // rng.randint(4, 16))
        out.append(tuple(current))
    return out
