"""Declarative scenario specifications.

A :class:`ScenarioSpec` names everything a protocol execution needs --
which protocol, how many parties, where the weights come from, which
faults fire when, the simulated network model, the workload size, and a
seed -- without saying *how* to execute it.  The same spec runs on the
discrete-event simulator or on the live asyncio runtime (see
:mod:`repro.scenarios.harness`), which is what lets one test sweep the
protocol x distribution x fault-model matrix on both backends.

Specs are plain data: every field round-trips through ``to_dict`` /
``from_dict`` (hence JSON), and materialization is deterministic for a
fixed seed -- two runs of the same spec draw identical weight vectors,
payloads, and fault timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..chaos.schedule import ChaosSpec

__all__ = [
    "WeightSpec",
    "ByzantineSpec",
    "FaultSpec",
    "NetSpec",
    "WorkloadSpec",
    "ScenarioSpec",
]

#: weight-distribution kinds understood by :meth:`WeightSpec.materialize`
WEIGHT_KINDS = (
    "explicit",
    "constant",
    "uniform",
    "zipf",
    "pareto",
    "lognormal",
    "exponential",
    "chain",
)


@dataclass(frozen=True)
class WeightSpec:
    """Where a scenario's weight vector comes from.

    ``kind`` selects a generator from :mod:`repro.datasets.synthetic`, a
    calibrated chain snapshot from :mod:`repro.datasets.chains` (truncated
    to the ``n`` heaviest parties so the resulting cluster stays
    runnable), or an explicit vector.
    """

    kind: str
    n: int = 0
    total: int = 0
    #: skew parameter: ``s`` for zipf, ``alpha`` for pareto, ``sigma`` for
    #: lognormal, ``rate`` for exponential (unused otherwise)
    skew: float = 1.0
    #: chain name for ``kind="chain"``
    chain: str = ""
    #: the vector itself for ``kind="explicit"``
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; one of {WEIGHT_KINDS}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit weights need a non-empty values tuple")
        elif self.kind == "chain":
            if not self.chain or self.n < 1:
                raise ValueError("chain weights need a chain name and n >= 1")
        elif self.n < 1 or self.total < self.n:
            raise ValueError("generated weights need n >= 1 and total >= n")

    def to_source(self):
        """This spec as a :class:`repro.api.weight_source.WeightSource`
        (the canonical resolution recipe; ``materialize`` delegates here)."""
        from ..api.weight_source import ChainWeights, InlineWeights, SyntheticWeights

        if self.kind == "explicit":
            return InlineWeights(self.values)
        if self.kind == "chain":
            return ChainWeights(self.chain, n=self.n)
        return SyntheticWeights(self.kind, self.n, self.total, skew=self.skew)

    def materialize(self, seed: int) -> list[int]:
        """The concrete integer weight vector (deterministic in ``seed``)."""
        return self.to_source().resolve(seed)


@dataclass(frozen=True)
class ByzantineSpec:
    """One active (Byzantine) adversary strategy in a fault plan.

    ``strategy`` names an entry of the
    :data:`repro.adversary.STRATEGIES` registry (equivocate,
    garble-echo, pivot-delay, adaptive-corrupt, share-flood,
    bad-handover); ``params`` are strategy-specific JSON-scalar options.
    Which parties get corrupted is *not* part of the spec -- strategies
    pick their own corruption set under the spec's ``f_w`` weight budget,
    deterministically from the materialized weights and the seed, so the
    same entry means the same attack on every backend.
    """

    strategy: str
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class FaultSpec:
    """The flat fault plan, in scenario time (sim: virtual seconds;
    runtime: wall seconds -- both regimes use sub-second horizons).

    Sugar for chaos stages: :func:`~repro.chaos.schedule.compile_timeline`
    compiles every field but ``byzantine`` into the run's one timeline,
    which :class:`~repro.chaos.orchestrator.ChaosOrchestrator` fires.
    ``crashes`` fire at t=0.  ``partition`` (a tuple of pid groups) is
    active from t=0 until ``heal_at`` (``None`` = never heals).
    ``link_delays`` adds fixed latency to directed links for the whole
    run.  ``byzantine`` lists active adversary strategies (see
    :class:`ByzantineSpec`); corrupted parties stay live but misbehave.
    ``restarts`` is the crash-restart kind: ``(pid, crash_at,
    restart_at)`` crashes ``pid`` mid-run and brings it back, at which
    point it replays its write-ahead log and rejoins via state sync
    (see :mod:`repro.recovery`).  Fault pids refer to *real* parties;
    drivers that expand parties into virtual users translate them.
    """

    crashes: tuple[int, ...] = ()
    partition: tuple[tuple[int, ...], ...] = ()
    heal_at: Optional[float] = None
    link_delays: tuple[tuple[int, int, float], ...] = ()
    byzantine: tuple[ByzantineSpec, ...] = ()
    restarts: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        for pid, crash_at, restart_at in self.restarts:
            if restart_at <= crash_at:
                raise ValueError(
                    f"restart_at must come after crash_at for pid {pid}"
                )
            if pid in self.crashes:
                raise ValueError(
                    f"pid {pid} cannot be both permanently crashed and restarted"
                )


@dataclass(frozen=True)
class NetSpec:
    """The simulated network's delay model (sim backend only; the live
    runtime's latency is whatever the transport really does)."""

    delay_low: float = 0.01
    delay_high: float = 0.1


#: workload kinds: ``batch`` is the classic fixed-instance run; ``service``
#: is the epoch service's open-loop request stream with committee rotation
WORKLOAD_KINDS = ("batch", "service")


@dataclass(frozen=True)
class WorkloadSpec:
    """What the parties are asked to do.

    For ``kind="batch"`` (the default), ``epochs`` counts SMR epochs /
    checkpoints (RBC and VABA run one instance) and ``epoch_times``
    optionally staggers epoch starts in scenario time (default:
    everything fires at t=0) -- the hook that lets the partition-heal
    scenario propose an epoch after the heal.  For ``kind="service"``,
    ``epochs`` counts committee *generations* (so ``epochs - 1``
    rotations) and the open-loop load is configured through scenario
    params (``arrival_rate``, ``requests``, ``slot_interval``,
    ``slots_per_epoch``, ``epoch_seconds``, and ``drift``: comma-joined
    ``E:I:W`` stake changes in place of the derived schedule).
    """

    payload_size: int = 32
    epochs: int = 1
    epoch_times: tuple[float, ...] = ()
    kind: str = "batch"

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; one of {WORKLOAD_KINDS}"
            )
        if self.payload_size < 1:
            raise ValueError("payload_size must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.epoch_times and len(self.epoch_times) != self.epochs:
            raise ValueError("epoch_times must have one entry per epoch")

    def start_time(self, epoch: int) -> float:
        return self.epoch_times[epoch] if self.epoch_times else 0.0


#: protocols the harness knows how to drive
PROTOCOLS = ("rbc", "smr", "vaba", "checkpoint")


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, executable scenario description."""

    name: str
    protocol: str
    weights: WeightSpec
    f_w: str = "1/3"
    faults: FaultSpec = field(default_factory=FaultSpec)
    net: NetSpec = field(default_factory=NetSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    seed: int = 0
    #: free-form protocol options (e.g. checkpoint mode, or ``quorums``:
    #: ``weighted`` / ``nominal`` for rbc and smr); values are JSON scalars
    params: tuple[tuple[str, object], ...] = ()
    description: str = ""
    #: optional chaos plan: staged fault timeline, ambient network
    #: weather, and the liveness watchdog (see :mod:`repro.chaos`)
    chaos: Optional[ChaosSpec] = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; one of {PROTOCOLS}")

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "weights": {
                "kind": self.weights.kind,
                "n": self.weights.n,
                "total": self.weights.total,
                "skew": self.weights.skew,
                "chain": self.weights.chain,
                "values": list(self.weights.values),
            },
            "f_w": self.f_w,
            # "byzantine" is serialized only when non-empty, so crash-only
            # specs (and their golden records) keep their historical encoding
            "faults": {
                "crashes": list(self.faults.crashes),
                "partition": [list(g) for g in self.faults.partition],
                "heal_at": self.faults.heal_at,
                "link_delays": [list(d) for d in self.faults.link_delays],
                **(
                    {
                        "byzantine": [
                            {"strategy": b.strategy, "params": [list(p) for p in b.params]}
                            for b in self.faults.byzantine
                        ]
                    }
                    if self.faults.byzantine
                    else {}
                ),
                # "restarts" likewise serialized only when non-empty, so
                # pre-recovery specs keep their historical encoding
                **(
                    {"restarts": [list(r) for r in self.faults.restarts]}
                    if self.faults.restarts
                    else {}
                ),
            },
            "net": {"delay_low": self.net.delay_low, "delay_high": self.net.delay_high},
            # "kind" is serialized only when non-default, so batch specs
            # (and their golden records) keep their historical encoding
            "workload": {
                "payload_size": self.workload.payload_size,
                "epochs": self.workload.epochs,
                "epoch_times": list(self.workload.epoch_times),
                **(
                    {"kind": self.workload.kind}
                    if self.workload.kind != "batch"
                    else {}
                ),
            },
            "seed": self.seed,
            "params": [list(p) for p in self.params],
            "description": self.description,
            # "chaos" is serialized only when present, so chaos-free specs
            # (and their golden records) keep their historical encoding
            **({"chaos": self.chaos.to_dict()} if self.chaos is not None else {}),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        w = data["weights"]
        f = data.get("faults", {})
        n = data.get("net", {})
        wl = data.get("workload", {})
        return cls(
            name=data["name"],
            protocol=data["protocol"],
            weights=WeightSpec(
                kind=w["kind"],
                n=w.get("n", 0),
                total=w.get("total", 0),
                skew=w.get("skew", 1.0),
                chain=w.get("chain", ""),
                values=tuple(w.get("values", ())),
            ),
            f_w=data.get("f_w", "1/3"),
            faults=FaultSpec(
                crashes=tuple(f.get("crashes", ())),
                partition=tuple(tuple(g) for g in f.get("partition", ())),
                heal_at=f.get("heal_at"),
                link_delays=tuple(tuple(d) for d in f.get("link_delays", ())),
                byzantine=tuple(
                    ByzantineSpec(
                        strategy=b["strategy"],
                        params=tuple((k, v) for k, v in b.get("params", ())),
                    )
                    for b in f.get("byzantine", ())
                ),
                restarts=tuple(
                    (int(r[0]), float(r[1]), float(r[2]))
                    for r in f.get("restarts", ())
                ),
            ),
            net=NetSpec(
                delay_low=n.get("delay_low", 0.01),
                delay_high=n.get("delay_high", 0.1),
            ),
            workload=WorkloadSpec(
                payload_size=wl.get("payload_size", 32),
                epochs=wl.get("epochs", 1),
                epoch_times=tuple(wl.get("epoch_times", ())),
                kind=wl.get("kind", "batch"),
            ),
            seed=data.get("seed", 0),
            params=tuple((k, v) for k, v in data.get("params", ())),
            description=data.get("description", ""),
            chaos=(
                ChaosSpec.from_dict(data["chaos"]) if "chaos" in data else None
            ),
        )
