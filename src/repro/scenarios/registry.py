"""Built-in named scenarios: the regimes the paper evaluates, as specs.

Every scenario here completes on the sim backend (CI smoke-runs the full
registry), and every batch scenario additionally runs on the live
in-process runtime (and, proc-marked, on the process-per-party mesh) with
decided values agreeing with the sim -- the cross-backend acceptance bar
``tests/scenarios/test_differential.py`` sweeps.
"""

from __future__ import annotations

from ..chaos.schedule import ChaosSpec, ChaosStage, TriggerSpec
from ..chaos.weather import WeatherSpec
from .spec import ByzantineSpec, FaultSpec, NetSpec, ScenarioSpec, WeightSpec, WorkloadSpec

__all__ = ["SCENARIOS", "get_scenario", "scenario_names"]

#: the paper's running-example stake vector (skewed, n=8, W=100)
_STAKE = (40, 25, 15, 10, 5, 3, 1, 1)

_ALL = [
    ScenarioSpec(
        name="uniform-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="constant", n=8, total=800),
        description="egalitarian weights (nominal model in disguise), Bracha RBC",
    ),
    ScenarioSpec(
        name="zipf-stake-smr",
        protocol="smr",
        weights=WeightSpec(kind="zipf", n=10, total=1000, skew=1.2),
        workload=WorkloadSpec(payload_size=64, epochs=1),
        description="Zipf(1.2) stake, one composed SMR epoch",
    ),
    ScenarioSpec(
        name="real-chain-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="chain", chain="aptos", n=12),
        description="heaviest 12 validators of the calibrated Aptos snapshot",
    ),
    ScenarioSpec(
        name="crash-f-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(crashes=(4, 5, 6, 7)),
        description="crash the four lightest parties (weight 10 < f_w*W)",
    ),
    ScenarioSpec(
        name="partition-heal-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=(30, 25, 20, 10, 5, 5, 3, 2)),
        faults=FaultSpec(partition=((0, 1, 2, 3), (4, 5, 6, 7)), heal_at=0.15),
        workload=WorkloadSpec(payload_size=32, epochs=2, epoch_times=(0.0, 0.3)),
        description="partition during epoch 0, heal, epoch 1 commits everywhere",
    ),
    ScenarioSpec(
        name="link-delay-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="uniform", n=8, total=400),
        faults=FaultSpec(
            link_delays=((0, 5, 0.12), (5, 0, 0.12), (1, 5, 0.12), (2, 5, 0.12))
        ),
        description="slow links to one party; asynchrony, not omission",
    ),
    ScenarioSpec(
        name="large-batch-smr",
        protocol="smr",
        weights=WeightSpec(kind="exponential", n=7, total=700),
        workload=WorkloadSpec(payload_size=4096, epochs=2),
        description="4 KiB batches over two epochs (byte-metric stressor)",
    ),
    ScenarioSpec(
        name="skewed-quorum-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="explicit", values=(55, 20, 10, 5, 4, 3, 2, 1)),
        description="one party holds a majority of weight; quorums stay sound",
    ),
    ScenarioSpec(
        name="vaba-blackbox",
        protocol="vaba",
        # Moderate skew so WR(1/4, 1/3) yields several virtual users and
        # zero-ticket parties exercise the Section 4.4 vouching output rule.
        weights=WeightSpec(kind="explicit", values=(18, 15, 12, 11, 10, 9, 9, 8, 5, 3)),
        params=(("f_n", "1/3"), ("epsilon", "1/12")),
        description="black-box weighted VABA among WR(1/4, 1/3) virtual users",
    ),
    ScenarioSpec(
        name="checkpoint-tight",
        protocol="checkpoint",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        params=(("mode", "tight"), ("beta", "1/2")),
        description="tight threshold-signed checkpoint (one extra vote round)",
    ),
    ScenarioSpec(
        name="epoch-service",
        protocol="smr",
        weights=WeightSpec(kind="zipf", n=6, total=600, skew=1.2),
        workload=WorkloadSpec(payload_size=32, epochs=3, kind="service"),
        params=(
            ("arrival_rate", 60.0),
            ("requests", 36),
            ("slot_interval", 0.05),
            ("slots_per_epoch", 3),
        ),
        description="open-loop load over 3 committee generations with "
        "checkpoint handover and incremental re-solves",
    ),
    ScenarioSpec(
        name="crash-restart-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(restarts=((2, 0.2, 1.0),)),
        workload=WorkloadSpec(payload_size=32, epochs=2),
        description="party 2 crashes mid-run, restarts from its WAL, and "
        "rejoins via state sync; every log still commits gap-free",
    ),
    ScenarioSpec(
        name="crash-restart-mixed-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(crashes=(7,), restarts=((4, 0.1, 0.8),)),
        workload=WorkloadSpec(payload_size=32, epochs=2),
        description="a permanent crash plus a crash-restart under one "
        "combined f_w budget; the restarted party recovers, the dead one "
        "stays excluded from completion",
    ),
    # -- adversarial scenarios (all liveness-preserving: the registry bar
    # -- is "completes with one decided value"; the liveness-breaking
    # -- strategies, e.g. an equivocating RBC sender, live in the fuzz
    # -- campaign and the adversary test suite instead)
    ScenarioSpec(
        name="equivocate-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(byzantine=(ByzantineSpec("equivocate"),)),
        description="heaviest affordable proposer equivocates in its own "
        "instance; honest instances still commit everywhere",
    ),
    ScenarioSpec(
        name="garble-rbc",
        protocol="rbc",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(byzantine=(ByzantineSpec("garble-echo"),)),
        description="corrupted parties vote for garbled payloads and "
        "withhold honest echoes; honest weight alone forms the quorums",
    ),
    ScenarioSpec(
        name="pivot-delay-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(byzantine=(ByzantineSpec("pivot-delay"),)),
        description="targeted asynchrony against the pivotal-weight "
        "parties every quorum must intersect",
    ),
    ScenarioSpec(
        name="adaptive-silence-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(byzantine=(ByzantineSpec("adaptive-corrupt"),)),
        description="greedy ticket-maximizing corruption goes silent; "
        "maximal omission under the f_w weight budget",
    ),
    ScenarioSpec(
        name="share-flood-checkpoint",
        protocol="checkpoint",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(byzantine=(ByzantineSpec("share-flood"),)),
        description="corrupted validators flood forged threshold shares "
        "under honest indices; certificates form from honest tickets",
    ),
    # -- chaos scenarios: staged timelines driven by the orchestrator
    ScenarioSpec(
        name="partition-heal-corrupt-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=(30, 25, 20, 10, 5, 5, 3, 2)),
        net=NetSpec(delay_low=0.005, delay_high=0.02),
        workload=WorkloadSpec(payload_size=32, epochs=2, epoch_times=(0.0, 0.45)),
        chaos=ChaosSpec(
            stages=(
                ChaosStage(
                    action="partition",
                    trigger=TriggerSpec(kind="time", value=0.0),
                    params=(("groups", ((0, 1, 2, 3), (4, 5, 6, 7))),),
                ),
                ChaosStage(
                    action="heal",
                    trigger=TriggerSpec(kind="time", value=0.3),
                ),
                ChaosStage(
                    action="byzantine",
                    trigger=TriggerSpec(kind="time", value=0.35),
                    params=(("strategy", "adaptive-corrupt"),),
                ),
            ),
        ),
        description="staged timeline: partition at t=0, heal at 0.3, then "
        "adaptive corruption goes silent; epoch 1 still commits everywhere",
    ),
    ScenarioSpec(
        name="weather-storm-smr",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        workload=WorkloadSpec(payload_size=32, epochs=2),
        chaos=ChaosSpec(
            weather=WeatherSpec(duplicate=0.15, reorder=0.25, jitter=0.03),
        ),
        description="ambient network weather (duplication, reordering, "
        "jitter; no loss) over two SMR epochs; delivery idempotence keeps "
        "every log duplicate-free",
    ),
    ScenarioSpec(
        name="rolling-restart-under-load",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=_STAKE),
        faults=FaultSpec(restarts=((4, 0.2, 0.8), (5, 0.9, 1.5))),
        workload=WorkloadSpec(payload_size=32, epochs=2),
        chaos=ChaosSpec(
            stages=(
                ChaosStage(
                    action="load-surge",
                    trigger=TriggerSpec(kind="time", value=1.8),
                    params=(("epochs", 1),),
                ),
            ),
        ),
        description="two staggered crash-restarts ride under a late "
        "load-surge stage; recovered parties replay their WALs and the "
        "surge epoch commits on every log",
    ),
    ScenarioSpec(
        name="bad-handover-service",
        protocol="smr",
        weights=WeightSpec(kind="zipf", n=6, total=600, skew=1.2),
        faults=FaultSpec(byzantine=(ByzantineSpec("bad-handover"),)),
        workload=WorkloadSpec(payload_size=32, epochs=3, kind="service"),
        params=(
            ("arrival_rate", 60.0),
            ("requests", 36),
            ("slot_interval", 0.05),
            ("slots_per_epoch", 3),
        ),
        description="forged-share floods inside every epoch-rotation "
        "checkpoint handover; rotations still certify",
    ),
]

SCENARIOS: dict[str, ScenarioSpec] = {spec.name: spec for spec in _ALL}

def scenario_names() -> list[str]:
    """Registry names in definition order."""
    return [spec.name for spec in _ALL]


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; options: {scenario_names()}"
        ) from None
