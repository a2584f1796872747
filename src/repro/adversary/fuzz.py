"""Seed-replayable fuzz campaigns over committees, strategies, and
protocol mixes.

A campaign runs ``episodes`` independently sampled episodes from one
seeded RNG.  Most episodes execute a randomized :class:`ScenarioSpec`
(random committee distribution, protocol, and Byzantine strategy) and
check every safety invariant on the emitted record
(:mod:`repro.adversary.invariants`); the rest are direct probes against
the crypto and coding engines' Byzantine branches -- forged DLEQ-share
batches, Reed-Solomon error-decoder floods, and beacon-unpredictability
checks that no scenario driver reaches.

Every violation is persisted as a **one-line replay spec** -- a JSON
object carrying the campaign seed, episode index, and the fully resolved
scenario/probe parameters -- and :func:`replay_episode` re-runs it.  On
the sim backend the replayed record is byte-identical to the original
(the episode embeds everything the run depends on), which is what makes
a campaign failure a unit test and not an anecdote.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from ..scenarios.spec import ByzantineSpec, FaultSpec, ScenarioSpec, WeightSpec, WorkloadSpec
from .invariants import check_record
from .strategies import STRATEGIES

__all__ = [
    "FuzzConfig",
    "EpisodeOutcome",
    "CampaignResult",
    "build_episode",
    "run_episode",
    "replay_episode",
    "run_campaign",
    "run_dleq_probe",
    "run_rs_probe",
    "run_coin_probe",
]

#: probe kinds mixed into a campaign alongside scenario episodes
PROBE_KINDS = ("dleq-forge", "rs-error-flood", "coin-unpredictability")

#: strategies the scenario sampler draws from (None = fault-free control)
DEFAULT_STRATEGIES = (
    None,
    "equivocate",
    "garble-echo",
    "pivot-delay",
    "adaptive-corrupt",
    "share-flood",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign shape; every episode is a pure function of
    ``(seed, index)`` and these fields."""

    episodes: int = 50
    seed: int = 0
    backend: str = "sim"
    protocols: tuple[str, ...] = ("rbc", "smr", "checkpoint")
    strategies: tuple[Optional[str], ...] = DEFAULT_STRATEGIES
    include_probes: bool = True
    include_service: bool = True
    include_chaos: bool = True
    timeout: float = 30.0

    def __post_init__(self) -> None:
        # Zero episodes is a legal (empty) campaign; a negative count
        # would run nothing and pass as clean.
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class EpisodeOutcome:
    """What one episode produced."""

    episode: dict
    violations: list[str] = field(default_factory=list)
    record: Optional[dict] = None
    skipped: bool = False  # infeasible sample (budget/feasibility reject)

    @property
    def replay_spec(self) -> dict:
        """The one-line JSON replay spec for this episode."""
        return {**self.episode, "violations": list(self.violations)}


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign."""

    config: FuzzConfig
    outcomes: list[EpisodeOutcome]

    @property
    def checked(self) -> int:
        return sum(1 for o in self.outcomes if not o.skipped)

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.skipped)

    @property
    def failures(self) -> list[dict]:
        return [o.replay_spec for o in self.outcomes if o.violations]

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            key = o.episode["kind"]
            if o.episode.get("strategy"):
                key = f"{key}:{o.episode['strategy']}"
            elif (o.episode.get("scenario") or {}).get("faults", {}).get("restarts"):
                key = f"{key}:crash-restart"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        return {
            "episodes": len(self.outcomes),
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": len(self.failures),
            "by_kind": self.by_kind(),
            "seed": self.config.seed,
            "backend": self.config.backend,
        }

    def write_failures(self, path) -> int:
        """Persist replay specs one JSON line each; returns the count."""
        lines = [json.dumps(f, sort_keys=True) for f in self.failures]
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)


# -- episode sampling ------------------------------------------------------------------


def _sample_weights(rng: random.Random) -> WeightSpec:
    kind = rng.choice(("zipf", "uniform", "exponential", "explicit"))
    n = rng.randint(4, 9)
    if kind == "explicit":
        return WeightSpec(
            kind="explicit", values=tuple(rng.randint(1, 40) for _ in range(n))
        )
    return WeightSpec(
        kind=kind, n=n, total=n * rng.randint(20, 60), skew=1.0 + rng.random()
    )


def _sample_crash(weights: WeightSpec, seed: int, rng: random.Random) -> tuple[int, ...]:
    """Maybe crash the lightest party, staying strictly under the 1/3
    weight budget (shared with the -- empty -- corruption set)."""
    if rng.random() > 0.3:
        return ()
    values = weights.materialize(seed)
    lightest = min(range(len(values)), key=lambda i: (values[i], i))
    if Fraction(values[lightest], sum(values)) < Fraction(1, 3):
        return (lightest,)
    return ()


def _sample_restart(
    weights: WeightSpec, seed: int, rng: random.Random
) -> tuple[tuple[int, float, float], ...]:
    """Maybe crash-restart the lightest party: down from ``crash_at`` to
    ``restart_at`` (scenario seconds), then a WAL-replay + state-sync
    rejoin.  Same 1/3 weight-budget guard as permanent crashes -- the
    party counts against the budget while it is down."""
    if rng.random() > 0.3:
        return ()
    values = weights.materialize(seed)
    lightest = min(range(len(values)), key=lambda i: (values[i], i))
    if Fraction(values[lightest], sum(values)) >= Fraction(1, 3):
        return ()
    crash_at = round(rng.uniform(0.05, 0.3), 3)
    restart_at = round(crash_at + rng.uniform(0.3, 0.7), 3)
    return ((lightest, crash_at, restart_at),)


def _sample_scenario(config: FuzzConfig, index: int, rng: random.Random) -> dict:
    protocol = rng.choice(list(config.protocols))
    compatible = [
        s
        for s in config.strategies
        if s is None or protocol in STRATEGIES[s].protocols
    ]
    strategy = rng.choice(compatible) if compatible else None
    weights = _sample_weights(rng)
    spec_seed = rng.getrandbits(32)
    # Crash-restart episodes ride the fault-free SMR path (only the SMR
    # driver builds recoverable parties); a restarted party displaces the
    # permanent-crash sample so the two never fight over the budget.
    restarts = (
        _sample_restart(weights, spec_seed, rng)
        if strategy is None and protocol == "smr"
        else ()
    )
    faults = FaultSpec(
        byzantine=(ByzantineSpec(strategy),) if strategy else (),
        crashes=(
            _sample_crash(weights, spec_seed, rng)
            if strategy is None and not restarts
            else ()
        ),
        restarts=restarts,
    )
    params: tuple[tuple[str, object], ...] = ()
    epochs = 1
    if protocol == "checkpoint" and strategy != "share-flood" and rng.random() < 0.25:
        params = (("mode", "tight"), ("beta", "1/2"))
    if protocol in ("smr", "checkpoint"):
        epochs = rng.randint(1, 2)
    spec = ScenarioSpec(
        name=f"fuzz-{index}",
        protocol=protocol,
        weights=weights,
        faults=faults,
        workload=WorkloadSpec(payload_size=rng.choice((16, 32, 64)), epochs=epochs),
        seed=spec_seed,
        params=params,
    )
    return {
        "kind": "scenario",
        "backend": config.backend,
        "strategy": strategy,
        "scenario": spec.to_dict(),
    }


def _sample_service(config: FuzzConfig, index: int, rng: random.Random) -> dict:
    n = rng.randint(4, 6)
    strategy = rng.choice(("bad-handover", "bad-handover", None))
    spec = ScenarioSpec(
        name=f"fuzz-{index}",
        protocol="smr",
        weights=WeightSpec(kind="zipf", n=n, total=n * 100, skew=1.2),
        faults=FaultSpec(
            byzantine=(ByzantineSpec(strategy),) if strategy else ()
        ),
        workload=WorkloadSpec(
            payload_size=rng.choice((16, 32)),
            epochs=rng.randint(2, 3),
            kind="service",
        ),
        seed=rng.getrandbits(32),
        params=(
            ("arrival_rate", float(rng.randint(40, 80))),
            ("requests", rng.randint(12, 24)),
            ("slot_interval", 0.05),
            ("slots_per_epoch", rng.randint(2, 3)),
        ),
    )
    return {
        "kind": "service",
        "backend": config.backend,
        "strategy": strategy,
        "scenario": spec.to_dict(),
    }


def _sample_chaos(config: FuzzConfig, index: int, rng: random.Random) -> dict:
    """A staged chaos timeline over SMR: partition at t=0, heal, and a
    second epoch scheduled strictly after the heal, optionally with a
    staged corruption and ambient weather (duplication/reordering/jitter
    only -- loss would void the liveness claim the invariants check)."""
    from ..chaos.schedule import ChaosSpec, ChaosStage, TriggerSpec
    from ..chaos.weather import WeatherSpec

    weights = _sample_weights(rng)
    spec_seed = rng.getrandbits(32)
    n = weights.n or len(weights.values)
    pids = list(range(n))
    rng.shuffle(pids)
    cut = rng.randint(1, n - 1)
    groups = (tuple(sorted(pids[:cut])), tuple(sorted(pids[cut:])))
    heal_at = round(rng.uniform(0.25, 0.4), 3)
    epoch1_at = round(heal_at + rng.uniform(0.1, 0.2), 3)
    stages = [
        ChaosStage(
            action="partition",
            trigger=TriggerSpec(kind="time", value=0.0),
            params=(("groups", groups),),
        ),
        ChaosStage(action="heal", trigger=TriggerSpec(kind="time", value=heal_at)),
    ]
    strategy = None
    if rng.random() < 0.4:
        strategy = "adaptive-corrupt"
        stages.append(
            ChaosStage(
                action="byzantine",
                trigger=TriggerSpec(
                    kind="time", value=round(heal_at + 0.05, 3)
                ),
                params=(("strategy", strategy),),
            )
        )
    weather = None
    if rng.random() < 0.5:
        weather = WeatherSpec(
            duplicate=round(rng.uniform(0.05, 0.2), 3),
            reorder=round(rng.uniform(0.1, 0.3), 3),
            jitter=0.02,
        )
    spec = ScenarioSpec(
        name=f"fuzz-{index}",
        protocol="smr",
        weights=weights,
        workload=WorkloadSpec(
            payload_size=rng.choice((16, 32)),
            epochs=2,
            epoch_times=(0.0, epoch1_at),
        ),
        seed=spec_seed,
        chaos=ChaosSpec(stages=tuple(stages), weather=weather),
    )
    return {
        "kind": "chaos",
        "backend": config.backend,
        "strategy": strategy,
        "scenario": spec.to_dict(),
    }


def build_episode(config: FuzzConfig, index: int) -> dict:
    """The fully resolved episode ``index`` of a campaign: a replay spec
    minus the outcome.  Pure function of ``(config, index)``."""
    rng = random.Random(f"{config.seed}|episode|{index}")
    roll = rng.random()
    if config.include_probes and roll < 0.25:
        kind = PROBE_KINDS[rng.randrange(len(PROBE_KINDS))]
        episode = {"kind": kind, "probe_seed": rng.getrandbits(32)}
    elif config.include_service and roll < 0.35 and config.backend == "sim":
        episode = _sample_service(config, index, rng)
    elif config.include_chaos and roll < 0.45:
        episode = _sample_chaos(config, index, rng)
    else:
        episode = _sample_scenario(config, index, rng)
    return {"seed": config.seed, "episode": index, **episode}


# -- direct probes ---------------------------------------------------------------------


def run_dleq_probe(probe_seed: int) -> tuple[list[str], dict]:
    """Forged-share flood against the batch DLEQ verifier: every batch
    verdict must equal the per-proof oracle's, for floods including
    all-bad and all-but-one-bad batches."""
    from ..crypto.dleq import _root_challenge, prove_dleq, verify_dleq, verify_dleq_batch
    from ..crypto.dleq import DleqProof
    from ..crypto.group import TEST_GROUP_256 as group

    rng = random.Random(f"dleq|{probe_seed}")
    canon = group.canonical_root
    g1 = group.generator_root
    g2 = canon(group.fast_power(g1, group.random_exponent(rng)))
    n = rng.randint(4, 10)
    n_bad = rng.choice((1, n // 2, n - 1, n))
    bad_positions = set(rng.sample(range(n), n_bad))
    statements = []
    for i in range(n):
        x = group.random_exponent(rng)
        y1, y2, proof = prove_dleq(group, x, g1, g2, rng)
        if i in bad_positions:
            mode = rng.choice(("forged", "tampered", "stripped", "range"))
            if mode == "forged":
                # Survives every cheap check, dies in the aggregate.
                y2 = canon(group.fast_power(g2, group.random_exponent(rng)))
                a1 = canon(group.fast_power(g1, group.random_exponent(rng)))
                a2 = canon(group.fast_power(g2, group.random_exponent(rng)))
                c = _root_challenge(group, g1, y1, g2, y2, a1, a2)
                proof = DleqProof(c, group.random_exponent(rng), a1, a2)
            elif mode == "tampered":
                y2 = canon(y2 * g2)
            elif mode == "stripped":
                proof = DleqProof(proof.challenge, (proof.response + 1) % group.order)
            else:  # the r + q malleability must stay closed
                proof = DleqProof(proof.challenge, proof.response + group.order,
                                  proof.commit1, proof.commit2)
        statements.append((y1, y2, proof))
    verdicts = verify_dleq_batch(group, g1, g2, statements, rng=rng)
    oracle = [verify_dleq(group, g1, y1, g2, y2, pr) for (y1, y2, pr) in statements]
    violations = []
    if verdicts != oracle:
        violations.append(f"dleq: batch verdicts {verdicts} != oracle {oracle}")
    for i in range(n):
        if i in bad_positions and verdicts[i]:
            violations.append(f"dleq: forged statement {i} accepted")
        if i not in bad_positions and not verdicts[i]:
            violations.append(f"dleq: honest statement {i} rejected")
    record = {"kind": "dleq-forge", "n": n, "bad": sorted(bad_positions),
              "verdicts": verdicts}
    return violations, record


def run_rs_probe(probe_seed: int) -> tuple[list[str], dict]:
    """Forged-fragment flood against the RS error decoder: with at most
    ``(m - k) // 2`` corrupted fragment blocks the original payload must
    decode exactly."""
    from ..codes.reed_solomon import ReedSolomon

    rng = random.Random(f"rs|{probe_seed}")
    k = rng.randint(2, 6)
    extra = rng.randint(2, 6)
    m = k + 2 * extra
    rs = ReedSolomon(k, m)
    payload = bytes(rng.randrange(256) for _ in range(rng.randint(2 * k, 160)))
    systematic = rng.random() < 0.5
    fragments = rs.encode_blocks(payload, systematic=systematic)
    n_bad = rng.randint(1, extra)
    bad = rng.sample(range(m), n_bad)
    received = []
    for idx, block in enumerate(fragments):
        if idx in bad:
            forged = bytes(rng.randrange(256) for _ in range(len(block)))
            if forged == block:  # ensure the corruption is real
                forged = bytes((forged[0] ^ 1,)) + forged[1:]
            block = forged
        received.append((idx, block))
    decoded = rs.decode_errors_blocks(received, len(payload), systematic=systematic)
    violations = []
    if decoded != payload:
        violations.append(
            f"rs: decode with {n_bad} forged fragments (budget {extra}) "
            "did not return the original payload"
        )
    record = {"kind": "rs-error-flood", "k": k, "m": m, "bad": sorted(bad),
              "systematic": systematic, "ok": decoded == payload}
    return violations, record


def run_coin_probe(probe_seed: int) -> tuple[list[str], dict]:
    """Beacon unpredictability: a coalition strictly under the ``f_w``
    weight budget must control fewer virtual signers than the coin
    threshold, while the honest complement both opens the coin and opens
    it to the unique value."""
    from ..crypto.common_coin import WeightedCoin
    from ..crypto.group import TEST_GROUP_256 as group
    from ..sim.adversary import heaviest_under
    from ..weighted.transform import blunt_setup

    rng = random.Random(f"coin|{probe_seed}")
    n = rng.randint(4, 8)
    weights = [rng.randint(1, 50) for _ in range(n)]
    setup = blunt_setup(weights, "1/3", "1/2")
    coin = WeightedCoin(group, setup.vmap.tickets, "1/2", rng)
    corrupt = sorted(heaviest_under(weights, Fraction(1, 3)))
    honest = [i for i in range(n) if i not in corrupt]
    violations = []
    if corrupt and coin.coalition_can_open(corrupt):
        violations.append(
            f"coin: corrupt coalition {corrupt} under the 1/3 budget can "
            "open the beacon alone (predictability)"
        )
    if not coin.coalition_can_open(honest):
        violations.append("coin: honest complement cannot open the beacon")
    else:
        opened_honest = coin.open_with_parties(honest, 0, rng)
        opened_all = coin.open_with_parties(list(range(n)), 0, rng)
        if opened_honest != opened_all:
            violations.append("coin: opened value depends on the coalition")
    record = {"kind": "coin-unpredictability", "weights": weights,
              "corrupt": corrupt, "threshold": coin.threshold,
              "total_shares": coin.total_shares}
    return violations, record


_PROBES: dict[str, Callable[[int], tuple[list[str], dict]]] = {
    "dleq-forge": run_dleq_probe,
    "rs-error-flood": run_rs_probe,
    "coin-unpredictability": run_coin_probe,
}


# -- execution -------------------------------------------------------------------------


def run_episode(episode: dict, *, timeout: float = 30.0) -> EpisodeOutcome:
    """Execute one episode (freshly sampled or replayed) and check it."""
    from ..api.committee import CommitteeValidationError
    from ..scenarios.harness import run_scenario

    kind = episode["kind"]
    if kind in _PROBES:
        violations, record = _PROBES[kind](episode["probe_seed"])
        return EpisodeOutcome(episode=episode, violations=violations, record=record)
    spec = ScenarioSpec.from_dict(episode["scenario"])
    try:
        result = run_scenario(
            spec, backend=episode.get("backend", "sim"), timeout=timeout
        )
    except CommitteeValidationError:
        return EpisodeOutcome(episode=episode, skipped=True)
    except TimeoutError:
        return EpisodeOutcome(
            episode=episode,
            violations=["liveness: run timed out on a runtime backend"],
        )
    record = result.record()
    return EpisodeOutcome(
        episode=episode, violations=check_record(spec, record), record=record
    )


def replay_episode(replay_spec: dict, *, timeout: float = 30.0) -> EpisodeOutcome:
    """Re-run a persisted replay spec byte-identically (sim backend: the
    record, not just the verdict, reproduces)."""
    episode = {k: v for k, v in replay_spec.items() if k != "violations"}
    return run_episode(episode, timeout=timeout)


def _campaign_episode(config: FuzzConfig, index: int) -> EpisodeOutcome:
    """One campaign step as a pure function of ``(config, index)`` -- the
    unit the parallel executor fans out.  All randomness comes from
    ``build_episode``'s ``f"{config.seed}|episode|{index}"`` stream, so a
    worker process needs nothing but this tuple."""
    return run_episode(build_episode(config, index), timeout=config.timeout)


def run_campaign(
    config: FuzzConfig,
    *,
    jobs: Union[int, str] = 1,
    progress: Optional[Callable[[int, EpisodeOutcome], None]] = None,
) -> CampaignResult:
    """Run the whole campaign; never raises on a violation -- violations
    are data (replay specs) in the result.

    ``jobs`` fans episodes out over worker processes (``"auto"`` = one
    per core); outcomes are merged in episode order, so the result --
    summary, failures, every record -- is byte-identical to ``jobs=1``.
    """
    import functools

    from ..parallel.executor import ParallelExecutor

    outcomes = ParallelExecutor(jobs).map(
        functools.partial(_campaign_episode, config),
        range(config.episodes),
        progress=progress,
    )
    return CampaignResult(config=config, outcomes=outcomes)
