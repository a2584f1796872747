"""Weight-aware Byzantine strategies and the :class:`Adversary` that
applies them to a scenario run.

The paper's adversary corrupts any party set holding *weight* strictly
below ``f_w * W`` (Section 1.1) -- not a count of nodes.  Every strategy
here spends that budget differently:

* ``equivocate`` -- the heaviest corruptible party equivocates in its
  own broadcast instance (two conflicting payloads to two weight-halves).
* ``garble-echo`` -- corrupted parties vote for garbled payloads and
  withhold honest echoes/readies, attacking the content-keyed vote maps.
* ``pivot-delay`` -- no corruption: targeted asynchrony against the
  *pivotal-weight* parties every quorum must intersect.
* ``adaptive-corrupt`` -- greedy budget spend for maximum captured
  tickets (the worst case for a weight reduction); corrupted parties go
  silent.
* ``share-flood`` -- corrupted checkpoint validators flood forged
  threshold-signature shares under honest signer indices and withhold
  their own, stressing the batch verifier's bisection path and the
  collector's content-keyed liveness property.
* ``bad-handover`` -- the service-workload analogue of ``share-flood``:
  the flood fires inside every epoch-rotation checkpoint handover.

Strategies are selected by :class:`~repro.scenarios.spec.ByzantineSpec`
entries in a fault plan or by a chaos plan's ``byzantine`` stages, and
materialize deterministically from the committee weights and the
scenario seed, so one spec entry is the same attack on the sim and the
live runtime.  One :class:`Adversary` holds both kinds and checks the
run's whole weight budget once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ..core.types import as_fraction
from ..sim.adversary import corrupt_weight_fraction, heaviest_under, most_tickets_under
from . import byzantine

__all__ = ["STRATEGIES", "Strategy", "StrategyContext", "Adversary", "weight_split"]


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy sees when choosing its corruption set and
    configuring corrupted parties."""

    committee: object
    weights: tuple[int, ...]
    f_w: Fraction
    protocol: str
    seed: int
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}|{tag}")


def weight_split(
    weights: Sequence[int], pids: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Partition ``pids`` into two weight-balanced halves (greedy,
    deterministic): the equivocation targets."""
    a: list[int] = []
    b: list[int] = []
    wa = wb = 0
    for pid in sorted(pids, key=lambda i: (-weights[i], i)):
        if wa <= wb:
            a.append(pid)
            wa += weights[pid]
        else:
            b.append(pid)
            wb += weights[pid]
    return tuple(sorted(a)), tuple(sorted(b))


class Strategy:
    """One Byzantine strategy: who to corrupt and how they misbehave."""

    name: str = ""
    #: protocols this strategy knows how to attack
    protocols: frozenset[str] = frozenset()

    def __init__(self, ctx: StrategyContext) -> None:
        if ctx.protocol not in self.protocols:
            raise ValueError(
                f"strategy {self.name!r} does not attack protocol "
                f"{ctx.protocol!r} (supported: {sorted(self.protocols)})"
            )
        self.ctx = ctx
        self.corrupted = self.select_corrupted(ctx)

    def keeps_liveness(self) -> bool:
        """Whether honest parties still terminate under this strategy."""
        return True

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        return frozenset()

    def install_network_faults(self, faults, map_pid) -> None:
        """Hook for message-scheduling attacks (shared FaultController)."""

    def corrupt_party(self, party, pid: int) -> None:
        """Rewrite a corrupted party's behavior (instance patching)."""


class EquivocateStrategy(Strategy):
    """The heaviest party the budget can afford equivocates in its own
    broadcast instance.  RBC with a Byzantine designated sender has no
    liveness guarantee (honest parties may deliver nothing); SMR keeps
    liveness for every honest proposer's instance."""

    name = "equivocate"
    protocols = frozenset({"rbc", "smr"})

    def keeps_liveness(self) -> bool:
        return self.ctx.protocol != "rbc"

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        weights = ctx.weights
        budget = ctx.f_w * sum(weights)
        affordable = [i for i in range(len(weights)) if weights[i] < budget]
        if not affordable:
            raise ValueError(
                "equivocate: no single party's weight fits strictly below "
                f"the f_w={ctx.f_w} budget"
            )
        pid = max(affordable, key=lambda i: (weights[i], -i))
        return frozenset({pid})

    def corrupt_party(self, party, pid: int) -> None:
        groups = weight_split(self.ctx.weights, range(len(self.ctx.weights)))
        byzantine.make_equivocator(party, groups)


class GarbleEchoStrategy(Strategy):
    """Corrupted parties echo garbled payloads and withhold their honest
    votes; honest quorums must form from honest weight alone (which they
    can: honest weight stays strictly above ``(1 - f_w) W``)."""

    name = "garble-echo"
    protocols = frozenset({"rbc", "smr"})

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        return frozenset(heaviest_under(ctx.weights, ctx.f_w))

    def corrupt_party(self, party, pid: int) -> None:
        byzantine.make_garbler(party)


class PivotDelayStrategy(Strategy):
    """Targeted asynchrony: delay every link touching the pivotal-weight
    parties -- the smallest heavy prefix whose complement cannot form an
    echo/deliver quorum alone, so every quorum must wait for a delayed
    member.  A pure network adversary (no corruption budget spent);
    asynchronous safety and liveness must both survive."""

    name = "pivot-delay"
    protocols = frozenset({"rbc", "smr", "checkpoint"})

    def pivotal(self) -> tuple[int, ...]:
        weights = self.ctx.weights
        total = sum(weights)
        bound = (1 - self.ctx.f_w) * total
        chosen: list[int] = []
        remaining = total
        for pid in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
            if remaining <= bound:
                break
            chosen.append(pid)
            remaining -= weights[pid]
        return tuple(sorted(chosen))

    def install_network_faults(self, faults, map_pid) -> None:
        delay = float(self.ctx.param("delay", 0.05))
        n = len(self.ctx.weights)
        targets = {nid for pid in self.pivotal() for nid in map_pid(pid)}
        others = {nid for pid in range(n) for nid in map_pid(pid)} - targets
        for t in targets:
            for o in others:
                faults.delay_link(o, t, delay)
                faults.delay_link(t, o, delay)


class AdaptiveCorruptStrategy(Strategy):
    """Greedy adaptive corruption: spend the weight budget on the parties
    carrying the most tickets per unit weight (the most damaging set
    against a weight reduction), then go silent -- a maximal omission
    attack that must not break honest liveness."""

    name = "adaptive-corrupt"
    protocols = frozenset({"rbc", "smr", "checkpoint"})

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        from ..core.problems import WeightRestriction

        try:
            tickets = ctx.committee.solve(
                WeightRestriction(ctx.f_w, Fraction(1, 2))
            ).assignment
            return frozenset(most_tickets_under(ctx.weights, tickets, ctx.f_w))
        except ValueError:
            return frozenset(heaviest_under(ctx.weights, ctx.f_w))

    def corrupt_party(self, party, pid: int) -> None:
        byzantine.make_silent(party)


class ShareFloodStrategy(Strategy):
    """Corrupted checkpoint validators flood forged shares under honest
    signer indices (forged to pass every cheap per-item check and die in
    the aggregate, forcing the bisection) while withholding their own
    honest shares.  Honest parties hold at least ``ceil(T/2)`` tickets
    under WR(f_w, 1/2), so certificates must still form."""

    name = "share-flood"
    protocols = frozenset({"checkpoint"})

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        return frozenset(heaviest_under(ctx.weights, ctx.f_w))

    def corrupt_party(self, party, pid: int) -> None:
        honest = [
            vid + 1
            for p in range(len(self.ctx.weights))
            if p not in self.corrupted
            for vid in party.vmap.virtual_ids(p)
        ]
        if not honest:
            return
        byzantine.make_share_flooder(
            party,
            honest_indices=honest,
            rng=self.ctx.rng(f"flood|{pid}"),
            flood=int(self.ctx.param("flood", 8)),
            withhold=bool(self.ctx.param("withhold", True)),
        )


class BadHandoverStrategy(Strategy):
    """Epoch-rotation attack for service workloads: during every
    checkpoint handover the corrupted validators (re-selected per epoch
    committee) flood forged handover shares and withhold honest ones.
    The blunt WR(f_w, 1/2) handover setup must still certify from honest
    tickets alone, on every rotation."""

    name = "bad-handover"
    protocols = frozenset({"service"})

    def select_corrupted(self, ctx: StrategyContext) -> frozenset[int]:
        return frozenset(heaviest_under(ctx.weights, ctx.f_w))

    def corrupt_epoch(self, weights: Sequence[int]) -> frozenset[int]:
        """The corruption set against one epoch's committee (adaptive:
        re-chosen as stake drifts)."""
        return frozenset(heaviest_under(weights, self.ctx.f_w))

    def corrupt_handover_party(self, party, pid: int, epoch: int, corrupted) -> None:
        honest = [
            vid + 1
            for p in range(party.vmap.n_parties)
            if p not in corrupted
            for vid in party.vmap.virtual_ids(p)
        ]
        if not honest:
            return
        byzantine.make_share_flooder(
            party,
            honest_indices=honest,
            rng=self.ctx.rng(f"handover|{epoch}|{pid}"),
            flood=int(self.ctx.param("flood", 6)),
            withhold=bool(self.ctx.param("withhold", True)),
        )


STRATEGIES: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (
        EquivocateStrategy,
        GarbleEchoStrategy,
        PivotDelayStrategy,
        AdaptiveCorruptStrategy,
        ShareFloodStrategy,
        BadHandoverStrategy,
    )
}


class Adversary:
    """The materialized Byzantine adversary of one scenario run.

    Built from a spec's fault plan against a resolved committee.  The
    flat ``faults.byzantine`` entries (:attr:`strategies`) corrupt at
    party construction: :meth:`wrap_factory` patches their parties
    identically on every backend, and :meth:`install_network_faults`
    puts their message-scheduling attacks on the shared
    :class:`~repro.runtime.faults.FaultController`.  Each chaos
    ``byzantine`` stage's strategy (:attr:`staged`, by stage index) is
    materialized up front -- its corrupted set must be deterministic and
    budget-checked before the run -- but applied only when the stage
    fires (:meth:`activate`).  ``corrupted`` is the merged set: a party
    corrupted later carries no correctness claim for any part of the run.

    One budget check covers everything that can be down or lying at
    once -- corrupted (flat and staged), crashed, crash-restarted and
    chaos-crashed weight must stay strictly below ``f_w * W``.
    ``expect_liveness`` is the conjunction of every strategy's claim and
    the chaos plan's :meth:`~repro.chaos.schedule.ChaosSpec.keeps_liveness`.
    """

    def __init__(self, spec, committee, *, protocol: Optional[str] = None) -> None:
        from ..api.committee import CommitteeValidationError

        protocol = protocol or spec.protocol
        weights = tuple(committee.int_weights)
        f_w = as_fraction(spec.f_w)
        stages = spec.chaos.stages if spec.chaos is not None else ()
        self.spec = spec
        self.committee = committee
        self.protocol = protocol
        self.strategies: list[Strategy] = []
        #: stage index -> materialized (but not yet applied) strategy
        self.staged: dict[int, Strategy] = {}
        entries = [(None, e.strategy, e.params) for e in spec.faults.byzantine] + [
            (index, stage.param("strategy"), stage.param("params", ()))
            for index, stage in enumerate(stages)
            if stage.action == "byzantine"
        ]
        for index, name, params in entries:
            cls = STRATEGIES.get(name)
            if cls is None:
                raise ValueError(
                    f"unknown byzantine strategy {name!r}; "
                    f"options: {sorted(STRATEGIES)}"
                )
            strategy = cls(
                StrategyContext(
                    committee=committee,
                    weights=weights,
                    f_w=f_w,
                    protocol=protocol,
                    seed=spec.seed,
                    params=tuple(params),
                )
            )
            if index is None:
                self.strategies.append(strategy)
            else:
                self.staged[index] = strategy
        everyone = self.strategies + list(self.staged.values())
        self.corrupted: frozenset[int] = frozenset().union(
            *(s.corrupted for s in everyone)
        )
        # The record reports corrupted, crashed and chaos-crashed weight;
        # the check also counts each crash-restarted party, which is down
        # for a window -- the worst moment of the run.
        down = self.corrupted | set(spec.faults.crashes) | {
            pid
            for stage in stages
            if stage.action == "crash"
            for pid in stage.param("pids", ())
        }
        self.corrupted_weight = corrupt_weight_fraction(weights, down)
        worst_set = down | {pid for pid, _, _ in spec.faults.restarts}
        worst = corrupt_weight_fraction(weights, worst_set)
        if worst_set and worst >= f_w:
            raise CommitteeValidationError(
                f"corrupted+crashed+restarting weight {worst} is not "
                f"strictly below the f_w={f_w} adversary budget"
            )
        self.expect_liveness = all(s.keeps_liveness() for s in everyone) and (
            spec.chaos is None or spec.chaos.keeps_liveness()
        )

    @property
    def sender_override(self) -> Optional[int]:
        """The corrupted designated RBC sender, when an equivocation
        strategy wants the sender role."""
        if self.protocol != "rbc":
            return None
        for s in self.strategies:
            if isinstance(s, EquivocateStrategy):
                return min(s.corrupted)
        return None

    def wrap_factory(self, factory: Callable) -> Callable:
        """The driver's party factory with the flat strategies' corruption
        applied (staged ones wait for :meth:`activate`).  Only
        identity-mapped protocols take corruption strategies, so the node
        id *is* the real pid."""

        def corrupted_factory(nid: int):
            party = factory(nid)
            for s in self.strategies:
                if nid in s.corrupted:
                    s.corrupt_party(party, nid)
            return party

        return corrupted_factory

    def install_network_faults(self, faults, map_pid) -> None:
        for s in self.strategies:
            s.install_network_faults(faults, map_pid)

    def activate(self, index: int, orch) -> None:
        """Apply chaos stage ``index``'s staged corruption now (mid-run),
        to the parties the orchestrator's run context hosts."""
        strategy = self.staged[index]
        strategy.install_network_faults(orch.faults, orch.driver.map_pid)
        for pid in sorted(strategy.corrupted):
            for nid in orch.driver.map_pid(pid):
                if orch.in_scope(nid):
                    strategy.corrupt_party(orch.ctx.party(nid), nid)

    def wrap_handover_factory(
        self, factory: Callable, *, weights: Sequence[int], epoch: int
    ) -> Callable:
        """Service-workload hook: corrupt the epoch's checkpoint handover
        parties (bad-handover strategies only)."""
        attackers = [s for s in self.strategies if isinstance(s, BadHandoverStrategy)]
        if not attackers:
            return factory

        def corrupted_factory(pid: int):
            party = factory(pid)
            for s in attackers:
                corrupted = s.corrupt_epoch(weights)
                if pid in corrupted:
                    s.corrupt_handover_party(party, pid, epoch, corrupted)
            return party

        return corrupted_factory

    def describe(self) -> dict:
        """The record section: deterministic, JSON-able; ``staged`` appears
        exactly when the spec has a chaos plan."""
        record: dict = {
            "strategies": [s.name for s in self.strategies],
            "corrupted": sorted(self.corrupted),
            "corrupted_weight": str(self.corrupted_weight),
            "expect_liveness": self.expect_liveness,
        }
        if self.spec.chaos is not None:
            record["staged"] = [
                {"stage": index, "strategy": strategy.name}
                for index, strategy in sorted(self.staged.items())
            ]
        return record
