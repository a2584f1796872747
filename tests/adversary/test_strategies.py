"""Adversary construction: budget validation, strategy selection, and
the deterministic corruption-set choices every backend must agree on.

The paper's adversary corrupts *weight*, not node count (Section 1.1):
any party set of combined weight strictly below ``f_w * W`` may be
corrupted, and crashed parties spend the same budget.  These tests pin
that arithmetic and the per-strategy target selection -- the pieces both
backends share before a single message is sent.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.adversary import Adversary, STRATEGIES, alt_payload, weight_split
from repro.adversary.strategies import StrategyContext
from repro.api import Committee, CommitteeValidationError
from repro.chaos import ChaosOrchestrator, ChaosSpec, ChaosStage, TriggerSpec
from repro.runtime.faults import FaultController
from repro.scenarios import (
    SCENARIOS,
    ByzantineSpec,
    FaultSpec,
    ScenarioSpec,
    WeightSpec,
    get_scenario,
    run_scenario,
)
from repro.scenarios.harness import RunContext, build_driver
from repro.sim import SimHost

#: the paper's running-example stake vector (skewed, n=8, W=100)
STAKE = (40, 25, 15, 10, 5, 3, 1, 1)


def _spec(strategy, protocol="smr", weights=STAKE, crashes=()):
    return ScenarioSpec(
        name="adv-test",
        protocol=protocol,
        weights=WeightSpec(kind="explicit", values=weights),
        faults=FaultSpec(
            byzantine=(ByzantineSpec(strategy),) if strategy else (),
            crashes=crashes,
        ),
    )


def _adversary(strategy, protocol="smr", weights=STAKE, crashes=()):
    spec = _spec(strategy, protocol=protocol, weights=weights, crashes=crashes)
    return Adversary(spec, Committee.from_weights(weights))


def _stage(at, action, **params):
    return ChaosStage(
        action=action,
        trigger=TriggerSpec(kind="time", value=at),
        params=tuple(sorted(params.items())),
    )


def _chaos_spec(*stages, faults=FaultSpec()):
    """An SMR run over ``STAKE`` with a chaos plan of ``stages``."""
    return ScenarioSpec(
        name="staged-test",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=STAKE),
        faults=faults,
        chaos=ChaosSpec(stages=stages),
    )


class TestBudget:
    def test_corrupted_weight_strictly_below_f_w(self):
        for name in ("equivocate", "garble-echo", "adaptive-corrupt"):
            adv = _adversary(name)
            assert adv.corrupted_weight < Fraction(1, 3), name
            assert adv.corrupted, name

    def test_combined_crash_and_corrupt_budget_rejected(self):
        # garble-echo corrupts the heaviest affordable set; adding crashes
        # that push the combined weight to f_w * W must be rejected --
        # the budget is shared, not per-fault-type.
        weights = (10, 10, 10, 10, 10, 10)
        adv = _adversary("garble-echo", weights=weights)
        corrupted_w = sum(weights[i] for i in adv.corrupted)
        assert Fraction(corrupted_w, sum(weights)) < Fraction(1, 3)
        crash = min(set(range(6)) - set(adv.corrupted))
        with pytest.raises(CommitteeValidationError):
            _adversary("garble-echo", weights=weights, crashes=(crash,))

    def test_restart_counts_against_the_budget(self):
        # garble-echo corrupts parties 0 and 6 (33 %); party 7 (2 %) is
        # down while it restarts: 35 % at the worst moment of the run.
        spec = ScenarioSpec(
            name="corrupt-and-restart",
            protocol="smr",
            weights=WeightSpec(kind="explicit", values=(30, 25, 20, 10, 5, 5, 3, 2)),
            faults=FaultSpec(
                byzantine=(ByzantineSpec("garble-echo"),),
                restarts=((7, 0.05, 0.3),),
            ),
        )
        with pytest.raises(CommitteeValidationError, match="adversary budget"):
            build_driver(spec)
        # each fault alone fits the budget
        build_driver(replace(spec, faults=replace(spec.faults, restarts=())))
        build_driver(replace(spec, faults=replace(spec.faults, byzantine=())))

    def test_chaos_crash_and_flat_restart_share_the_budget(self):
        # a chaos crash of party 1 (25 %) while party 3 (10 %) restarts
        spec = _chaos_spec(
            _stage(0.1, "crash", pids=(1,)), faults=FaultSpec(restarts=((3, 0.05, 0.3),))
        )
        with pytest.raises(CommitteeValidationError, match="adversary budget"):
            build_driver(spec)
        build_driver(replace(spec, faults=FaultSpec()))

    def test_staged_corruption_and_chaos_crash_share_the_budget(self):
        corrupt = _stage(0.3, "byzantine", strategy="adaptive-corrupt")
        spec = _chaos_spec(corrupt)
        staged = Adversary(spec, Committee.from_weights(STAKE))
        assert staged.corrupted_weight == Fraction(3, 10)  # parties 1, 5, 6, 7
        with pytest.raises(CommitteeValidationError, match="adversary budget"):
            Adversary(
                _chaos_spec(corrupt, _stage(0.1, "crash", pids=(4,))),
                Committee.from_weights(STAKE),
            )

    def test_equivocate_needs_one_affordable_party(self):
        # Egalitarian 3-party committee: every party holds exactly the
        # f_w budget, so no single corruption is affordable.
        with pytest.raises(ValueError, match="fits strictly below"):
            _adversary("equivocate", weights=(1, 1, 1))

    def test_unknown_strategy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown byzantine strategy"):
            _adversary("no-such-strategy")

    def test_protocol_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="does not attack protocol"):
            _adversary("share-flood", protocol="rbc")


class TestSelection:
    def test_equivocate_picks_the_heaviest_affordable_party(self):
        # Party 0 (weight 40) exceeds the budget (100/3); party 1 (25)
        # is the heaviest that fits strictly below it.
        adv = _adversary("equivocate")
        assert adv.corrupted == frozenset({1})

    def test_rbc_sender_override_is_the_equivocator(self):
        adv = _adversary("equivocate", protocol="rbc")
        assert adv.sender_override == min(adv.corrupted)
        assert _adversary("garble-echo", protocol="rbc").sender_override is None

    def test_selection_is_deterministic(self):
        a = _adversary("adaptive-corrupt")
        b = _adversary("adaptive-corrupt")
        assert a.corrupted == b.corrupted
        assert a.describe() == b.describe()

    def test_pivot_delay_spends_no_corruption_budget(self):
        adv = _adversary("pivot-delay")
        assert adv.corrupted == frozenset()
        assert adv.expect_liveness
        strategy = adv.strategies[0]
        # The pivotal prefix's complement must not reach the echo quorum
        # (1 - f_w) * W alone; the prefix is minimal in party count.
        pivotal = strategy.pivotal()
        total = sum(STAKE)
        rest = total - sum(STAKE[p] for p in pivotal)
        assert Fraction(rest, 1) <= (1 - Fraction(1, 3)) * total
        assert pivotal == (0,)

    def test_liveness_expectation_per_strategy(self):
        assert not _adversary("equivocate", protocol="rbc").expect_liveness
        assert _adversary("equivocate", protocol="smr").expect_liveness
        assert _adversary("garble-echo", protocol="rbc").expect_liveness

    def test_describe_is_json_shaped(self):
        import json

        desc = _adversary("garble-echo").describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["strategies"] == ["garble-echo"]
        assert desc["corrupted"] == sorted(desc["corrupted"])


class TestStaged:
    """A chaos ``byzantine`` stage's strategy is chosen and budgeted
    before the run but corrupts only when its stage fires."""

    def test_staged_parties_are_patched_by_activate_only(self):
        spec = _chaos_spec(_stage(0.3, "byzantine", strategy="adaptive-corrupt"))
        driver = build_driver(spec)
        adversary = driver.adversary
        assert adversary.strategies == [] and list(adversary.staged) == [0]
        corrupted = adversary.staged[0].corrupted
        assert corrupted and adversary.corrupted == corrupted

        def silenced(parties):
            # make_silent replaces the instance's receive
            return {nid for nid, party in parties.items() if "receive" in vars(party)}

        parties = {nid: driver.factory(nid) for nid in range(driver.n_nodes)}
        assert silenced(parties) == set()
        ctx = RunContext(
            parties=parties,
            live_nodes=tuple(parties),
            faults=FaultController(),
            host=SimHost(),  # never run: the stage never fires on its own
        )
        orchestrator = ChaosOrchestrator(spec, driver)
        orchestrator.install(ctx)
        adversary.activate(0, orchestrator)
        assert silenced(parties) == corrupted

    def test_describe_has_staged_iff_a_chaos_plan_is_set(self):
        committee = Committee.from_weights(STAKE)
        assert _adversary("garble-echo").describe().keys() == {
            "strategies", "corrupted", "corrupted_weight", "expect_liveness"
        }
        assert Adversary(_chaos_spec(), committee).describe()["staged"] == []
        staged = Adversary(
            _chaos_spec(
                _stage(0.0, "heal"),
                _stage(0.3, "byzantine", strategy="adaptive-corrupt"),
            ),
            committee,
        ).describe()
        assert staged["staged"] == [{"stage": 1, "strategy": "adaptive-corrupt"}]
        assert staged["strategies"] == []

    def test_chaos_plan_joins_the_liveness_claim(self):
        committee = Committee.from_weights(STAKE)
        unhealed = _stage(0.0, "partition", groups=((0, 1, 2, 3), (4, 5, 6, 7)))
        assert not Adversary(_chaos_spec(unhealed), committee).expect_liveness
        healed = _chaos_spec(unhealed, _stage(0.2, "heal"))
        assert Adversary(healed, committee).expect_liveness


#: ``record()["adversary"]`` on sim of every registry scenario that has one
ADVERSARY_RECORDS = {
    "adaptive-silence-smr": {
        "strategies": ["adaptive-corrupt"],
        "corrupted": [1, 5, 6, 7],
        "corrupted_weight": "3/10",
        "expect_liveness": True,
    },
    "bad-handover-service": {
        "strategies": ["bad-handover"],
        "corrupted": [1, 2],
        "corrupted_weight": "49/150",
        "expect_liveness": True,
    },
    "equivocate-smr": {
        "strategies": ["equivocate"],
        "corrupted": [1],
        "corrupted_weight": "1/4",
        "expect_liveness": True,
    },
    "garble-rbc": {
        "strategies": ["garble-echo"],
        "corrupted": [1, 4, 5],
        "corrupted_weight": "33/100",
        "expect_liveness": True,
    },
    "pivot-delay-smr": {
        "strategies": ["pivot-delay"],
        "corrupted": [],
        "corrupted_weight": "0",
        "expect_liveness": True,
    },
    "share-flood-checkpoint": {
        "strategies": ["share-flood"],
        "corrupted": [1, 4, 5],
        "corrupted_weight": "33/100",
        "expect_liveness": True,
    },
    "partition-heal-corrupt-smr": {
        "strategies": [],
        "corrupted": [2, 4, 6, 7],
        "corrupted_weight": "3/10",
        "expect_liveness": True,
        "staged": [{"stage": 2, "strategy": "adaptive-corrupt"}],
    },
    "weather-storm-smr": {
        "strategies": [],
        "corrupted": [],
        "corrupted_weight": "0",
        "expect_liveness": True,
        "staged": [],
    },
    # the restarted parties 4 and 5 count in the budget check, not here
    "rolling-restart-under-load": {
        "strategies": [],
        "corrupted": [],
        "corrupted_weight": "0",
        "expect_liveness": True,
        "staged": [],
    },
}


class TestRegistryRecords:
    def test_every_adversary_scenario_is_pinned(self):
        adversarial = {
            name
            for name, spec in SCENARIOS.items()
            if spec.faults.byzantine or spec.chaos is not None
        }
        assert adversarial == set(ADVERSARY_RECORDS)

    @pytest.mark.parametrize("name", sorted(ADVERSARY_RECORDS))
    def test_adversary_section_on_sim(self, name):
        record = run_scenario(get_scenario(name), backend="sim").record()
        assert record["adversary"] == ADVERSARY_RECORDS[name]


class TestHelpers:
    def test_weight_split_partitions_and_balances(self):
        a, b = weight_split(STAKE, range(len(STAKE)))
        assert sorted(a + b) == list(range(len(STAKE)))
        wa, wb = sum(STAKE[i] for i in a), sum(STAKE[i] for i in b)
        # Greedy balance: the gap never exceeds the heaviest single party.
        assert abs(wa - wb) <= max(STAKE)

    def test_weight_split_is_deterministic(self):
        assert weight_split(STAKE, range(8)) == weight_split(STAKE, range(8))

    def test_alt_payload_differs_and_keeps_length(self):
        for payload in (b"", b"x", b"hello world", bytes(64)):
            alt = alt_payload(payload)
            assert alt != payload
            assert len(alt) == max(len(payload), 1)
        assert alt_payload(b"p", "a") != alt_payload(b"p", "b")

    def test_strategy_registry_covers_every_issue_strategy(self):
        assert set(STRATEGIES) == {
            "equivocate",
            "garble-echo",
            "pivot-delay",
            "adaptive-corrupt",
            "share-flood",
            "bad-handover",
        }

    def test_context_param_lookup(self):
        ctx = StrategyContext(
            committee=None,
            weights=STAKE,
            f_w=Fraction(1, 3),
            protocol="checkpoint",
            seed=7,
            params=(("flood", 3),),
        )
        assert ctx.param("flood") == 3
        assert ctx.param("missing", 9) == 9
        # Tagged RNGs are independent streams of one seed.
        assert ctx.rng("a").random() != ctx.rng("b").random()
        assert ctx.rng("a").random() == ctx.rng("a").random()
