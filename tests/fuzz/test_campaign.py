"""The fuzz campaign: seeded sampling, invariant checking on every
record, one-line replay specs, and the mutation smoke test.

Three bars are pinned here:

* a healthy campaign over committees x strategies x protocols finds
  nothing (the big one is ``slow``-marked; tier-1 runs a miniature);
* every episode is a pure function of ``(seed, index)`` and a persisted
  replay spec re-runs it byte-identically on the sim backend;
* the campaign is *able* to find bugs: deliberately weakening the RBC
  quorum thresholds makes it report violations whose replay specs
  reproduce the failure deterministically -- a campaign that cannot
  catch a planted bug is just an expensive random number generator.
"""

import json

import pytest

from repro.adversary import (
    CampaignResult,
    FuzzConfig,
    build_episode,
    replay_episode,
    run_campaign,
    run_episode,
)
from repro.adversary.fuzz import (
    PROBE_KINDS,
    run_coin_probe,
    run_dleq_probe,
    run_rs_probe,
)
from repro.weighted.quorum import WeightedQuorums

#: the verified mutation-catching recipe: equivocate-rbc violates
#: agreement on a minority of seeds under the weakened thresholds, so the
#: smoke campaign focuses every episode on that strategy
MUTATION_CONFIG = FuzzConfig(
    episodes=40,
    seed=3,
    protocols=("rbc",),
    strategies=("equivocate",),
    include_probes=False,
    include_service=False,
)


class TestSampling:
    def test_episodes_are_pure_functions_of_seed_and_index(self):
        config = FuzzConfig(episodes=0, seed=42)
        for index in range(30):
            assert build_episode(config, index) == build_episode(config, index)

    def test_distinct_indices_sample_distinct_episodes(self):
        config = FuzzConfig(episodes=0, seed=42)
        episodes = [json.dumps(build_episode(config, i), sort_keys=True)
                    for i in range(30)]
        assert len(set(episodes)) == len(episodes)

    def test_episode_is_one_json_line(self):
        config = FuzzConfig(episodes=0, seed=7)
        for index in range(10):
            line = json.dumps(build_episode(config, index), sort_keys=True)
            assert "\n" not in line
            assert json.loads(line) == build_episode(config, index)

    def test_sampler_covers_the_space(self):
        config = FuzzConfig(episodes=0, seed=0)
        episodes = [build_episode(config, i) for i in range(120)]
        kinds = {e["kind"] for e in episodes}
        assert set(PROBE_KINDS) <= kinds
        assert {"scenario", "service", "chaos"} <= kinds
        strategies = {e.get("strategy") for e in episodes if "strategy" in e}
        assert {"equivocate", "garble-echo", "pivot-delay",
                "adaptive-corrupt", "share-flood", None} <= strategies

    def test_probe_flag_gates_probes(self):
        config = FuzzConfig(episodes=0, seed=0, include_probes=False,
                            include_service=False, include_chaos=False)
        kinds = {build_episode(config, i)["kind"] for i in range(40)}
        assert kinds == {"scenario"}

    def test_chaos_episodes_sample_staged_plans(self):
        config = FuzzConfig(episodes=0, seed=0)
        chaos = [build_episode(config, i) for i in range(120)
                 if build_episode(config, i)["kind"] == "chaos"]
        assert chaos
        for episode in chaos:
            plan = episode["scenario"]["chaos"]
            actions = [s["action"] for s in plan["stages"]]
            # every sampled timeline heals its partition (liveness kept)
            assert actions[:2] == ["partition", "heal"]
            weather = plan.get("weather")
            if weather is not None:
                assert weather.get("loss", 0.0) == 0.0


class TestProbes:
    @pytest.mark.parametrize("seed", range(4))
    def test_dleq_forge_probe_is_clean(self, seed):
        violations, record = run_dleq_probe(seed)
        assert violations == []
        assert record["bad"]  # every draw plants at least one forgery

    @pytest.mark.parametrize("seed", range(4))
    def test_rs_error_flood_probe_is_clean(self, seed):
        violations, record = run_rs_probe(seed)
        assert violations == []
        assert record["ok"]

    @pytest.mark.parametrize("seed", range(4))
    def test_coin_unpredictability_probe_is_clean(self, seed):
        violations, record = run_coin_probe(seed)
        assert violations == []
        assert record["threshold"] <= record["total_shares"]


class TestCampaign:
    def test_miniature_campaign_is_clean(self):
        config = FuzzConfig(episodes=40, seed=1)
        result = run_campaign(config)
        assert result.ok, result.failures
        assert result.checked + result.skipped == 40
        assert result.checked > result.skipped
        summary = result.summary()
        assert summary["violations"] == 0
        assert summary["seed"] == 1

    def test_replay_spec_reproduces_the_record_byte_identically(self):
        config = FuzzConfig(episodes=0, seed=9)
        index = next(
            i for i in range(50)
            if build_episode(config, i)["kind"] == "scenario"
        )
        episode = build_episode(config, index)
        first = run_episode(episode)
        assert not first.skipped
        again = replay_episode(first.replay_spec)
        assert json.dumps(first.record, sort_keys=True) == json.dumps(
            again.record, sort_keys=True
        )

    def test_failures_write_as_one_line_replay_specs(self, tmp_path):
        config = FuzzConfig(episodes=2, seed=1)
        result = run_campaign(config)
        # Synthesize a failure so the persistence path is exercised even
        # on a (correct) clean codebase.
        result.outcomes[0].violations.append("synthetic: planted for test")
        path = tmp_path / "failures.jsonl"
        assert result.write_failures(path) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        spec = json.loads(lines[0])
        assert spec["violations"] == ["synthetic: planted for test"]
        assert spec["seed"] == 1

    @pytest.mark.slow
    def test_two_hundred_episode_campaign_is_clean(self):
        # The acceptance campaign: every record invariant-checked, full
        # kind coverage, zero violations.
        result = run_campaign(FuzzConfig(episodes=200, seed=0))
        assert result.ok, result.failures
        assert result.checked >= 150
        kinds = set(result.by_kind())
        assert any(k.startswith("dleq") for k in kinds)
        assert any(k.startswith("service") for k in kinds)

    @pytest.mark.slow
    def test_campaign_runs_on_the_inproc_backend(self):
        result = run_campaign(
            FuzzConfig(
                episodes=12,
                seed=2,
                backend="inproc",
                include_probes=False,
                include_service=False,
                strategies=(None, "garble-echo", "adaptive-corrupt"),
            )
        )
        assert result.ok, result.failures
        assert result.checked > 0


class TestMutationSmoke:
    """Weaken the RBC quorum thresholds and the campaign must notice.

    Delivery in Bracha RBC gates on a *deliver* quorum of READY messages,
    and readies only form once an *echo* quorum crosses ``(1 - f_w) W``;
    dropping both gates to the f_w ("ready") threshold lets an
    equivocating sender drive disjoint weight-halves to deliver
    conflicting payloads -- the agreement violation the invariants exist
    to catch.  Bracha's tallies read one need for both gates,
    ``echo_need``: the mutant lowers it to ``ready_need``.
    """

    def _weaken(self, monkeypatch):
        honest = WeightedQuorums.__init__

        def weakened(self, *args, **kwargs):
            honest(self, *args, **kwargs)
            object.__setattr__(self, "echo_need", self.ready_need)

        monkeypatch.setattr(WeightedQuorums, "__init__", weakened)

    def test_weakened_quorums_are_caught_and_replay_deterministically(
        self, monkeypatch
    ):
        self._weaken(monkeypatch)
        result = run_campaign(MUTATION_CONFIG)
        assert result.failures, (
            "campaign missed the planted quorum-threshold mutation"
        )
        assert any(
            any(v.startswith("agreement") for v in o.violations)
            for o in result.outcomes
        )
        # Replay the first failure, still under the mutation: same
        # verdicts, byte-identical record.
        first = next(o for o in result.outcomes if o.violations)
        again = replay_episode(first.replay_spec)
        assert again.violations == first.violations
        assert json.dumps(first.record, sort_keys=True) == json.dumps(
            again.record, sort_keys=True
        )

    def test_healthy_thresholds_pass_the_same_campaign(self):
        result = run_campaign(MUTATION_CONFIG)
        assert result.ok, result.failures
        assert result.checked > 0

    def test_campaign_result_aggregates(self):
        outcome_ok = run_episode(build_episode(MUTATION_CONFIG, 0))
        result = CampaignResult(config=MUTATION_CONFIG, outcomes=[outcome_ok])
        assert result.checked + result.skipped == 1
        assert result.by_kind()
