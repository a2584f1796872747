"""The Committee value object and the WeightSpec recipe it builds from."""

from fractions import Fraction

import pytest

from repro.api import Committee, CommitteeValidationError
from repro.datasets import SYNTHETIC_KINDS, WEIGHT_KINDS, WeightSpec, load_chain

STAKE = (40, 25, 15, 10, 5, 3, 1, 1)


class TestWeightSources:
    def test_inline_round_trips_verbatim(self):
        assert Committee.from_weights(["1/2", 3, 0.25]).weights == ("1/2", 3, 0.25)
        spec = WeightSpec("explicit", values=STAKE)
        assert spec.materialize(9) == spec.materialize(0) == list(STAKE)  # seed ignored

    def test_inline_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            WeightSpec("explicit")

    def test_file_skips_blank_lines(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("100\n50\n\n25\n")
        assert Committee.from_file(str(f)).weights == ("100", "50", "25")

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n")
        with pytest.raises(ValueError, match="no weights"):
            Committee.from_file(str(f))

    def test_chain_full_and_truncated(self):
        full = list(load_chain("tezos").weights)
        assert list(Committee.from_chain("tezos").weights) == full
        top = WeightSpec("chain", chain="tezos", n=12).materialize(0)
        assert top == sorted(full, reverse=True)[:12]

    def test_chain_name_follows_load_chain_case_rule(self):
        assert WeightSpec("chain", chain="APTOS", n=3).materialize(0) == sorted(
            load_chain("aptos").weights, reverse=True
        )[:3]

    def test_unknown_chain_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown chain 'nope'"):
            WeightSpec("chain", chain="nope", n=5)

    def test_unknown_chain_is_one_error_type(self):
        with pytest.raises(ValueError, match="unknown chain 'nope'"):
            Committee.from_chain("nope")

    def test_chain_shorter_than_n_rejected(self):
        spec = WeightSpec("chain", chain="aptos", n=500)
        with pytest.raises(ValueError, match="104 parties, fewer than n=500"):
            spec.materialize(0)
        with pytest.raises(ValueError, match="fewer than n=500"):
            Committee.from_weight_spec(spec)

    def test_synthetic_deterministic_in_seed(self):
        spec = WeightSpec("zipf", n=50, total=5000, skew=1.2)
        assert spec.materialize(3) == spec.materialize(3)
        assert spec.materialize(3) != spec.materialize(4)
        assert sum(spec.materialize(3)) == 5000
        assert Committee.synthetic("zipf", 50, 5000, skew=1.2, seed=3).int_weights == (
            spec.materialize(3)
        )

    def test_synthetic_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown weight kind 'cauchy'"):
            WeightSpec("cauchy", n=5, total=50)
        with pytest.raises(ValueError, match="unknown weight kind"):
            Committee.synthetic("cauchy", n=5, total=50)

    def test_kind_list_exists_once(self):
        assert WEIGHT_KINDS == ("explicit", *SYNTHETIC_KINDS, "chain")

    def test_one_recipe_type(self):
        import repro.scenarios
        import repro.scenarios.spec

        assert repro.scenarios.WeightSpec is repro.scenarios.spec.WeightSpec is WeightSpec

    def test_provenance_strings(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("3\n2\n")
        assert WeightSpec("explicit", values=(3, 2, 1)).describe() == "inline[3]"
        assert WeightSpec("chain", chain="aptos", n=12).describe() == "chain:aptos[top 12]"
        assert (
            Committee.synthetic("zipf", n=8, total=800, skew=1.2).provenance
            == "zipf(n=8, total=800, skew=1.2)"
        )
        assert Committee.from_file(str(f)).provenance == f"file:{f}"
        assert Committee.from_chain("aptos").provenance == "chain:aptos"


class TestCommittee:
    def test_from_weights(self):
        c = Committee.from_weights(STAKE)
        assert c.n == len(STAKE) == len(c)
        assert c.total_weight == Fraction(100)
        assert c.int_weights == list(STAKE)

    def test_normalization_accepts_fraction_strings(self):
        c = Committee.from_weights(["1/2", "1/4", "1/4"])
        assert c.total_weight == 1
        with pytest.raises(ValueError, match="not an integer"):
            c.int_weights

    def test_rejects_invalid_weight_vectors(self):
        with pytest.raises(ValueError):
            Committee.from_weights([])
        with pytest.raises(ValueError):
            Committee.from_weights([0, 0])
        with pytest.raises(ValueError):
            Committee.from_weights([5, -1])

    def test_digest_matches_scenario_convention(self):
        # The scenario engine historically fingerprinted the materialized
        # list as sha256(repr(list))[:16]; records must not shift.
        import hashlib

        c = Committee.from_weights(STAKE)
        expected = hashlib.sha256(repr(list(STAKE)).encode()).hexdigest()[:16]
        assert c.weights_digest == expected

    def test_equal_sources_build_equal_committees(self):
        a = Committee.synthetic("zipf", n=10, total=1000, skew=1.2, seed=7)
        b = Committee.synthetic("zipf", n=10, total=1000, skew=1.2, seed=7)
        assert a == b

    def test_from_weight_spec_matches_materialize(self):
        spec = WeightSpec(kind="lognormal", n=20, total=2000, skew=1.5)
        c = Committee.from_weight_spec(spec, seed=11)
        assert c.int_weights == spec.materialize(11)

    def test_uniform_is_egalitarian(self):
        c = Committee.uniform(7)
        assert c.int_weights == [1] * 7
        with pytest.raises(CommitteeValidationError):
            Committee.uniform(0)

    def test_quorums(self):
        q = Committee.from_weights(STAKE).quorums("1/3")
        assert q.ready_amplify([0])  # the whale alone exceeds f_w * W
        assert not q.deliver_quorum([0])

    def test_committee_sizes_sim_world(self):
        # build_world derives n from the committee and keeps it for
        # provenance -- the sim-layer half of the facade rewiring.
        from repro.protocols.reliable_broadcast import BroadcastParty
        from repro.sim import build_world

        committee = Committee.from_weights(STAKE)
        quorums = committee.quorums("1/3")
        world = build_world(
            lambda pid: BroadcastParty(pid, quorums, 0), committee=committee
        )
        assert len(world.parties) == committee.n
        assert world.committee is committee
        world.party(0).broadcast_value(b"hi")
        world.run()
        assert all(p.delivered == b"hi" for p in world.parties)
        with pytest.raises(ValueError, match="needs n or a committee"):
            build_world(lambda pid: BroadcastParty(pid, quorums, 0))

    def test_committee_sizes_live_cluster(self):
        # run_cluster likewise: no explicit n, the committee decides.
        from repro.protocols.reliable_broadcast import BroadcastParty
        from repro.runtime import run_cluster

        committee = Committee.from_weights(STAKE)
        quorums = committee.quorums("1/3")
        cluster = run_cluster(
            lambda pid: BroadcastParty(pid, quorums, 0),
            setup=lambda c: c.party(0).broadcast_value(b"hi"),
            stop_when=lambda c: all(p.delivered == b"hi" for p in c.parties),
            committee=committee,
        )
        assert cluster.n == committee.n
        assert cluster.committee is committee
        with pytest.raises(ValueError, match="needs n or a committee"):
            run_cluster(lambda pid: BroadcastParty(pid, quorums, 0))

    def test_analysis_layers_accept_committee(self):
        from fractions import Fraction as F

        from repro.analysis import TicketMetrics, alpha_grid_sweep
        from repro.core import WeightRestriction

        committee = Committee.from_weights(STAKE)
        via_committee = alpha_grid_sweep(
            committee, alpha_ns=[F(1, 2)], ratios=[F(1, 2)]
        )
        via_weights = alpha_grid_sweep(STAKE, alpha_ns=[F(1, 2)], ratios=[F(1, 2)])
        assert via_committee == via_weights
        result = committee.solve(WeightRestriction("1/3", "1/2"))
        assert TicketMetrics.from_result(result) == TicketMetrics.from_assignment(
            result.assignment
        )


class TestValidate:
    def test_feasible_plan_passes(self):
        Committee.from_weights(STAKE).validate(
            f_w="1/3", crashes=(6, 7), payload_size=32, epochs=2
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(expect_n=5), "does not match"),
            (dict(f_w="2/3"), "f_w"),
            (dict(payload_size=0), "payload_size"),
            (dict(epochs=0), "epochs"),
            (dict(crashes=(42,)), "out of range"),
            (dict(partition=((0, 1), (2, 99))), "out of range"),
            (dict(link_delays=((0, 88, 0.1),)), "out of range"),
            (dict(crashes=tuple(range(len(STAKE)))), "crashes every party"),
            (dict(f_w="1/3", crashes=(0,)), "quorums can never form"),
        ],
    )
    def test_infeasible_combinations_rejected(self, kwargs, match):
        with pytest.raises(CommitteeValidationError, match=match):
            Committee.from_weights(STAKE).validate(**kwargs)

    def test_error_payload_shape(self):
        try:
            Committee.from_weights(STAKE).validate(f_w="3/4")
        except CommitteeValidationError as exc:
            assert set(exc.as_payload()) == {"error"}
        else:  # pragma: no cover
            pytest.fail("expected CommitteeValidationError")

    def test_is_a_value_error(self):
        # Pre-facade callers catch ValueError; the subclass must satisfy them.
        assert issubclass(CommitteeValidationError, ValueError)
