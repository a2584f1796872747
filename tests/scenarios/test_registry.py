"""The scenario registry and its acceptance bar.

Every built-in scenario must complete on the sim backend; the
cross-backend bar (every batch scenario on the live runtimes, agreeing
with the sim) is swept in ``test_differential.py``.
"""

import pytest

from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)


class TestRegistryShape:
    def test_at_least_eight_scenarios(self):
        assert len(SCENARIOS) >= 8

    def test_names_unique_and_described(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert all(SCENARIOS[n].description for n in names)

    def test_covers_required_regimes(self):
        kinds = {spec.weights.kind for spec in SCENARIOS.values()}
        assert {"constant", "zipf", "chain", "explicit"} <= kinds
        protocols = {spec.protocol for spec in SCENARIOS.values()}
        assert {"rbc", "smr", "vaba", "checkpoint"} <= protocols
        assert any(spec.faults.crashes for spec in SCENARIOS.values())
        assert any(spec.faults.partition for spec in SCENARIOS.values())
        assert any(spec.faults.link_delays for spec in SCENARIOS.values())

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_spec_round_trips_through_dict(self):
        for spec in SCENARIOS.values():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_out_of_range_fault_pids_rejected(self):
        from repro.scenarios import FaultSpec, WeightSpec

        spec = ScenarioSpec(
            name="bad-crash-pid",
            protocol="rbc",
            weights=WeightSpec(kind="explicit", values=(5, 5, 5, 5)),
            faults=FaultSpec(crashes=(9,)),
        )
        with pytest.raises(ValueError, match="out of range"):
            run_scenario(spec, backend="sim")

    def test_crashing_every_party_rejected(self):
        from repro.scenarios import FaultSpec, WeightSpec

        spec = ScenarioSpec(
            name="all-dead",
            protocol="rbc",
            weights=WeightSpec(kind="explicit", values=(5, 5)),
            faults=FaultSpec(crashes=(0, 1)),
        )
        with pytest.raises(ValueError, match="crashes every party"):
            run_scenario(spec, backend="sim")

    def test_over_budget_crash_plan_rejected_up_front(self):
        # Crashing weight >= f_w*W can never reach a quorum; the run must
        # fail fast at validation instead of burning the backend timeout
        # (or, on sim, silently reporting completed=False).
        from repro.scenarios import FaultSpec, WeightSpec

        spec = ScenarioSpec(
            name="over-budget",
            protocol="rbc",
            weights=WeightSpec(kind="explicit", values=(10, 10, 10)),
            f_w="1/3",
            faults=FaultSpec(crashes=(0,)),
        )
        with pytest.raises(ValueError, match="quorums can never form"):
            run_scenario(spec, backend="sim")

    @pytest.mark.parametrize(
        "options, error",
        [
            ({"backend": "quic"}, "unknown backend"),
            ({"timeout": 0}, "timeout must be positive"),
            ({"timeout": -1}, "timeout must be positive"),
        ],
        ids=["backend", "timeout-0", "timeout-negative"],
    )
    def test_bad_run_options_rejected(self, options, error):
        with pytest.raises(ValueError, match=error):
            run_scenario(get_scenario("uniform-rbc"), **options)

    def test_never_healing_smr_partition_rejected(self):
        # A vacuously-true completion predicate must not masquerade as a
        # successful run: SMR under a permanent partition has no epoch
        # that can commit everywhere, so the spec is rejected up front.
        from repro.scenarios import FaultSpec, WeightSpec

        spec = ScenarioSpec(
            name="split-forever",
            protocol="smr",
            weights=WeightSpec(kind="explicit", values=(10, 10, 10, 10)),
            faults=FaultSpec(partition=((0, 1), (2, 3))),
        )
        with pytest.raises(ValueError, match="heal_at"):
            run_scenario(spec, backend="sim")


class TestSimBackend:
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_completes_on_sim(self, name):
        result = run_scenario(get_scenario(name), backend="sim")
        assert result.completed, name
        assert result.messages > 0
        # agreement: every live party decided the same value(s)
        assert len(set(result.decided.values())) == 1, name

    def test_fault_counters_fire(self):
        crash = run_scenario(get_scenario("crash-f-rbc"), backend="sim")
        assert crash.dropped_messages > 0
        delay = run_scenario(get_scenario("link-delay-rbc"), backend="sim")
        assert delay.delayed_messages > 0
        part = run_scenario(get_scenario("partition-heal-smr"), backend="sim")
        assert part.dropped_messages > 0 and part.completed


class TestInprocBackend:
    def test_partition_heals_on_live_runtime(self):
        result = run_scenario(
            get_scenario("partition-heal-smr"), backend="inproc", timeout=30
        )
        assert result.completed
        assert result.dropped_messages > 0


@pytest.mark.tcp
class TestTcpBackend:
    def test_rbc_scenario_over_sockets(self):
        spec = get_scenario("uniform-rbc")
        sim = run_scenario(spec, backend="sim")
        tcp = run_scenario(spec, backend="tcp", timeout=60)
        assert tcp.completed
        assert sim.decided == tcp.decided
        assert dict(sim.by_type) == dict(tcp.by_type)


def _nominal_spec(protocol="rbc", n=7, **fields):
    from repro.scenarios import WeightSpec

    return ScenarioSpec(
        name=f"nominal-{protocol}",
        protocol=protocol,
        weights=WeightSpec(kind="explicit", values=(1,) * n),
        params=(("quorums", "nominal"),),
        **fields,
    )


class TestNominalQuorums:
    """``params["quorums"] = "nominal"``: the unweighted ``n = 3t + 1``
    original a weighted protocol's cost is stated against."""

    def test_default_spec_encoding_unchanged(self):
        # the layout is a params entry, not a field: weighted specs (every
        # registry scenario) serialize as before
        assert "quorums" not in str(get_scenario("uniform-rbc").to_dict())

    @pytest.mark.parametrize("protocol", ["rbc", "smr"])
    def test_parties_vote_with_nominal_quorums(self, protocol):
        from repro.scenarios.harness import build_driver
        from repro.weighted.quorum import NominalQuorums

        driver = build_driver(_nominal_spec(protocol))
        assert driver.quorums == NominalQuorums(n=7, t=2)
        result = run_scenario(_nominal_spec(protocol), backend="sim")
        assert result.completed
        assert len(set(result.decided.values())) == 1

    def test_crash_budget_is_t_parties_not_f_w_weight(self):
        from repro.scenarios import FaultSpec

        # one crash of seven is over f_w*W = 0.7 but within t = 2
        spec = _nominal_spec(f_w="1/10", faults=FaultSpec(crashes=(0,)))
        assert run_scenario(spec, backend="sim").completed
        # three down (two crashed, one restarted) is more than t
        spec = _nominal_spec(
            "smr", faults=FaultSpec(crashes=(0, 1), restarts=((2, 0.1, 0.2),))
        )
        with pytest.raises(ValueError, match="nominal fault tolerance t = 2"):
            run_scenario(spec, backend="sim")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            run_scenario(_nominal_spec(n=3), backend="sim")

    def test_f_w_domain_still_checked(self):
        with pytest.raises(ValueError, match="f_w must be in"):
            run_scenario(_nominal_spec(f_w="2/3"), backend="sim")

    @pytest.mark.parametrize("protocol", ["vaba", "checkpoint"])
    def test_protocol_without_quorum_policy_rejected(self, protocol):
        with pytest.raises(ValueError, match="rbc and smr only"):
            run_scenario(_nominal_spec(protocol), backend="sim")

    def test_byzantine_plan_rejected(self):
        from repro.scenarios import ByzantineSpec, FaultSpec

        spec = _nominal_spec(
            faults=FaultSpec(byzantine=(ByzantineSpec("equivocate"),))
        )
        with pytest.raises(ValueError, match="crash plans only"):
            run_scenario(spec, backend="sim")

    def test_chaos_plan_rejected(self):
        from repro.chaos.schedule import ChaosSpec, ChaosStage, TriggerSpec

        chaos = ChaosSpec(
            stages=(ChaosStage(action="crash", trigger=TriggerSpec(kind="time"),
                               params=(("pids", (0,)),)),)
        )
        with pytest.raises(ValueError, match="crash plans only"):
            run_scenario(_nominal_spec(chaos=chaos), backend="sim")

    def test_unknown_layout_rejected(self):
        from dataclasses import replace

        spec = replace(_nominal_spec(), params=(("quorums", "blunt"),))
        with pytest.raises(ValueError, match="unknown quorums 'blunt'"):
            run_scenario(spec, backend="sim")

    def test_service_workload_rejected(self):
        from dataclasses import replace

        from repro.scenarios import WorkloadSpec

        spec = replace(
            _nominal_spec("smr"), workload=WorkloadSpec(epochs=2, kind="service")
        )
        with pytest.raises(ValueError, match="weighted quorums only"):
            run_scenario(spec, backend="sim")
