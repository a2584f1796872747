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
