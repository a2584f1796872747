"""Chaos schedules: the pure-data timeline specs, their liveness claims,
and the compiler that turns a flat fault plan into stages."""

import pytest

from repro.chaos.schedule import ChaosSpec, ChaosStage, TriggerSpec, compile_timeline
from repro.chaos.weather import WeatherSpec
from repro.scenarios import get_scenario
from repro.scenarios.spec import FaultSpec, ScenarioSpec, WeightSpec


def _plan(*stages, **kwargs):
    return ChaosSpec(stages=tuple(stages), **kwargs)


def _partition(at=0.0):
    return ChaosStage(
        action="partition",
        trigger=TriggerSpec(kind="time", value=at),
        params=(("groups", ((0, 1), (2, 3))),),
    )


def _heal(at):
    return ChaosStage(action="heal", trigger=TriggerSpec(kind="time", value=at))


class TestTriggerSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="trigger kind"):
            TriggerSpec(kind="phase-of-moon")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TriggerSpec(kind="time", value=-1.0)

    def test_round_trips(self):
        for trigger in (
            TriggerSpec(kind="time", value=0.25),
            TriggerSpec(kind="slot", value=3, deadline=2.0),
            TriggerSpec(kind="epoch", value=1),
            TriggerSpec(kind="metric", value=100, metric="messages"),
        ):
            assert TriggerSpec.from_dict(trigger.to_dict()) == trigger


class TestChaosStage:
    def test_params_are_frozen_and_readable(self):
        stage = ChaosStage.from_dict(
            {"action": "partition", "params": {"groups": [[0, 1], [2, 3]]}}
        )
        assert stage.param("groups") == ((0, 1), (2, 3))
        assert stage.param("missing", "fallback") == "fallback"
        hash(stage)  # stays hashable after freezing

    def test_round_trips(self):
        stage = _partition(0.1)
        assert ChaosStage.from_dict(stage.to_dict()) == stage


class TestChaosSpec:
    def test_round_trips_full_plan(self):
        plan = _plan(
            _partition(0.0),
            _heal(0.3),
            weather=WeatherSpec(duplicate=0.1),
            watchdog=False,
            stall_after=2.0,
        )
        assert ChaosSpec.from_dict(plan.to_dict()) == plan

    def test_partition_window_and_heal_time(self):
        assert _plan(_partition(0.1), _heal(0.4)).partition_window() == (0.1, 0.4)
        assert _plan(_partition(0.1)).partition_window() == (0.1, None)
        assert _plan().heal_time() == 0.0
        assert _plan(_partition(0.1)).heal_time() is None
        assert _plan(_partition(0.1), _heal(0.4)).heal_time() == 0.4

    def test_keeps_liveness(self):
        assert _plan(_partition(0.0), _heal(0.3)).keeps_liveness()
        assert not _plan(_partition(0.0)).keeps_liveness()
        assert not _plan(weather=WeatherSpec(loss=0.05)).keeps_liveness()
        assert _plan(weather=WeatherSpec(duplicate=0.2, reorder=0.3)).keeps_liveness()
        storm = ChaosStage(
            action="weather",
            trigger=TriggerSpec(kind="time", value=0.2),
            params=(("weather", (("loss", 0.1),)),),
        )
        assert not _plan(storm).keeps_liveness()

    def test_latest_time_covers_polled_deadlines(self):
        plan = _plan(
            _partition(0.0),
            _heal(0.3),
            ChaosStage(
                action="crash",
                trigger=TriggerSpec(kind="slot", value=2, deadline=4.0),
            ),
        )
        assert plan.latest_time() == 4.0

    def test_stall_after_validated(self):
        with pytest.raises(ValueError, match="stall_after"):
            ChaosSpec(stall_after=0.0)


class TestScenarioSpecEmbedding:
    def _spec(self, chaos=None):
        return ScenarioSpec(
            name="probe",
            protocol="smr",
            weights=WeightSpec(kind="explicit", values=(5, 5, 5, 5)),
            chaos=chaos,
        )

    def test_chaos_key_round_trips(self):
        spec = self._spec(chaos=_plan(_partition(0.0), _heal(0.3)))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_chaos_free_specs_keep_their_historical_encoding(self):
        # Replay specs persisted before the chaos engine existed must
        # decode (and re-encode) unchanged: no "chaos" key appears.
        encoded = self._spec().to_dict()
        assert "chaos" not in encoded
        assert ScenarioSpec.from_dict(encoded).chaos is None


def _flat_spec(faults=FaultSpec(), chaos=None):
    return ScenarioSpec(
        name="flat",
        protocol="smr",
        weights=WeightSpec(kind="explicit", values=(5,) * 8),
        faults=faults,
        chaos=chaos,
    )


def _steps(stages):
    return [(s.action, s.trigger.kind, s.trigger.value, dict(s.params)) for s in stages]


class TestCompileTimeline:
    FAULTS = FaultSpec(
        crashes=(7, 6),
        partition=((0, 1, 2), (3, 4, 5)),
        heal_at=0.25,
        link_delays=((0, 5, 0.12), (5, 0, 0.1)),
        restarts=((4, 0.1, 0.8), (2, 0.3, 0.5)),
    )

    def test_each_flat_field_compiles_to_its_stages_in_arming_order(self):
        timeline = compile_timeline(_flat_spec(self.FAULTS))
        assert _steps(timeline.stages) == [
            ("crash", "time", 0.0, {"pids": (7, 6)}),
            ("partition", "time", 0.0, {"groups": ((0, 1, 2), (3, 4, 5))}),
            ("heal", "time", 0.25, {}),
            ("crash", "time", 0.1, {"pids": (4,)}),
            ("restart", "time", 0.8, {"pids": (4,)}),
            ("crash", "time", 0.3, {"pids": (2,)}),
            ("restart", "time", 0.5, {"pids": (2,)}),
        ]
        assert timeline.flat == len(timeline.stages)
        # link delays are ambient state, not a stage
        assert timeline.link_delays == ((0, 5, 0.12), (5, 0, 0.1))
        assert timeline.weather is None

    def test_a_proc_worker_compiles_the_restarts_out(self):
        timeline = compile_timeline(_flat_spec(self.FAULTS), restarts=False)
        assert [s.action for s in timeline.stages] == ["crash", "partition", "heal"]
        assert timeline.flat == 3

    def test_flat_stages_come_before_the_chaos_plan(self):
        chaos = _plan(
            _partition(0.1), _heal(0.4), weather=WeatherSpec(duplicate=0.1)
        )
        timeline = compile_timeline(
            _flat_spec(FaultSpec(crashes=(7,), heal_at=0.2), chaos)
        )
        assert timeline.flat == 2
        assert [s.action for s in timeline.stages[:2]] == ["crash", "heal"]
        assert timeline.stages[2:] == chaos.stages
        assert timeline.weather == chaos.weather

    def test_an_empty_plan_compiles_to_nothing(self):
        timeline = compile_timeline(_flat_spec())
        assert timeline.stages == () and timeline.flat == 0
        assert timeline.link_delays == () and timeline.weather is None
        assert timeline.latest_time() == 0.0
        assert timeline.partition_window() == (None, None)

    def test_pids_reads_one_action_over_a_stage_range(self):
        timeline = compile_timeline(_flat_spec(self.FAULTS))
        assert timeline.pids("crash") == {7, 6, 4, 2}
        assert timeline.pids("restart") == {4, 2}
        assert timeline.pids("restart", timeline.stages[:3]) == frozenset()

    @pytest.mark.parametrize(
        "name", ["partition-heal-smr", "crash-restart-mixed-smr", "link-delay-rbc"]
    )
    def test_latest_time_is_the_flat_plans_last_scheduled_fault(self, name):
        faults = get_scenario(name).faults
        scheduled = [faults.heal_at] if faults.heal_at is not None else []
        scheduled += [restart_at for _, _, restart_at in faults.restarts]
        timeline = compile_timeline(get_scenario(name))
        assert timeline.latest_time() == max(scheduled + [0.0])

    def test_a_flat_partition_has_the_chaos_partitions_window(self):
        timeline = compile_timeline(get_scenario("partition-heal-smr"))
        assert timeline.partition_window() == (0.0, 0.15)
        unhealed = FaultSpec(partition=((0, 1), (2, 3)))
        assert compile_timeline(_flat_spec(unhealed)).partition_window() == (0.0, None)
