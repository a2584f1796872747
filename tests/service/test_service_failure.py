"""How a service run ends when it cannot complete.

A handler that raises is a bug in the program, not a fault to ride out:
on the live backend the run ends within a few ticks with the error a
batch run gives for the same bug (both are hosted on a ``Cluster``), on
the simulator the exception propagates out of ``SimHost.run`` as it does
for a batch run.  So does a scheduled callback that raises, such as the
load's: a live run ends with that exception, not with a timeout.  A run that merely cannot finish
inside ``max_time`` reports so and returns, and a spec the service cannot
run is rejected with the reason.
"""

import json
import time
from dataclasses import replace

import pytest

from repro.chaos import ChaosSpec, ChaosStage, TriggerSpec, WeatherSpec
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster
from repro.scenarios import get_scenario, run_scenario
from repro.service import (
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for
from repro.sim import SimHost

WEIGHTS = (40, 30, 20, 10)
HOSTS = {"sim": SimHost, "inproc": Cluster}


def _service(backend, *, rate=200.0, requests=12, load_class=LoadGenerator, **config):
    manager = EpochManager(drift_schedule_for(WEIGHTS, epochs=1), f_w="1/3")
    load = load_class(rate, requests, payload_size=16, seed=1)
    return EpochService(
        HOSTS[backend](), manager, ServiceConfig(**config), seed=1, load=load
    )


@pytest.fixture
def failing_handler(monkeypatch):
    """``SmrParty.receive`` raises on its 20th call; ``raised["at"]`` is when."""
    receive = SmrParty.receive
    raised = {"calls": 0}

    def faulty(party, message, sender):
        raised["calls"] += 1
        if raised["calls"] == 20:
            raised["at"] = time.perf_counter()
            raise RuntimeError("handler bug")
        return receive(party, message, sender)

    monkeypatch.setattr(SmrParty, "receive", faulty)
    return raised


class TestHandlerFailure:
    def test_inproc_ends_at_once_and_names_node_and_cause(self, failing_handler):
        service = _service("inproc", slot_interval=0.02, max_time=30.0)
        with pytest.raises(RuntimeError, match=r"node \d failed while pumping") as info:
            service.run()
        late = time.perf_counter() - failing_handler["at"]
        assert late <= max(5 * service.config.slot_interval, 0.5)
        assert str(info.value.__cause__) == "handler bug"
        assert service.finished and not service.completed
        error = service.result().error
        assert str(info.value) in error and "RuntimeError('handler bug')" in error

    def test_batch_inproc_run_raises_the_same_error(self, failing_handler):
        with pytest.raises(RuntimeError, match=r"node \d failed while pumping") as info:
            run_scenario(get_scenario("zipf-stake-smr"), backend="inproc", timeout=30)
        assert str(info.value.__cause__) == "handler bug"

    def test_sim_propagates_the_exception(self, failing_handler):
        with pytest.raises(RuntimeError, match="^handler bug$"):
            _service("sim", max_time=30.0).run()


class _BrokenLoad(LoadGenerator):
    """A load whose fourth arrival raises, inside its scheduled callback."""

    def payload(self, index: int) -> bytes:
        if index == 3:
            raise ZeroDivisionError("load bug")
        return super().payload(index)


class TestCallbackFailure:
    @pytest.mark.parametrize("backend", sorted(HOSTS))
    def test_a_raising_load_ends_the_run_with_its_exception(self, backend):
        service = _service(backend, load_class=_BrokenLoad, max_time=5.0)
        started = time.perf_counter()
        with pytest.raises(ZeroDivisionError, match="load bug"):
            service.run()
        assert time.perf_counter() - started < 1.0


class TestDeadline:
    """Five requests a second apart cannot commit inside ``max_time``."""

    @pytest.mark.parametrize(
        "backend, max_time",
        [
            ("sim", 0.25),  # the deadline lands on a slot tick
            ("sim", 0.27),  # and between two
            ("inproc", 0.25),
        ],
    )
    def test_reports_max_time_and_returns(self, backend, max_time):
        service = _service(backend, rate=1.0, requests=5, max_time=max_time)
        started = time.perf_counter()
        result = service.run()
        assert time.perf_counter() - started < max_time + 0.5
        assert service.finished and not result.completed
        assert f"did not finish within max_time={max_time}s" in result.error
        assert result.service["requests_committed"] < 5


class TestWhatAServiceWorkloadCannotRun:
    """The rejections say why, in protocol terms."""

    @pytest.mark.parametrize(
        "backend, reason",
        [
            ("tcp", "rebinds node ids 0..n-1 inside one transport object"),
            ("proc", "no cross-process rebind"),
        ],
    )
    def test_rejection_names_the_reason(self, backend, reason):
        with pytest.raises(ValueError, match=reason):
            run_scenario(get_scenario("epoch-service"), backend=backend)

    @pytest.mark.parametrize(
        "backend, faults, entry",
        [
            ("sim", {"crashes": (1,)}, '"action": "crash"'),
            ("inproc", {"crashes": (1,)}, '"pids": [1]'),
            ("sim", {"partition": ((0, 1), (2, 3))}, '"groups": [[0, 1], [2, 3]]'),
            ("sim", {"heal_at": 0.2}, '"action": "heal"'),
            ("sim", {"link_delays": ((0, 1, 0.05),)}, "link delay [0, 1, 0.05]"),
            # a crash-restart plan used to run fault-free without a word
            ("sim", {"restarts": ((1, 0.1, 0.5),)}, '"value": 0.1'),
            ("inproc", {"restarts": ((1, 0.1, 0.5),)}, '"action": "crash"'),
        ],
    )
    def test_a_fault_timeline_is_rejected_naming_its_entry(self, backend, faults, entry):
        spec = get_scenario("epoch-service")
        spec = replace(spec, faults=replace(spec.faults, **faults))
        with pytest.raises(ValueError, match="service workloads arm no fault timeline") as err:
            run_scenario(spec, backend=backend)
        assert entry in str(err.value), str(err.value)

    @pytest.mark.parametrize("backend", ["sim", "inproc"])
    def test_chaos_plan_rejected(self, backend):
        unhealed = ChaosStage(
            action="partition",
            trigger=TriggerSpec(kind="time", value=0.0),
            params=(("groups", ((0, 1, 2), (3, 4, 5))),),
        )
        spec = replace(get_scenario("epoch-service"), chaos=ChaosSpec(stages=(unhealed,)))
        with pytest.raises(ValueError, match='no fault timeline.*"action": "partition"'):
            run_scenario(spec, backend=backend)

    def test_chaos_weather_rejected(self):
        weather = ChaosSpec(weather=WeatherSpec(duplicate=0.1))
        spec = replace(get_scenario("epoch-service"), chaos=weather)
        with pytest.raises(ValueError, match="no fault timeline.*weather"):
            run_scenario(spec, backend="sim")

    def test_the_cli_exits_2_on_a_restart_plan(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.scenarios import SCENARIOS

        spec = get_scenario("epoch-service")
        restarted = replace(spec, faults=replace(spec.faults, restarts=((1, 0.1, 0.5),)))
        monkeypatch.setitem(SCENARIOS, "epoch-service", restarted)
        assert main(["scenario", "epoch-service", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no fault timeline" in json.loads(captured.err)["error"]
