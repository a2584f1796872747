"""The driver registry is the one list of protocols.

``repro.scenarios.drivers.DRIVERS`` maps each protocol name to its
driver and ``PROTOCOLS`` is its keys.  The spec validates against those
keys, and neither the run lifecycle (``harness.py``) nor the spec module
spells a protocol name itself: a fact about one protocol is declared on
its driver.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.scenarios
from repro.scenarios import SCENARIOS, ScenarioSpec, WeightSpec
from repro.scenarios.drivers import DRIVERS, PROTOCOLS, ProtocolDriver


def test_protocols_are_the_registry_keys():
    assert PROTOCOLS == tuple(DRIVERS)
    assert all(issubclass(driver, ProtocolDriver) for driver in DRIVERS.values())


def test_every_registry_scenario_runs_a_driver_and_every_driver_has_one():
    assert {spec.protocol for spec in SCENARIOS.values()} == set(DRIVERS)


def test_protocols_is_assigned_in_drivers_only():
    root = Path(repro.__file__).parent
    assigners = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "PROTOCOLS" for t in targets):
                assigners.add(path.relative_to(root).as_posix())
    assert assigners == {"scenarios/drivers.py"}


def test_an_unknown_protocol_is_rejected_naming_the_keys():
    with pytest.raises(ValueError) as info:
        ScenarioSpec(
            name="x", protocol="nope", weights=WeightSpec("explicit", values=(1,) * 4)
        )
    message = str(info.value)
    assert "'nope'" in message
    assert all(repr(protocol) in message for protocol in PROTOCOLS)


@pytest.mark.parametrize("module", ["harness.py", "spec.py"])
def test_the_lifecycle_and_the_spec_name_no_protocol(module):
    path = Path(repro.scenarios.__file__).parent / module
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in DRIVERS
    }
    assert named == set(), f"{module} names {sorted(named)}"
