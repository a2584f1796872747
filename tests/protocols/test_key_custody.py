"""Key custody: a checkpoint or beacon party holds its own tickets'
secret shares and no other share of the dealing.

Each party is built the way a run builds it -- by the scenario driver's
factory, by the epoch service's checkpoint factory, or as a beacon party
on a :class:`~repro.crypto.common_coin.WeightedCoin` -- before it is
attached to a host.  A walk over its attributes (its scheme's among
them), through containers but not into callbacks or other parties, finds
no secret share value except those of its own key.
"""

import random
from collections import deque

from repro.crypto.common_coin import WeightedCoin
from repro.crypto.group import TEST_GROUP_256 as G
from repro.protocols.checkpointing import CheckpointParty
from repro.protocols.common_coin import BeaconParty
from repro.scenarios import get_scenario
from repro.scenarios.harness import build_driver
from repro.sim.process import Party
from repro.weighted.transform import blunt_setup

WEIGHTS = [40, 25, 15, 10, 5, 3, 1, 1]


def _reachable_ints(party: Party) -> set[int]:
    """Every int reachable from ``party``'s attributes."""
    found: set[int] = set()
    seen: set[int] = set()
    stack: list = [party]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (bool, str, bytes, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, int):
            found.add(obj)
        elif (isinstance(obj, Party) and obj is not party) or callable(obj):
            continue  # another party, a handler, a callback or a class
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        else:
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for slot in getattr(type(obj), "__slots__", ()):
                stack.append(getattr(obj, slot, None))
    return found


def _assert_custody(build, coin: WeightedCoin) -> None:
    secrets = {share.value for share in coin.coin.shares}
    for pid in range(coin.vmap.n_parties):
        party = build(pid)
        assert {s.index for s in party.key} == {v + 1 for v in coin.vmap.virtual_ids(pid)}
        own = {s.value for s in party.key}
        assert own <= secrets
        assert _reachable_ints(party) & secrets == own, pid


def test_a_scenario_checkpoint_party_holds_only_its_key():
    driver = build_driver(get_scenario("checkpoint-tight"))
    _assert_custody(driver.factory, driver.coin)


def test_a_service_checkpoint_party_holds_only_its_key(monkeypatch):
    import repro.service.service as service_mod
    from repro.api import Committee
    from repro.service import (
        EpochManager,
        EpochService,
        LoadGenerator,
        ServiceConfig,
    )
    from repro.service.scenario import drift_schedule_for
    from repro.sim import SimHost

    coins: list[WeightedCoin] = []
    captured = {}

    class RecordingCoin(WeightedCoin):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            coins.append(self)

    class RecordingHost(SimHost):
        def spawn(self, factory, n, *, seed=None):
            # the first generation spawned after a dealing is its checkpoint group
            if coins and not captured:
                captured.update(factory=factory, coin=coins[-1])
            return super().spawn(factory, n, seed=seed)

    monkeypatch.setattr(service_mod, "WeightedCoin", RecordingCoin)
    committee = Committee.synthetic("zipf", n=6, total=600, skew=1.2, seed=0)
    manager = EpochManager(drift_schedule_for(tuple(committee.int_weights), 2), f_w="1/3")
    config = ServiceConfig(f_w="1/3", slot_interval=0.05, slots_per_epoch=2, max_time=60.0)
    load = LoadGenerator(60.0, 12, payload_size=32, seed=0)
    EpochService(RecordingHost(), manager, config, seed=0, load=load).run()
    assert isinstance(captured["factory"](0), CheckpointParty)
    _assert_custody(captured["factory"], captured["coin"])


def test_a_beacon_party_holds_only_its_key():
    setup = blunt_setup(WEIGHTS, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(0))
    _assert_custody(lambda pid: BeaconParty(pid, coin, random.Random(pid)), coin)
