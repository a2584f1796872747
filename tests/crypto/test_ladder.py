"""Squaring ladders: every fixed-base power the engine computes, against
the window tables and promote-after-4 policy they replaced
(``fixed_base_oracle``) and against native ``pow``; plus tripwires on how
many ladders a workload builds and holds, and what one costs in memory."""

import asyncio
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.group as group_mod
from fixed_base_oracle import FixedBaseTable, PromotingEngine
from repro.crypto.common_coin import WeightedCoin, epoch_message
from repro.crypto.group import (
    RFC3526_GROUP_2048,
    TEST_GROUP_256,
    GroupEngine,
    _Ladder,
    _MAX_TABLES,
    _straus_window,
)

GROUPS = [TEST_GROUP_256, RFC3526_GROUP_2048]
IDS = ["256", "2048"]


def _bases(group):
    """Generator, an ``H(m)``, and the degenerate ``1``, ``p - 1``, ``0``."""
    return {
        "g": group.generator,
        "H(m)": group.hash_to_group(b"ladder-base"),
        "1": 1,
        "p-1": group.p - 1,
        "0": 0,
    }


@lru_cache(maxsize=None)
def _ladder(group, base):
    return _Ladder(base, group.p, group.order.bit_length())


@lru_cache(maxsize=None)
def _table(group, base):
    # the windows the oracle policy used: 6 for the generator, 5 otherwise
    window = 6 if base == group.generator else 5
    return FixedBaseTable(base, group.p, group.order.bit_length(), window)


@lru_cache(maxsize=None)
def _engine(group):
    """An engine of the test's own, so odd bases stay out of the shared one."""
    return GroupEngine(group.p, group.order, group.generator)


@pytest.fixture(scope="module", autouse=True)
def _free_precomputation():
    """The 2048-bit oracle tables are megabytes each: drop them after."""
    yield
    for cached in (_ladder, _table, _engine):
        cached.cache_clear()


def _assert_agree(group, base, exponent):
    e = exponent % group.order
    want = pow(base, e, group.p)
    assert _ladder(group, base).power(e) == _table(group, base).power(e) == want, (base, exponent)
    assert _engine(group).power(base, exponent) == want


class TestWindow:
    @pytest.mark.parametrize("group, bits, window", [
        (TEST_GROUP_256, 255, 4), (RFC3526_GROUP_2048, 2047, 6),
    ], ids=IDS)
    def test_window_rule(self, group, bits, window):
        assert group.order.bit_length() == bits
        assert _straus_window(bits) == window
        ladder = _ladder(group, group.generator)
        assert ladder.window == window
        assert len(ladder.rungs) == -(-bits // window)
        assert ladder.rungs[1] == pow(group.generator, 1 << window, group.p)


class TestAgainstOracle:
    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    def test_edge_exponents_on_every_base(self, group):
        q, w = group.order, _straus_window(group.order.bit_length())
        for base in _bases(group).values():
            for e in (0, 1, (1 << w) - 1, 1 << w, q - 1, q, q + 1, 2 * q - 1):
                _assert_agree(group, base, e)

    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    def test_random_exponents_on_every_base(self, group):
        rng = random.Random(5)
        draws = 12 if group is TEST_GROUP_256 else 2
        for base in _bases(group).values():
            for _ in range(draws):
                _assert_agree(group, base, rng.randrange(2 * group.order))

    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from(sorted(_bases(TEST_GROUP_256))),
           exponent=st.integers(min_value=0, max_value=1 << 260))
    def test_any_exponent_on_the_small_group(self, base, exponent):
        _assert_agree(TEST_GROUP_256, _bases(TEST_GROUP_256)[base], exponent)

    @pytest.mark.parametrize("group", GROUPS, ids=IDS)
    def test_exp_g_and_fast_power_match_the_promoting_engine(self, group):
        oracle = PromotingEngine(group.p, group.order, group.generator)
        rng = random.Random(6)
        base = group.hash_to_group(b"recurring")
        # six uses: the oracle answers the first three with pow and the
        # rest from its promoted table
        for _ in range(6):
            e = rng.randrange(2 * group.order)
            assert group.exp_g(e) == oracle.generator_power(e)
            assert group.fast_power(base, e) == oracle.power(base, e)
        assert base in oracle.tables


@pytest.fixture
def built(monkeypatch):
    """Fresh engines; the returned list gets the base of every ladder built."""
    bases = []

    class Counting(_Ladder):
        __slots__ = ()

        def __init__(self, base, p, exponent_bits):
            bases.append(base)
            super().__init__(base, p, exponent_bits)

    monkeypatch.setattr(group_mod, "_ENGINES", {})
    monkeypatch.setattr(group_mod, "_Ladder", Counting)
    return bases


class TestTripwires:
    def test_a_beacon_epoch_builds_one_ladder(self, built):
        from repro.protocols.common_coin import BeaconParty
        from repro.runtime import Cluster
        from repro.weighted.transform import blunt_setup

        G = TEST_GROUP_256
        weights = [40, 25, 15, 10, 5, 3, 1, 1]
        setup = blunt_setup(weights, "1/3", "1/2")
        coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(1))
        assert built == [G.generator_root]  # keygen
        values = {}

        def on_value(pid, epoch, value):
            values.setdefault(epoch, {})[pid] = value

        async def drive():
            async with Cluster(
                lambda pid: BeaconParty(pid, coin, random.Random(pid), on_value=on_value),
                len(weights),
            ) as cluster:
                for epoch, ladders in ((1, 2), (2, 3)):
                    for party in cluster.parties:
                        party.start_epoch(epoch)
                    await cluster.run_until(
                        lambda: len(values.get(epoch, ())) == len(weights), timeout=30
                    )
                    h = coin.coin.scheme.message_root(epoch_message(epoch))
                    assert built[-1] == h and len(built) == ladders, epoch

        asyncio.run(drive())
        assert len({v for by_pid in values.values() for v in by_pid.values()}) == 2

    def test_a_cached_base_builds_no_ladder(self, built):
        G = TEST_GROUP_256
        base = G.hash_to_group(b"cached")
        G.fast_power(base, 3)
        assert built == [base]
        rng = random.Random(7)
        for _ in range(20):
            e = rng.randrange(G.order)
            assert G.fast_power(base, e) == pow(base, e, G.p)
            assert G.exp_g(e) == pow(G.generator, e, G.p)
        assert built == [base, G.generator_root]

    def test_ladders_held_are_bounded(self, built):
        G = TEST_GROUP_256
        G.exp_g(1)
        for i in range(100):
            G.fast_power(G.hash_to_group(b"distinct-%d" % i), 5)
        assert len(built) == 101
        assert len(G.engine._ladders) <= _MAX_TABLES
        # the generator's ladder is held apart and never evicted
        assert G.engine._gen_ladder is not None
        G.exp_g(2)
        assert len(built) == 101

    def test_a_2048_bit_ladder_is_small(self):
        G = RFC3526_GROUP_2048
        h = G.hash_to_group(b"memory")
        bits = G.order.bit_length()

        def allocated(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = build()
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            return size

        assert allocated(lambda: _Ladder(h, G.p, bits)) < 150_000
        assert allocated(lambda: FixedBaseTable(h, G.p, bits, 5)) > 3_000_000
