"""Theorem 4.2 at the protocol: on a chain's ``blunt_setup(WR 1/3 -> 1/2)``
beacon, the heaviest coalition under a third of the weight cannot open
an epoch with its own keys, and the fewest parties holding the
threshold's tickets can.  On aptos and tezos the theorem is also met at
its exact boundary: the coalition under a third that holds the most
tickets (an exact knapsack, :mod:`extremal`) holds ``k - 1`` of them and
cannot open the epoch, where the greedy heaviest coalition holds fewer.
On aptos the cheapest party that brings it to ``k`` crosses a third of
the weight, and then it can.

Only the coalition starts the epoch, so every share in flight is signed
with a key it holds; no honest party signs.
"""

import random

import pytest
from extremal import most_tickets_under

from repro.crypto.common_coin import WeightedCoin
from repro.crypto.group import TEST_GROUP_256 as G
from repro.datasets.chains import load_chain
from repro.protocols.common_coin import BeaconParty
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under
from repro.weighted.transform import blunt_setup

EPOCH = 0


def _beacon(chain: str):
    weights = load_chain(chain).weights
    setup = blunt_setup(weights, "1/3", "1/2")
    coin = WeightedCoin(G, setup.result.assignment, "1/2", random.Random(chain))
    host = SimHost(
        lambda pid: BeaconParty(pid, coin, random.Random(f"{chain}|{pid}")),
        len(weights),
        seed=0,
    )
    return weights, coin, host


def _start(host, coalition) -> int:
    """The coalition starts the epoch; returns the key shares it holds."""
    for pid in coalition:
        host.party(pid).start_epoch(EPOCH)
    host.simulator.run()
    return sum(len(host.party(pid).key) for pid in coalition)


@pytest.mark.parametrize("chain", ["aptos", "tezos"])
def test_a_coalition_under_a_third_cannot_open_an_epoch(chain):
    weights, coin, host = _beacon(chain)
    coalition = sorted(heaviest_under(weights, "1/3"))
    held = _start(host, coalition)
    assert 0 < held < coin.threshold
    assert all(EPOCH not in party.values for party in host.parties)


@pytest.mark.parametrize(
    "chain", ["aptos", pytest.param("tezos", marks=pytest.mark.slow)]
)
def test_the_fewest_parties_holding_the_threshold_open_an_epoch(chain):
    weights, coin, host = _beacon(chain)
    by_tickets = sorted(range(len(weights)), key=lambda p: (-coin.vmap.tickets[p], p))
    coalition = []
    while sum(coin.vmap.tickets[p] for p in coalition) < coin.threshold:
        coalition.append(by_tickets[len(coalition)])
    assert _start(host, coalition) >= coin.threshold
    values = {party.values.get(EPOCH) for party in host.parties}
    assert len(values) == 1 and None not in values


def _worst_under_a_third(weights, coin) -> list[int]:
    """The coalition under a third of the weight holding the most tickets."""
    coalition = most_tickets_under(weights, coin.vmap.tickets, "1/3")
    assert 3 * sum(weights[p] for p in coalition) < sum(weights)
    return coalition


@pytest.mark.parametrize(
    "chain, shape, held",
    [
        # (tickets T, threshold k, greedy coalition's tickets), worst's held
        ("aptos", (63, 32, 27), 31),
        pytest.param("tezos", (125, 63, 57), 62, marks=pytest.mark.slow),
    ],
)
def test_the_exact_worst_coalition_under_a_third_cannot_open_an_epoch(chain, shape, held):
    weights, coin, host = _beacon(chain)
    coalition = _worst_under_a_third(weights, coin)
    greedy = sum(coin.vmap.tickets[p] for p in heaviest_under(weights, "1/3"))
    assert (coin.vmap.total_virtual, coin.threshold, greedy) == shape
    assert _start(host, coalition) == coin.threshold - 1 == held
    assert all(EPOCH not in party.values for party in host.parties)


def test_the_cheapest_party_that_reaches_k_opens_it():
    weights, coin, host = _beacon("aptos")
    tickets = coin.vmap.tickets
    coalition = _worst_under_a_third(weights, coin)
    held = sum(tickets[p] for p in coalition)
    cheapest = min(
        (
            p
            for p in range(len(weights))
            if p not in coalition and held + tickets[p] >= coin.threshold
        ),
        key=lambda p: (weights[p], p),
    )
    opened = coalition + [cheapest]
    # Theorem 4.2 from the other side: k tickets weigh at least a third
    assert 3 * sum(weights[p] for p in opened) >= sum(weights)
    assert _start(host, opened) >= coin.threshold
    values = {party.values.get(EPOCH) for party in host.parties}
    assert len(values) == 1 and None not in values
