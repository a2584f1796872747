"""Section 4.4 at its exact boundary: black-box VABA on aptos.

``black_box_setup(aptos, 1/3, 1/12)`` solves ``WR(1/4, 1/3)``: any set of
parties lighter than a quarter of the weight holds fewer than a third of
the ``T`` virtual users, so the nominal protocol's budget ``t`` covers it.
The coalition under a quarter that holds the most tickets (an exact
knapsack, :mod:`extremal`) holds exactly ``t`` of them.  With all of its
virtual users crashed, every other real party proposes, every honest
virtual user decides one value, and the output rule gives that value to
all real parties, the crashed ones and the zero-ticket ones included.
"""

import pytest
from extremal import most_tickets_under

from repro.datasets.chains import load_chain
from repro.protocols.vaba import black_box_parties
from repro.sim import SimHost
from repro.weighted.transform import black_box_setup


@pytest.fixture(scope="module")
def aptos():
    weights = load_chain("aptos").weights
    setup = black_box_setup(weights, "1/3", "1/12")
    tickets = setup.result.assignment.to_list()
    coalition = most_tickets_under(weights, tickets, setup.f_w)
    return weights, setup, tickets, coalition


def test_the_worst_coalition_holds_exactly_the_nominal_budget(aptos):
    weights, setup, tickets, coalition = aptos
    assert (setup.total_virtual, setup.nominal_fault_budget()) == (94, 31)
    assert len(coalition) == 16
    assert sum(tickets[p] for p in coalition) == setup.nominal_fault_budget()
    assert sum(weights[p] for p in coalition) * 4 < sum(weights)


def test_every_honest_party_decides_with_the_worst_coalition_crashed(aptos):
    weights, setup, tickets, coalition = aptos
    outputs: dict[int, bytes] = {}
    parties = black_box_parties(
        setup, coin_seed=5, on_decide=lambda vid, v: outputs.setdefault(vid, v)
    )
    host = SimHost(lambda vid: parties[vid], setup.total_virtual, seed=6)
    crashed = {vid for p in coalition for vid in setup.vmap.virtual_ids(p)}
    for vid in crashed:
        host.party(vid).crash()
    honest = [p for p in range(len(weights)) if p not in coalition]
    for real in honest:
        for vid in setup.vmap.virtual_ids(real):
            host.party(vid).propose(f"real-{real}".encode())
    host.simulator.run()

    assert set(outputs) == set(range(setup.total_virtual)) - crashed
    assert len(outputs) == 63
    [value] = set(outputs.values())
    assert value in {f"real-{p}".encode() for p in honest}
    assert setup.real_outputs(outputs) == {p: value for p in range(len(weights))}
