"""Benchmark P4 -- the black-box transformation (paper, Section 4.4).

Measures the virtual-user overhead of black-box weighted VABA against
the nominal protocol at the same party count, and the SSLE chain-quality
relaxation: the adversary's won-epoch fraction stays below ``f_n`` while
its weight may reach ``f_w = f_n - epsilon``.
"""

import pytest

from repro.analysis.report import write_csv_rows
from repro.protocols.ssle import SsleElection, chain_quality
from repro.protocols.vaba import VabaParty, black_box_parties
from repro.sim import SimHost
from repro.sim.adversary import most_tickets_under
from repro.weighted import black_box_setup

WEIGHTS = [14, 13, 12, 11, 11, 10, 10, 9, 5, 5]
N = len(WEIGHTS)


def _run_nominal_vaba(n, seed=0):
    t = (n - 1) // 3
    host = SimHost(lambda pid: VabaParty(pid, n, t, coin_seed=seed), n, seed=seed)
    for pid in range(n):
        host.party(pid).propose(b"value")
    host.simulator.run()
    assert all(p.decided == b"value" for p in host.parties)
    return host.metrics


def _run_blackbox_vaba(setup, seed=0):
    outputs = {}
    parties = black_box_parties(
        setup, coin_seed=seed, on_decide=lambda vid, v: outputs.setdefault(vid, v)
    )
    host = SimHost(lambda vid: parties[vid], setup.total_virtual, seed=seed)
    for real in range(N):
        for vid in setup.vmap.virtual_ids(real):
            host.party(vid).propose(b"value")
    host.simulator.run()
    assert len(set(outputs.values())) == 1
    real_out = setup.real_outputs(outputs)
    assert len(real_out) == N
    return host.metrics, setup.total_virtual


def test_blackbox_vaba_overhead(benchmark):
    setup = black_box_setup(WEIGHTS, "1/3", "1/12")
    nominal_metrics = _run_nominal_vaba(N, seed=1)
    (weighted_metrics, n_virtual) = benchmark.pedantic(
        lambda: _run_blackbox_vaba(setup, seed=1), rounds=1, iterations=1
    )
    user_factor = n_virtual / N
    msg_factor = weighted_metrics.messages / max(nominal_metrics.messages, 1)
    print(
        f"\nblack-box VABA: T={n_virtual} virtual users over n={N} "
        f"(x{user_factor:.2f}, bound x2.25); messages x{msg_factor:.2f} "
        f"(quadratic protocol -> expect ~x{user_factor**2:.2f})"
    )
    write_csv_rows(
        "blackbox_vaba.csv",
        ["layout", "users", "messages", "bytes"],
        [
            ["nominal", N, nominal_metrics.messages, nominal_metrics.bytes],
            ["weighted", n_virtual, weighted_metrics.messages, weighted_metrics.bytes],
        ],
    )
    assert user_factor <= 2.25 + 1e-9


def test_ssle_chain_quality(benchmark):
    setup = black_box_setup(WEIGHTS, "1/3", "1/12")
    tickets = setup.result.assignment.to_list()
    corrupt = most_tickets_under(WEIGHTS, tickets, setup.f_w)
    election = SsleElection(setup.vmap, beacon_seed=4)

    quality = benchmark.pedantic(
        lambda: chain_quality(election, corrupt, epochs=20000),
        rounds=1,
        iterations=1,
    )
    ticket_frac = setup.vmap.corrupted_fraction(corrupt)
    corrupt_weight = sum(WEIGHTS[i] for i in corrupt) / sum(WEIGHTS)
    print(
        f"\nSSLE: adversary weight {corrupt_weight:.1%} (< f_w={float(setup.f_w):.1%}), "
        f"tickets {ticket_frac:.1%}, won {quality:.1%} of 20000 epochs "
        f"[chain-quality bound f_n = {float(setup.f_n):.1%}]"
    )
    write_csv_rows(
        "ssle_chain_quality.csv",
        ["corrupt_weight", "ticket_fraction", "win_fraction", "f_n"],
        [[f"{corrupt_weight:.4f}", f"{ticket_frac:.4f}", f"{quality:.4f}", f"{float(setup.f_n):.4f}"]],
    )
    assert quality < float(setup.f_n)
    assert ticket_frac < float(setup.f_n)
