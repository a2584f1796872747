#!/usr/bin/env python3
"""The black-box transformation (paper, Section 4.4): run a *nominal*
VABA unchanged among virtual users to get weighted consensus, and check
the SSLE chain-quality relaxation.

Run:  python examples/consensus_blackbox.py
"""

from repro.protocols import SsleElection, black_box_parties, chain_quality
from repro.sim import SimHost
from repro.sim.adversary import most_tickets_under
from repro.weighted import black_box_setup


def main() -> None:
    # A flatter validator set so the adversary's weight budget actually
    # buys tickets (heavily skewed sets starve it entirely).
    weights = [14, 13, 12, 11, 11, 10, 10, 9, 5, 5]
    print(f"weights: {weights}")

    # f_n = 1/3 nominal resilience, epsilon = 1/12 -> f_w = 1/4.
    setup = black_box_setup(weights, f_n="1/3", epsilon="1/12")
    print(
        f"black-box setup: f_w = {setup.f_w}, f_n = {setup.f_n}; "
        f"T = {setup.total_virtual} virtual users "
        f"(overhead x{setup.total_virtual / len(weights):.2f} vs paper bound x2.25)"
    )

    # --- weighted consensus by simulating the nominal protocol -------------
    outputs: dict[int, bytes] = {}
    parties = black_box_parties(
        setup, coin_seed=3, on_decide=lambda vid, v: outputs.setdefault(vid, v)
    )
    host = SimHost(lambda vid: parties[vid], setup.total_virtual, seed=1)
    for real in range(len(weights)):
        value = f"block-from-{real}".encode()
        for vid in setup.vmap.virtual_ids(real):
            host.party(vid).propose(value)
    host.simulator.run()

    decided = set(outputs.values())
    assert len(decided) == 1, decided
    real_out = setup.real_outputs(outputs)
    print(f"consensus: all {len(real_out)} real parties output {next(iter(decided))!r}")
    print(f"network: {host.metrics.messages} messages among virtual users")

    # --- SSLE chain quality -------------------------------------------------
    corrupt = most_tickets_under(weights, setup.result.assignment.to_list(), setup.f_w)
    election = SsleElection(setup.vmap, beacon_seed=9)
    quality = chain_quality(election, corrupt, epochs=5000)
    ticket_frac = setup.vmap.corrupted_fraction(corrupt)
    print(
        f"\nSSLE: adversary (weight < {setup.f_w}) owns "
        f"{ticket_frac:.1%} of tickets and won {quality:.1%} of 5000 epochs "
        f"-- chain quality bounded by f_n = {float(setup.f_n):.1%} as claimed"
    )
    leaders = [election.elect(e).leader for e in range(8)]
    print(f"first 8 leaders: {leaders} (only the owner could claim each epoch)")


if __name__ == "__main__":
    main()
