#!/usr/bin/env python3
"""Weighted randomness beacon on the simulated asynchronous network
(paper, Section 4.1): Weight Restriction turns a nominal threshold
signature scheme into a weighted common coin.

Part two opens a coin with T > 1000 tickets through the batched crypto
engine: all quorum shares are verified in one random-linear-combination
aggregate and combined with one Straus multi-exponentiation, instead of
thousands of scalar ``pow`` chains.

Run:  python examples/randomness_beacon.py
"""

import random
import time

from repro.crypto import WeightedCoin
from repro.crypto.group import TEST_GROUP_256
from repro.datasets import tezos
from repro.protocols import BeaconParty
from repro.sim import SimHost
from repro.sim.adversary import most_tickets_under
from repro.weighted import blunt_setup


def main() -> None:
    # Take a 20-party bootstrap of the Tezos snapshot for a quick demo.
    snap = tezos()
    rng = random.Random(42)
    weights = [snap.weights[rng.randrange(snap.n)] for _ in range(20)]
    print(f"20 bootstrapped Tezos bakers, W = {sum(weights):,}")

    # WR(f_w = 1/3, alpha_n = 1/2): the blunt setup for the coin.
    setup = blunt_setup(weights, "1/3", "1/2")
    tickets = setup.result.assignment
    print(
        f"Swiper allocated T = {tickets.total} tickets "
        f"(bound {setup.result.ticket_bound}), threshold = {setup.threshold}"
    )

    # Dealer-based setup of the unique threshold signature scheme.
    coin = WeightedCoin(TEST_GROUP_256, tickets, "1/2", rng)

    # The adversary grabs as many tickets as its 1/3 weight budget buys.
    corrupt = most_tickets_under(weights, tickets.to_list(), "1/3")
    corrupt_tickets = sum(tickets[i] for i in corrupt)
    print(
        f"adversary: parties {sorted(corrupt)} hold {corrupt_tickets} tickets "
        f"(< threshold {setup.threshold}: cannot predict the coin)"
    )

    # Run three beacon epochs over the asynchronous network.
    host = SimHost(
        lambda pid: BeaconParty(pid, coin, random.Random(1000 + pid)),
        len(weights),
        seed=7,
    )
    for epoch in (1, 2, 3):
        for pid in setup.vmap.parties_with_tickets():
            host.party(pid).start_epoch(epoch)
    host.simulator.run()

    for epoch in (1, 2, 3):
        values = {p.values.get(epoch) for p in host.parties}
        assert len(values) == 1, "all parties must agree"
        print(f"epoch {epoch}: beacon value = {next(iter(values)) % 10**12:012d}... (agreed by all)")

    total_shares = sum(p.counters["shares_signed"] for p in host.parties)
    per_epoch = total_shares / 3
    print(
        f"\nwork: {per_epoch:.0f} signature shares per epoch (= T = {tickets.total}; "
        f"a nominal protocol with n = {len(weights)} parties signs {len(weights)} "
        f"-- overhead x{per_epoch / len(weights):.2f}, paper worst-case bound x1.33)"
    )
    print(f"network: {host.metrics.messages} messages, {host.metrics.bytes:,} bytes")

    # -- part two: a 1024-ticket coin through the batch engine ----------------
    print("\n-- batched opening at beacon scale --")
    tickets_big = [8] * 128  # T = 1024 virtual signers, threshold 512
    coin_big = WeightedCoin(TEST_GROUP_256, tickets_big, "1/2", rng)
    epoch = 1
    shares = []
    for party in range(96):  # 768 tickets: a comfortable quorum
        shares.extend(coin_big.shares_of_party(party, epoch, rng))
    print(
        f"T = {coin_big.total_shares} tickets, threshold = {coin_big.threshold}, "
        f"{len(shares)} shares received"
    )

    start = time.perf_counter()
    verdicts = coin_big.verify_shares(shares, epoch)  # one aggregate check
    good = [s for s, ok in zip(shares, verdicts) if ok]
    value_batch = coin_big.coin.open(good, epoch, verify=False)
    t_batch = time.perf_counter() - start

    # Per-share oracle on a slice, scaled: the seed path is linear.
    sample = shares[:32]
    start = time.perf_counter()
    assert all(coin_big.coin.verify_share(s, epoch) for s in sample)
    t_seed_est = (time.perf_counter() - start) * (len(shares) / len(sample))

    # Uniqueness: a different share subset opens to the same value.
    value_oracle = coin_big.coin.open(shares[200 : 200 + coin_big.threshold], epoch)
    assert value_batch == value_oracle, "batch and oracle coin values must agree"
    print(
        f"batch open: {t_batch:.3f}s (verify {len(shares)} shares + combine) vs "
        f"~{t_seed_est:.3f}s per-share verification alone -- "
        f"{t_seed_est / t_batch:.1f}x, bit-identical value"
    )


if __name__ == "__main__":
    main()
