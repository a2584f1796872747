#!/usr/bin/env python3
"""Weighted erasure-coded storage (AVID) with fault injection
(paper, Section 5.1): Weight Qualification picks the fragment layout so
any >1/3-weight coalition can reconstruct.

Run:  python examples/erasure_storage.py
"""

import random

from repro.codes import ReedSolomon
from repro.protocols import AvidParty
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under
from repro.weighted import WeightedQuorums, qualification_setup


def main() -> None:
    weights = [40, 25, 15, 10, 5, 3, 1, 1]
    n = len(weights)
    print(f"validators: {weights} (W = {sum(weights)})")

    # WQ(beta_w = 1/3, beta_n = 1/4): fragments per ticket, (k, m) coding.
    setup = qualification_setup(weights, "1/3", "1/4")
    print(
        f"WQ solution: T = {setup.total_shards} fragments, "
        f"k = {setup.data_shards} to reconstruct "
        f"(rate {float(setup.rate):.3f} vs nominal 1/3 -- paper's x1.33 comm overhead)"
    )
    for pid in range(n):
        print(f"  party {pid} (weight {weights[pid]:>2}): {setup.vmap.tickets[pid]} fragment(s)")

    code = ReedSolomon(k=setup.data_shards, m=setup.total_shards)
    quorums = WeightedQuorums(weights, "1/3")
    host = SimHost(lambda pid: AvidParty(pid, quorums), n, seed=11)

    rng = random.Random(0)
    data = rng.randbytes(4 * code.k)  # a few stripes of payload
    print(f"\ndispersing a {len(data)}-byte payload as block fragments...")
    commitment = host.party(0).disperse(data, code, setup.vmap)
    host.simulator.run()
    stored = sum(1 for p in host.parties if p.stored_commitment == commitment)
    print(f"stored: {stored}/{n} parties confirmed the commitment")

    # Fault injection: crash the heaviest coalition under 1/3 weight.
    corrupt = heaviest_under(weights, "1/3")
    for pid in corrupt:
        host.party(pid).crash()
    print(f"crashing parties {sorted(corrupt)} (weight {sum(weights[i] for i in corrupt)}/100)")

    retriever = next(p for p in range(n) if p not in corrupt)
    host.party(retriever).retrieve(commitment)
    host.simulator.run()
    ok = host.party(retriever).retrieved == data
    print(f"party {retriever} retrieval after crashes: {'SUCCESS' if ok else 'FAILED'}")
    assert ok

    print(
        f"\nnetwork: {host.metrics.messages} messages; "
        f"fragment bytes by type: { {k: v for k, v in host.metrics.bytes_by_type.items()} }"
    )


if __name__ == "__main__":
    main()
