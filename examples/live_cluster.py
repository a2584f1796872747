#!/usr/bin/env python3
"""Live cluster walkthrough: the same weighted protocols, off the simulator.

Everything in ``repro.protocols`` is a transport-agnostic ``Party`` state
machine.  This example runs weighted Bracha RBC and one SMR epoch over
the *live* asyncio runtime -- first on in-process queues, then on real
TCP sockets -- and injects a crash fault, comparing real serialized bytes
with the simulator's wire-size estimates.

Run:  PYTHONPATH=src python examples/live_cluster.py
"""

from repro.protocols.common_coin import deterministic_coin
from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.runtime import FaultController, run_cluster
from repro.sim import build_world
from repro.sim.adversary import heaviest_under
from repro.weighted.quorum import WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
QUORUMS = WeightedQuorums(WEIGHTS, "1/3")
PAYLOAD = b"live-broadcast-payload-0123456789"
coin = deterministic_coin("ex")


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    print(f"Cluster: n={N}, weights={WEIGHTS}, weighted quorums f_w=1/3")

    # -- 1. Weighted RBC over both live transports ---------------------------------
    for transport in ("inproc", "tcp"):
        section(f"Bracha RBC over {transport}")
        cluster = run_cluster(
            lambda pid: BroadcastParty(pid, QUORUMS, 0),
            N,
            transport=transport,
            setup=lambda c: c.party(0).broadcast_value(PAYLOAD),
            stop_when=lambda c: all(p.delivered == PAYLOAD for p in c.parties),
        )
        m = cluster.metrics
        print(f"  delivered by all {N} parties")
        print(f"  {m.messages} messages, {m.bytes} real payload bytes")
        print(f"  wall clock: {m.elapsed_seconds * 1000:.2f} ms")

    # -- 2. Real bytes vs the simulator's estimates --------------------------------
    section("Codec bytes vs simulator estimates (same RBC run)")
    world = build_world(lambda pid: BroadcastParty(pid, QUORUMS, 0), N, seed=1)
    world.party(0).broadcast_value(PAYLOAD)
    world.run()
    live = run_cluster(
        lambda pid: BroadcastParty(pid, QUORUMS, 0),
        N,
        setup=lambda c: c.party(0).broadcast_value(PAYLOAD),
        stop_when=lambda c: all(p.delivered == PAYLOAD for p in c.parties),
    )
    print(f"  {'type':<10} {'msgs':>5} {'sim est. B':>11} {'real B':>8}")
    for name in sorted(live.metrics.by_type):
        print(
            f"  {name:<10} {live.metrics.by_type[name]:>5} "
            f"{world.metrics.bytes_by_type[name]:>11} "
            f"{live.metrics.bytes_by_type[name]:>8}"
        )

    # -- 3. One SMR epoch over TCP ---------------------------------------------------
    section("SMR epoch over tcp (HoneyBadger-style composition)")
    cluster = run_cluster(
        lambda pid: SmrParty(pid, N, QUORUMS, coin),
        N,
        transport="tcp",
        setup=lambda c: [
            c.party(pid).propose_batch(0, f"txbatch-{pid}".encode())
            for pid in range(N)
        ],
        stop_when=lambda c: all(len(p.ordered_log(0)) == N for p in c.parties),
    )
    log = cluster.party(0).ordered_log(0)
    assert all(cluster.party(pid).ordered_log(0) == log for pid in range(N))
    print(f"  all replicas agree on the epoch log: {[p for p, _ in log]}")
    print(f"  epoch latency: {cluster.metrics.elapsed_seconds * 1000:.2f} ms")

    # -- 4. Crash-fault injection ------------------------------------------------------
    section("Crash fault: silence a sub-f_w weight set")
    corrupt = heaviest_under(WEIGHTS, "1/3")
    survivors = [pid for pid in range(N) if pid not in corrupt]
    faults = FaultController()

    def setup(c):
        for pid in corrupt:
            c.crash_node(pid)
        c.party(survivors[0]).broadcast_value(b"still-alive")

    cluster = run_cluster(
        lambda pid: BroadcastParty(pid, QUORUMS, survivors[0]),
        N,
        faults=faults,
        setup=setup,
        stop_when=lambda c: all(
            c.party(pid).delivered == b"still-alive" for pid in survivors
        ),
    )
    print(f"  crashed parties {sorted(corrupt)}; survivors still delivered")
    print(f"  transport dropped {faults.dropped_messages} messages at crashed links")

    print("\nDone: the sim's protocol code ran unmodified over live transports.")


if __name__ == "__main__":
    main()
