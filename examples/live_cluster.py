#!/usr/bin/env python3
"""Live cluster walkthrough: the same weighted protocols, off the simulator.

Everything in ``repro.protocols`` is a transport-agnostic ``Party`` state
machine.  This example runs weighted Bracha RBC and one SMR epoch over
the *live* asyncio runtime -- first on in-process queues, then on real
TCP sockets -- and injects a crash fault, comparing its serialized bytes
with the simulator's (both sized by the one codec).

Run:  PYTHONPATH=src python examples/live_cluster.py
"""

from repro.protocols.common_coin import deterministic_coin
from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster, FaultController
from repro.sim import SimHost
from repro.sim.adversary import heaviest_under
from repro.weighted.quorum import WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
QUORUMS = WeightedQuorums(WEIGHTS, "1/3")
PAYLOAD = b"live-broadcast-payload-0123456789"
coin = deterministic_coin("ex")


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def rbc(host):
    """Party 0 broadcasts ``PAYLOAD``: one body for either host."""
    host.run(
        lambda: host.party(0).broadcast_value(PAYLOAD),
        lambda: all(p.delivered == PAYLOAD for p in host.parties),
    )
    return host.metrics


def broadcaster(pid: int) -> BroadcastParty:
    return BroadcastParty(pid, QUORUMS, 0)


def main() -> None:
    print(f"Cluster: n={N}, weights={WEIGHTS}, weighted quorums f_w=1/3")

    # -- 1. Weighted RBC over both live transports ---------------------------------
    for transport in ("inproc", "tcp"):
        section(f"Bracha RBC over {transport}")
        m = rbc(Cluster(broadcaster, N, transport=transport))
        print(f"  delivered by all {N} parties")
        print(f"  {m.messages} messages, {m.bytes} real payload bytes")
        print(f"  wall clock: {m.elapsed_seconds * 1000:.2f} ms")

    # -- 2. Live bytes vs the simulator's (one codec sizes both) ------------------
    section("Live bytes vs simulator bytes (same RBC run)")
    sim = rbc(SimHost(broadcaster, N, seed=1))
    live = rbc(Cluster(broadcaster, N))
    print(f"  {'type':<11} {'sim msgs':>8} {'sim B':>6} {'live msgs':>9} {'live B':>6}")
    for name in sorted(live.by_type):
        print(
            f"  {name:<11} {sim.by_type[name]:>8} {sim.bytes_by_type[name]:>6} "
            f"{live.by_type[name]:>9} {live.bytes_by_type[name]:>6}"
        )

    # -- 3. One SMR epoch over TCP ---------------------------------------------------
    section("SMR epoch over tcp (HoneyBadger-style composition)")
    cluster = Cluster(lambda pid: SmrParty(pid, N, QUORUMS, coin), N, transport="tcp")
    cluster.run(
        lambda: [
            cluster.party(pid).propose_batch(0, f"txbatch-{pid}".encode())
            for pid in range(N)
        ],
        lambda: all(len(p.ordered_log(0)) == N for p in cluster.parties),
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

    cluster = Cluster(lambda pid: BroadcastParty(pid, QUORUMS, survivors[0]), N, faults=faults)

    def setup():
        for pid in corrupt:
            cluster.crash_node(pid)
        cluster.party(survivors[0]).broadcast_value(b"still-alive")

    cluster.run(
        setup, lambda: all(cluster.party(pid).delivered == b"still-alive" for pid in survivors)
    )
    print(f"  crashed parties {sorted(corrupt)}; survivors still delivered")
    print(f"  transport dropped {faults.dropped_messages} messages at crashed links")

    print("\nDone: the sim's protocol code ran unmodified over live transports.")


if __name__ == "__main__":
    main()
