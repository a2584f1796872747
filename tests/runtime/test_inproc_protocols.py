"""Live InProc runtime delivers the same protocol outputs as the simulator.

The acceptance bar for the second execution backend: on identical inputs
(weights, payloads, coin), weighted Bracha RBC and an SMR epoch must
produce outputs *identical* to the discrete-event sim -- same delivered
payloads, same ordered logs, and (because these protocols send each
phase message exactly once per party) the same per-type message counts.
"""

import asyncio

from repro.protocols.common_coin import deterministic_coin
from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster
from repro.sim import SimHost
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
PAYLOAD = b"swiper-live-payload"


_coin = deterministic_coin("eq")


def _rbc(host_type, quorums):
    """One weighted RBC from party 0, on either host."""
    host = host_type(lambda pid: BroadcastParty(pid, quorums, 0), N)
    host.run(
        lambda: host.party(0).broadcast_value(PAYLOAD),
        lambda: all(p.delivered is not None for p in host.parties),
    )
    return host


def _smr_epoch(host_type, quorums, epoch):
    """One SMR epoch with a batch from every replica, on either host."""
    payloads = {pid: f"e{epoch}-p{pid}".encode() for pid in range(N)}
    host = host_type(lambda pid: SmrParty(pid, N, quorums, _coin), N)
    host.run(
        lambda: [host.party(pid).propose_batch(epoch, payloads[pid]) for pid in range(N)],
        lambda: all(len(p.ordered_log(epoch)) == N for p in host.parties),
    )
    return host


class TestRbcEquivalence:
    def test_weighted_rbc_same_outputs_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        sim = _rbc(SimHost, quorums)
        cluster = _rbc(Cluster, quorums)
        assert [p.delivered for p in cluster.parties] == [
            sim.party(pid).delivered for pid in range(N)
        ]
        assert all(p.delivered == PAYLOAD for p in cluster.parties)

    def test_weighted_rbc_same_message_counts_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        sim = _rbc(SimHost, quorums)
        cluster = _rbc(Cluster, quorums)
        assert dict(cluster.metrics.by_type) == dict(sim.metrics.by_type)
        assert cluster.metrics.messages == sim.metrics.messages

    def test_nominal_rbc_same_outputs_as_sim(self):
        quorums = NominalQuorums(n=N, t=2)
        sim = _rbc(SimHost, quorums)
        cluster = _rbc(Cluster, quorums)
        assert [p.delivered for p in cluster.parties] == [
            sim.party(pid).delivered for pid in range(N)
        ]


class TestSmrEquivalence:
    def test_smr_epoch_same_log_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        sim = _smr_epoch(SimHost, quorums, 0)
        cluster = _smr_epoch(Cluster, quorums, 0)

        sim_log = sim.party(0).ordered_log(0)
        assert len(sim_log) == N
        for pid in range(N):
            assert cluster.party(pid).ordered_log(0) == sim_log

    def test_smr_epoch_same_message_counts_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        sim = _smr_epoch(SimHost, quorums, 1)
        cluster = _smr_epoch(Cluster, quorums, 1)
        assert dict(cluster.metrics.by_type) == dict(sim.metrics.by_type)


class TestClusterApi:
    def test_async_context_manager(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, quorums, 0), N
            ) as cluster:
                cluster.party(0).broadcast_value(b"ctx")
                await cluster.run_until(
                    lambda: all(p.delivered == b"ctx" for p in cluster.parties)
                )
                return cluster

        cluster = asyncio.run(drive())
        assert cluster.metrics.elapsed_seconds > 0
        assert sum(p.counters["deliveries"] for p in cluster.parties) == N

    def test_settle_reaches_quiescence(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, quorums, 0), N
            ) as cluster:
                cluster.party(0).broadcast_value(b"quiesce")
                await cluster.settle()
                return [p.delivered for p in cluster.parties]

        assert asyncio.run(drive()) == [b"quiesce"] * N

    def test_run_until_timeout_reports_backlog(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, quorums, 0), N
            ) as cluster:
                try:
                    await cluster.run_until(lambda: False, timeout=0.05)
                except TimeoutError as exc:
                    return str(exc)
                return None

        message = asyncio.run(drive())
        assert message is not None and "stop condition" in message

    def test_pump_failures_surface_instead_of_stalling(self):
        # Sending an unregistered message type must fail the run loudly
        # (CodecError chained), not hang until the stop-condition timeout.
        from dataclasses import dataclass

        from repro.runtime.codec import CodecError

        @dataclass(frozen=True)
        class Unregistered:
            payload: bytes

        quorums = WeightedQuorums(WEIGHTS, "1/3")

        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, quorums, 0), N
            ) as cluster:
                cluster.party(0).broadcast(Unregistered(b"boom"))
                await cluster.run_until(lambda: False, timeout=5.0)

        try:
            asyncio.run(drive())
        except RuntimeError as exc:
            assert isinstance(exc.__cause__, CodecError)
        else:
            raise AssertionError("expected the codec failure to surface")

    def test_unknown_transport_rejected(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        try:
            Cluster(lambda pid: BroadcastParty(pid, quorums, 0), N, transport="carrier-pigeon")
        except ValueError as exc:
            assert "unknown transport" in str(exc)
        else:
            raise AssertionError("expected ValueError")
