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
from repro.runtime import Cluster, run_cluster
from repro.sim import build_world
from repro.weighted.quorum import NominalQuorums, WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
PAYLOAD = b"swiper-live-payload"


_coin = deterministic_coin("eq")


def _sim_rbc(quorums):
    world = build_world(lambda pid: BroadcastParty(pid, quorums, 0), N, seed=7)
    world.party(0).broadcast_value(PAYLOAD)
    world.run()
    return world


def _runtime_rbc(quorums):
    return run_cluster(
        lambda pid: BroadcastParty(pid, quorums, 0),
        N,
        transport="inproc",
        setup=lambda c: c.party(0).broadcast_value(PAYLOAD),
        stop_when=lambda c: all(p.delivered is not None for p in c.parties),
    )


class TestRbcEquivalence:
    def test_weighted_rbc_same_outputs_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        world = _sim_rbc(quorums)
        cluster = _runtime_rbc(quorums)
        assert [p.delivered for p in cluster.parties] == [
            world.party(pid).delivered for pid in range(N)
        ]
        assert all(p.delivered == PAYLOAD for p in cluster.parties)

    def test_weighted_rbc_same_message_counts_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        world = _sim_rbc(quorums)
        cluster = _runtime_rbc(quorums)
        assert dict(cluster.metrics.by_type) == dict(world.metrics.by_type)
        assert cluster.metrics.messages == world.metrics.messages

    def test_nominal_rbc_same_outputs_as_sim(self):
        quorums = NominalQuorums(n=N, t=2)
        world = _sim_rbc(quorums)
        cluster = _runtime_rbc(quorums)
        assert [p.delivered for p in cluster.parties] == [
            world.party(pid).delivered for pid in range(N)
        ]


class TestSmrEquivalence:
    def _payloads(self, epoch):
        return {pid: f"e{epoch}-p{pid}".encode() for pid in range(N)}

    def test_smr_epoch_same_log_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        payloads = self._payloads(0)

        world = build_world(
            lambda pid: SmrParty(pid, N, quorums, _coin), N, seed=11
        )
        for pid in range(N):
            world.party(pid).propose_batch(0, payloads[pid])
        world.run()

        cluster = run_cluster(
            lambda pid: SmrParty(pid, N, quorums, _coin),
            N,
            transport="inproc",
            setup=lambda c: [
                c.party(pid).propose_batch(0, payloads[pid]) for pid in range(N)
            ],
            stop_when=lambda c: all(
                len(p.ordered_log(0)) == N for p in c.parties
            ),
        )

        sim_log = world.party(0).ordered_log(0)
        assert len(sim_log) == N
        for pid in range(N):
            assert cluster.party(pid).ordered_log(0) == sim_log

    def test_smr_epoch_same_message_counts_as_sim(self):
        quorums = WeightedQuorums(WEIGHTS, "1/3")
        payloads = self._payloads(1)

        world = build_world(
            lambda pid: SmrParty(pid, N, quorums, _coin), N, seed=13
        )
        for pid in range(N):
            world.party(pid).propose_batch(1, payloads[pid])
        world.run()

        cluster = run_cluster(
            lambda pid: SmrParty(pid, N, quorums, _coin),
            N,
            transport="inproc",
            setup=lambda c: [
                c.party(pid).propose_batch(1, payloads[pid]) for pid in range(N)
            ],
            stop_when=lambda c: all(
                len(p.ordered_log(1)) == N for p in c.parties
            ),
        )
        assert dict(cluster.metrics.by_type) == dict(world.metrics.by_type)


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
        assert cluster.total_counter("deliveries") == N

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
