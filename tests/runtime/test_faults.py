"""Transport-level fault injection: crash, partition, link delay."""

import asyncio

import pytest

from repro.protocols.reliable_broadcast import BroadcastParty
from repro.protocols.smr import SmrParty
from repro.runtime import Cluster, FaultController, run_cluster
from repro.runtime.codec import default_registry
from repro.runtime.faults import DeliveryDecision
from repro.runtime.transport import InProcTransport
from repro.sim.adversary import heaviest_under
from repro.weighted.quorum import WeightedQuorums

WEIGHTS = [40, 25, 15, 10, 5, 3, 1]
N = len(WEIGHTS)
QUORUMS = WeightedQuorums(WEIGHTS, "1/3")


class TestFaultController:
    def test_crash_drops_both_directions(self):
        faults = FaultController()
        faults.crash(2)
        assert not faults.decide(2, 0).deliver
        assert not faults.decide(0, 2).deliver
        assert faults.decide(0, 1).deliver
        assert faults.dropped_messages == 2

    def test_partition_and_heal(self):
        faults = FaultController()
        faults.partition({0, 1}, {2, 3})
        assert faults.decide(0, 1).deliver
        assert not faults.decide(0, 2).deliver
        faults.heal()
        assert faults.decide(0, 2).deliver

    def test_delays_accumulate(self):
        faults = FaultController()
        faults.delay_all(0.001)
        faults.delay_link(0, 1, 0.002)
        decision = faults.decide(0, 1)
        assert decision.deliver and decision.delay == pytest.approx(0.003)
        assert faults.decide(1, 0).delay == pytest.approx(0.001)
        assert faults.delayed_messages == 2

    def test_default_is_clean_delivery(self):
        decision = FaultController().decide(0, 1)
        assert decision == DeliveryDecision.DELIVER


class TestCrashInjection:
    def test_rbc_survives_crash_under_resilience(self):
        # Crash a sub-f_w weight set; the survivors must still deliver.
        corrupt = heaviest_under(WEIGHTS, "1/3")
        assert corrupt  # the attack is non-trivial
        live = [pid for pid in range(N) if pid not in corrupt]
        sender = live[0]
        faults = FaultController()

        def setup(cluster):
            for pid in corrupt:
                cluster.crash_node(pid)
            cluster.party(sender).broadcast_value(b"survive")

        cluster = run_cluster(
            lambda pid: BroadcastParty(pid, QUORUMS, sender),
            N,
            faults=faults,
            setup=setup,
            stop_when=lambda c: all(
                c.party(pid).delivered == b"survive" for pid in live
            ),
        )
        for pid in corrupt:
            assert cluster.party(pid).delivered is None
        assert faults.dropped_messages > 0

    def test_smr_epoch_survives_crash(self):
        corrupt = heaviest_under(WEIGHTS, "1/3")
        live = [pid for pid in range(N) if pid not in corrupt]

        def setup(cluster):
            for pid in corrupt:
                cluster.crash_node(pid)
            for pid in live:
                cluster.party(pid).propose_batch(0, f"b{pid}".encode())

        cluster = run_cluster(
            lambda pid: SmrParty(pid, N, QUORUMS, lambda epoch: 42),
            N,
            setup=setup,
            stop_when=lambda c: all(
                len(c.party(pid).ordered_log(0)) == len(live) for pid in live
            ),
        )
        logs = {tuple(cluster.party(pid).ordered_log(0)) for pid in live}
        assert len(logs) == 1


class TestPartitionInjection:
    def test_partition_blocks_then_heal_unblocks(self):
        async def drive():
            faults = FaultController()
            async with Cluster(
                lambda pid: BroadcastParty(pid, QUORUMS, 0), N, faults=faults
            ) as cluster:
                # Split so that no side holds an echo quorum of the weight.
                faults.partition({0, 6}, {1, 2, 3, 4, 5})
                cluster.party(0).broadcast_value(b"split")
                with pytest.raises(TimeoutError):
                    await cluster.run_until(
                        lambda: any(p.delivered for p in cluster.parties),
                        timeout=0.2,
                    )
                blocked = [p.delivered for p in cluster.parties]

                # Healing restores asynchrony: totality must now complete.
                # (Pre-partition sends were dropped, so the sender re-sends.
                # Parties 0 and 6 echoed into the partition and do not echo
                # again: they alone see an echo quorum, and their READYs
                # carry the other side over the amplification bound.)
                faults.heal()
                cluster.party(0).broadcast_value(b"split")
                await cluster.run_until(
                    lambda: all(p.delivered == b"split" for p in cluster.parties),
                    timeout=10.0,
                )
                return blocked, faults.dropped_messages

        blocked, dropped = asyncio.run(drive())
        assert blocked == [None] * N
        assert dropped > 0


class TestDeliveryFailures:
    def test_undecodable_frame_surfaces_instead_of_stalling(self):
        # A frame that fails to decode must fail the run loudly (and not
        # leak in_flight into a permanent non-quiescent state).
        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, QUORUMS, 0), N
            ) as cluster:
                transport = cluster.transport
                transport.in_flight += 1  # as if a peer had sent the frame
                with pytest.raises(Exception):
                    transport._deliver(0, 1, b"\x00garbage-frame")
                assert transport.failure is not None
                assert transport.quiescent  # in_flight was released
                with pytest.raises(RuntimeError, match="delivery point"):
                    await cluster.run_until(lambda: False, timeout=1.0)

        asyncio.run(drive())


class TestUnboundDestination:
    def test_frame_for_an_unbound_pid_is_not_judged(self):
        # no handler, no delivery: the fault plan must not count one
        faults = FaultController()
        faults.delay_all(0.05)
        transport = InProcTransport(default_registry(), faults=faults)
        transport.in_flight = 1  # the slot send() opened for this frame
        transport._deliver(0, 5, b"")
        assert faults.delayed_messages == 0
        assert transport.in_flight == 0  # ... but the slot still resolves


class TestDelayInjection:
    def test_settle_waits_out_delayed_messages(self):
        # Quiescence must see messages sleeping in delay timers as
        # in-flight work, not as an idle cluster.
        faults = FaultController()
        faults.delay_all(0.05)

        async def drive():
            async with Cluster(
                lambda pid: BroadcastParty(pid, QUORUMS, 0), N, faults=faults
            ) as cluster:
                cluster.party(0).broadcast_value(b"patience")
                await cluster.settle()
                return [p.delivered for p in cluster.parties]

        assert asyncio.run(drive()) == [b"patience"] * N

    def test_delayed_links_still_deliver(self):
        faults = FaultController()
        faults.delay_all(0.005)
        faults.delay_link(0, 3, 0.02)

        cluster = run_cluster(
            lambda pid: BroadcastParty(pid, QUORUMS, 0),
            N,
            faults=faults,
            setup=lambda c: c.party(0).broadcast_value(b"slow"),
            stop_when=lambda c: all(p.delivered == b"slow" for p in c.parties),
        )
        assert faults.delayed_messages > 0
        # Two delivery hops through >= 5ms links bound the wall clock below.
        assert cluster.metrics.elapsed_seconds >= 0.01
