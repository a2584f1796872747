"""Live-runtime epoch service: rotation over the in-process transport.

Wall-clock pacing makes slot counts timing-dependent here, so the test
asserts structural invariants (completion, the one dated rotation,
gap-free log, uniform digests) rather than exact slot placement -- the
sim tests pin those deterministically.
"""

from dataclasses import replace

from repro.api import Committee
from repro.runtime import LiveHost
from repro.service import (
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
)
from repro.service.scenario import drift_schedule_for

WEIGHTS = (40, 30, 20, 10)


def test_inproc_rotation_commits_everything():
    committee = Committee.from_weights(WEIGHTS)
    committee.validate(f_w="1/3")
    # The rotation is dated (as the ledger's svc-open dates its own), not
    # counted in slots: a slot-count rotation needs the second 20 ms tick
    # before the last arrival at 43.4 ms, which a slow start-up misses.
    schedule = drift_schedule_for(WEIGHTS, epochs=2)
    manager = EpochManager(replace(schedule, times=(0.02,)), f_w="1/3")
    config = ServiceConfig(f_w="1/3", slot_interval=0.02, max_time=30.0)
    load = LoadGenerator(200.0, 12, payload_size=16, seed=1)
    service = EpochService(
        LiveHost(), manager, config, seed=1, load=load
    )
    result = service.run()

    assert result.completed, result.error
    section = result.service
    assert section["requests_committed"] == 12
    assert section["rotations"] == 1

    n = len(WEIGHTS)
    by_slot = {}
    for slot, position, _payload in service.committed_log:
        by_slot.setdefault(slot, []).append(position)
    assert sorted(by_slot) == list(range(len(by_slot)))
    for positions in by_slot.values():
        assert sorted(positions) == list(range(n))

    for digests in service.epoch_party_digests:
        assert len(digests) == n
        assert len(set(digests.values())) == 1

    # Latencies are wall-clock here; they exist and are sane.
    assert section["latency_p50_s"] is not None
    assert 0 < section["latency_p50_s"] < 30.0
