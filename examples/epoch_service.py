"""Epoch service walkthrough: a long-lived committee under drifting stake.

Runs the same replicated service twice:

1. on the deterministic simulator -- open-loop Poisson load over three
   committee generations, stake drifting between epochs, checkpoint
   handover at every rotation;
2. on the live asyncio runtime (in-process transport) -- same service,
   wall-clock pacing, epochs retired mid-run.

Along the way it shows the part the paper cares about: the epoch
manager re-solves the weight-reduction instance at every rotation, and
a small stake delta takes the incremental patched-stream path instead
of a cold solve.

Run:  PYTHONPATH=src python examples/epoch_service.py
"""

from repro.api import Committee
from repro.runtime import LiveHost
from repro.service import (
    DriftSchedule,
    EpochManager,
    EpochService,
    LoadGenerator,
    ServiceConfig,
)
from repro.sim import SimHost


def build_service(host, *, seed=0):
    committee = Committee.synthetic("zipf", n=6, total=600, skew=1.2, seed=seed)
    committee.validate(f_w="1/3")
    weights = tuple(committee.int_weights)
    # Two small drifts: epoch 1 bumps party 0, epoch 2 bumps party 1.
    schedule = DriftSchedule(
        initial=weights,
        drifts=(
            (1, 0, weights[0] + weights[0] // 8),
            (2, 1, weights[1] + weights[1] // 8),
        ),
    )
    manager = EpochManager(schedule, f_w="1/3")
    config = ServiceConfig(slot_interval=0.05, slots_per_epoch=3, max_time=60.0)
    load = LoadGenerator(rate=60.0, requests=36, payload_size=32, seed=seed)
    return EpochService(host, manager, config, seed=seed, load=load)


def describe(result, service):
    svc = result.service
    print(f"  completed : {result.completed}")
    print(
        f"  requests  : {svc['requests_committed']}/{svc['requests_submitted']} "
        f"over {svc['slots']} slots, {svc['rotations']} rotations"
    )
    print(
        f"  latency   : p50 {svc['latency_p50_s']}s  p99 {svc['latency_p99_s']}s "
        f"({svc['ops_per_sec']} ops/sec)"
    )
    for ep in svc["epochs"]:
        print(
            f"    epoch {ep['epoch']}: n={ep['n']} tickets={ep['total_tickets']} "
            f"solve={ep['solver_mode']} requests={ep['requests']}"
        )
    digests = service.epoch_party_digests[-1]
    assert len(set(digests.values())) == 1, "replicas disagree on the log!"
    print(f"  final epoch digest (all {len(digests)} replicas agree): "
          f"{next(iter(digests.values()))}")


def main():
    print("== sim backend (virtual time, fully deterministic) ==")
    sim_service = build_service(SimHost())
    sim_result = sim_service.run()
    describe(sim_result, sim_service)
    modes = [e.solver_mode for e in sim_service.metrics.epochs]
    assert modes[0] == "cold" and "incremental" in modes[1:]
    print(f"  solver    : cold first epoch, then {modes.count('incremental')} "
          f"incremental re-solve(s)")

    print("\n== inproc backend (live asyncio runtime, wall clock) ==")
    live_service = build_service(LiveHost())
    live_result = live_service.run()
    describe(live_result, live_service)

    assert sim_result.completed and live_result.completed
    print("\nSame service, two hosts, gap-free logs on both.")


if __name__ == "__main__":
    main()
