#!/usr/bin/env python3
"""Quickstart for the committee-centric facade (repro.api): one object
model from weights, through ticket assignment, to protocol execution.

Run:  PYTHONPATH=src python examples/quickstart_api.py
"""

from repro.api import Committee
from repro.core import WeightRestriction
from repro.scenarios import ScenarioSpec, WeightSpec, run_scenario

# 1. A committee from any weight source -- here a seeded Zipf stake
#    distribution; Committee.from_chain / from_file / from_weights work
#    the same way.
committee = Committee.synthetic("zipf", n=10, total=1000, skew=1.2, seed=7)
print(f"committee      : {committee}")
print(f"weights        : {committee.int_weights}  (W = {committee.total_weight})")

# 2. Weights -> tickets through the solver-policy registry.  Every policy
#    returns the same uniform result: bound, achieved total, verdict.
problem = WeightRestriction("1/3", "1/2")
for policy in ("swiper", "swiper-linear", "brute-force"):
    r = committee.solve(problem, policy)
    print(
        f"{policy:<14} : T={r.achieved} (bound {r.bound}), "
        f"max={r.max_tickets}, holders={r.holders}, verdict={r.verdict}"
    )

# 3. Tickets -> execution.  A ScenarioSpec names the protocol and pins the
#    committee's resolved weights; run_scenario executes it on a backend
#    and emits the scenario engine's unified record.
spec = ScenarioSpec(
    name="api-quickstart",
    protocol="rbc",
    weights=WeightSpec("explicit", values=tuple(committee.int_weights)),
    seed=committee.seed,
)
sim = run_scenario(spec, committee=committee)  # deterministic discrete-event simulation
live = run_scenario(spec, backend="inproc", timeout=30.0, committee=committee)  # real asyncio run

print(f"\nsim            : {sim.messages} msgs, {sim.bytes} B, "
      f"completed={sim.completed}")
print(f"inproc         : {live.messages} msgs, {live.bytes} B, "
      f"completed={live.completed}")
assert sim.decided == live.decided  # both backends decided the same values
print("decided values agree across backends")
