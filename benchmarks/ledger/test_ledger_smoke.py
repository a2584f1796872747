"""Tier-1 smoke test of the ledger: the declared metric lists are
well-formed and are exactly what the runs produce, the self-time
arithmetic is right on a call tree small enough to do by hand, and a
traced run leaves the program as it found it.

Every workload runs at ``--smoke`` scale, in this process.
"""

import asyncio
import re

import pytest

from repro.api import policy
from repro.runtime.codec import CodecRegistry
from repro.runtime.transport import Transport
from repro.sim.process import Party

import repro.api

from . import workloads
from .harness import run_workload
from .report import GATED_COUNTS, cell_summary, compare, load_spec
from .trace import Target, Tracer

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _wrapped_now():
    """Identities a traced run replaces (a method, a function bound in
    two modules, the bind patch)."""
    return (
        vars(CodecRegistry)["encode"],
        vars(Party)["receive"],
        vars(Transport)["bind"],
        policy.solve_with_policy,
        repro.api.solve_with_policy,
    )


@pytest.mark.tcp
def test_every_workload_prints_exactly_the_declared_metrics():
    before = _wrapped_now()
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    measured_somewhere = set()
    for name in workloads.NAMES:
        plain = run_workload(name, seconds=0.05, smoke=True)
        assert plain["correct"], plain["failures"]
        assert plain["attempted"] >= 1 and plain["failed"] == 0
        assert set(plain["metrics"]) == set(plain["produced"]) == end_to_end
        assert all(cell["value"] > 0 for cell in plain["metrics"].values())

        traced = run_workload(name, seconds=0.05, smoke=True, trace=True)
        assert traced["correct"], traced["failures"]
        assert set(traced["metrics"]) == per_layer
        measured_somewhere.update(traced["produced"])
        # a traced run puts every original back
        assert _wrapped_now() == before
    # No declared per-layer metric is a name that nothing ever measures
    # (the smoke scale solves only some of the full scale's chain cells).
    measured_somewhere.update(
        f"core.cold_solve_s.{chain}-{problem}"
        for chain, problem in workloads.params("solve-chains").cells
    )
    assert measured_somewhere == per_layer


class _Toy:
    def a(self):
        self.b()
        self.b()
        self.c()

    def b(self):
        self.c()

    def c(self):
        pass

    async def send(self):
        self.c()
        await asyncio.sleep(0)
        self.c()


def test_self_time_arithmetic_on_a_toy_call_tree():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    originals = {name: vars(_Toy)[name] for name in ("a", "b", "c", "send")}
    with tracer:
        tracer.install([
            Target(_Toy, "a", "upper", "toy.a"),
            Target(_Toy, "b", "lower", "toy.b"),
            Target(_Toy, "c", "lower", "toy.c"),
            Target(_Toy, "send", "wire", "toy.send", is_async=True),
        ])
        tracer.begin_window()
        toy = _Toy()
        # One clock tick per span boundary: a spans ticks 0..11, each b
        # three ticks around a one-tick c, then a's own c.
        toy.a()
        asyncio.run(toy.send())  # ticks 12..17: send 12-17, c 13-14, c 15-16
        tracer.end_window()
        totals = tracer.window_totals
        assert totals.calls == {"toy.a": 1, "toy.b": 2, "toy.c": 5, "toy.send": 1}
        assert totals.busy == {"toy.a": 11, "toy.b": 6, "toy.c": 5, "toy.send": 5}
        assert totals.self_s == {"toy.a": 4, "toy.b": 4, "toy.c": 5, "toy.send": 0}
        # a's children cover 3 + 3 + 1 of its 11 ticks; layers sum to the
        # synchronous time (a's 11 ticks + the two c's under send)
        assert totals.by_layer() == {"upper": 4, "lower": 9, "wire": 0}
        assert tracer.self_times_from_spans() == totals.self_s
        spans = list(tracer.spans())
        assert [s["name"] for s in spans[:3]] == ["_Toy.a", "_Toy.b", "_Toy.c"]
        assert [s["parent"] for s in spans[:3]] == [-1, 0, 1]
        send = next(s for s in spans if s["async"])
        assert [s["parent"] for s in spans if s["id"] > send["id"]] == [send["id"]] * 2
    assert {name: vars(_Toy)[name] for name in originals} == originals


def test_compare_verdicts():
    spec = {"end_to_end": [
        {"name": "quiet_ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "quiet_op_latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]}

    def result(
        ops, latency_values, *, cpus=2, scale="full", failed=0.0, messages=None, window_ops=None
    ):
        run = {
            "failed_ops_frac": failed,
            "end_to_end": {
                "quiet_ops_per_s": {"unit": "1/s", **cell_summary([ops])},
                "quiet_op_latency_p50_s": {"unit": "s", **cell_summary(latency_values)},
            },
            "window": {},
            "per_layer": {},
        }
        if window_ops is not None:
            run["window"] = {
                "window.ops_per_s": {"unit": "1/s", **cell_summary([window_ops])},
                "window.op_latency_p50_s": {"unit": "s", **cell_summary(latency_values)},
            }
        if messages is not None:
            run["per_layer"] = {
                name: {"unit": "1/op", **cell_summary([messages])} for name in GATED_COUNTS
            }
        return {
            "env": {"cpus": cpus, "scale": scale, "loadavg_1min": 0.1},
            "run_seconds": 15.0,
            "workloads": {"smr-tcp": run},
        }

    def verdicts(lines):
        return {line.split()[1]: line.split()[-1] for line in lines if "smr-tcp" in line}

    base = result(100.0, [1.0, 1.0, 1.0], messages=64.0)
    lines, status = compare(base, result(100.0, [1.0], messages=64.0), spec)
    assert status == 0 and set(verdicts(lines).values()) == {"ok"}
    lines, status = compare(base, result(80.0, [1.0, 1.5, 2.0]), spec)
    assert status == 1
    # the latency cell's own spread is wider than its bound
    assert verdicts(lines) == {
        "failed_ops_frac": "ok",
        "quiet_ops_per_s": "regressed", "quiet_op_latency_p50_s": "unresolved",
    }
    # failed ops and exact counts carry a bound of 0
    lines, status = compare(base, result(100.0, [1.0], failed=0.01, messages=65.0), spec)
    assert status == 1
    assert verdicts(lines) == {
        "failed_ops_frac": "regressed",
        "quiet_ops_per_s": "ok", "quiet_op_latency_p50_s": "ok",
        **dict.fromkeys(GATED_COUNTS, "regressed"),
    }
    # a cost outside the quiet blocks shows in the whole-window twin
    lines, status = compare(
        result(100.0, [1.0], window_ops=90.0), result(100.0, [1.0], window_ops=70.0), spec
    )
    assert status == 1
    assert verdicts(lines)["quiet_ops_per_s"] == "ok"
    assert verdicts(lines)["window.ops_per_s"] == "regressed"
    # a cell or workload of one file that the other lacks
    fewer = result(100.0, [1.0])
    del fewer["workloads"]["smr-tcp"]["end_to_end"]["quiet_ops_per_s"]
    lines, status = compare(base, fewer, spec)
    assert status == 1 and verdicts(lines)["quiet_ops_per_s"] == "missing"
    fewer["workloads"] = {}
    lines, status = compare(base, fewer, spec)
    assert status == 1 and verdicts(lines) == {"*": "missing"}
    # files that cannot be set against each other are not gated at all
    for other in (result(50.0, [3.0], cpus=1), result(50.0, [3.0], scale="smoke")):
        lines, status = compare(base, other, spec)
        assert status == 2 and set(verdicts(lines).values()) == {"ungated"}
