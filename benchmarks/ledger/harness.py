"""One measured run of one workload: set up, measure, check, print every
metric by name, and end with the result object.

This is what ``benchmarks/ledger/run.py`` executes::

    python3 benchmarks/ledger/run.py --workload svc-open --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run with the layers' entry points wrapped
and reports the per-layer metrics instead.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the exit status is
non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from typing import Optional

from . import layers, workloads
from .drivers import DRIVERS
from .report import load_spec, percentile
from .trace import Tracer

__all__ = ["main", "run_workload"]

#: the percentile of per-block times that the ``quiet_*`` metrics report
#: (nearest rank: the 2nd fastest of 15 blocks, the fastest of up to 10).
#: Interference on this shared box only adds time and comes in phases of
#: seconds; whole-window figures of one commit differed by 50 % between
#: ten-run sets (CALIBRATION.md), the fast tail repeats.
BEST = 10


def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    window: bool = False,
    spans_path: Optional[str] = None,
    import_s: float = 0.0,
) -> dict:
    """Run workload ``name`` once and return its result.

    ``import_s`` is how long the caller took to import the program and
    the ledger; ``run.py`` measures it, and it is part of ``setup_s``.
    ``window`` adds the whole-window figures (``window.*``) to an untraced
    run's metrics; ``BENCHMARK.json`` does not declare them, because no
    bound holds for them on this box.

    The returned dict has the result-object keys plus ``failures`` (what
    was wrong, in words) and ``produced`` (metric names that were
    measured rather than filled in as zero for a layer the workload does
    not enter).
    """
    spec = load_spec()
    params = workloads.params(name, smoke=smoke)
    tracer = probes = None
    if trace:
        tracer = Tracer()
        probes = layers.install(tracer)
        tracer.on = True
    try:
        workload = DRIVERS[name](params, seed, tracer, probes)
        # One set-up, in the state a user's process is in: caches, codec
        # registry and allocator cold.  A second one here would be warm.
        started = time.perf_counter()
        workload.setup()
        build_s = time.perf_counter() - started
        measured = workload.measure(seconds)
        workload.teardown()
        if spans_path is not None and tracer is not None:
            tracer.write_jsonl(spans_path)
    finally:
        if tracer is not None:
            tracer.restore()
    if measured.ops < 1:
        raise RuntimeError(f"{name}: no op completed in {seconds} s")

    # quiet_*: per kind of work the block at the best decile, summed over
    # the kinds an op is made of (one, except for solve-chains' round).
    def quiet(per_block) -> float:
        return sum(
            percentile([per_block(block) for block in blocks], BEST)
            for blocks in measured.blocks.values()
        )

    quiet_wall_s = quiet(lambda block: block.wall_s / block.ops)
    quiet_cpu_ms = 1000.0 * quiet(lambda block: block.cpu_s / block.ops)
    rss_kib = measured.rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        extras = dict(measured.extras)
        extras.update(workload.trace_extras())
        extras.update({
            "net.messages_per_op": (measured.messages_per_op, "1/op"),
            "net.wire_bytes_per_op": (measured.bytes_per_op, "B/op"),
            "op.latency_p90_s": (percentile(measured.latencies, 90), "s"),
            "op.latency_samples": (float(len(measured.latencies)), "count"),
            "setup.build_s": (build_s, "s"),
            "setup.import_s": (import_s, "s"),
            # with the untraced run's quiet_cpu_ms_per_op, the cost of tracing
            "trace.cpu_ms_per_op": (quiet_cpu_ms, "ms"),
            "trace.spans_per_op": (len(tracer) / measured.ops, "1/op"),
        })
        produced = layers.per_layer_metrics(
            tracer, probes,
            ops=measured.ops,
            window_cpu_s=workload.window_cpu_s,
            extras=extras,
        )
        declared = spec["per_layer"]
    else:
        window_rate = measured.ops / workload.window_wall_s
        produced = {
            "quiet_ops_per_s": (
                window_rate if measured.arrival_driven else 1.0 / quiet_wall_s, "1/s"),
            "quiet_op_latency_p50_s": (
                quiet(lambda block: statistics.median(block.latencies)), "s"),
            "quiet_cpu_ms_per_op": (quiet_cpu_ms, "ms"),
            "tickets_total": (float(measured.tickets_total), "count"),
            "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
            "setup_s": (import_s + build_s, "s"),
        }
        declared = list(spec["end_to_end"])
        if window:
            whole = {
                "window.ops_per_s": (window_rate, "1/s"),
                "window.op_latency_p50_s": (statistics.median(measured.latencies), "s"),
                "window.cpu_ms_per_op": (
                    1000.0 * workload.window_cpu_s / measured.ops, "ms"),
            }
            produced.update(whole)
            declared += [{"name": key, "unit": unit} for key, (_, unit) in whole.items()]

    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(produced) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric_name, unit in units.items():
        value, produced_unit = produced.get(metric_name, (0.0, unit))
        if produced_unit != unit:
            raise RuntimeError(
                f"{metric_name}: measured in {produced_unit!r}, declared in {unit!r}"
            )
        metrics[metric_name] = {"value": value, "unit": unit}
    return {
        "correct": not measured.failures,
        "attempted": measured.ops,
        "failed": max(1, min(measured.failed_ops, measured.ops)) if measured.failures else 0,
        "metrics": metrics,
        "failures": measured.failures,
        "produced": sorted(produced),
    }


def main(argv: Optional[list[str]] = None, *, import_s: float = 0.0) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale (each workload well under a second)")
    parser.add_argument("--window", action="store_true",
                        help="with --trace 0: add the whole-window figures (window.*)")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write the window's spans as JSONL")
    args = parser.parse_args(argv)

    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        window=args.window,
        spans_path=args.spans,
        import_s=import_s,
    )
    failures = result.pop("failures")
    result.pop("produced")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for metric_name, cell in result["metrics"].items():
        print(f"{metric_name:<40} {cell['value']:>16.6g} {cell['unit']}")
    for line in failures:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
