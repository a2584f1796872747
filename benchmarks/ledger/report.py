"""Numbers in, numbers out: percentiles, the benchmark's declared metric
lists, the environment stamp on every result file, and the one gate rule
(``compare``)."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Optional, Sequence

__all__ = [
    "GATED_COUNTS",
    "ROOT",
    "cell_summary",
    "compare",
    "env_stamp",
    "load_spec",
    "percentile",
    "show",
]

#: the repository root (this file is ``benchmarks/ledger/report.py``)
ROOT = Path(__file__).resolve().parents[2]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; ``0.0`` for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(p * len(ordered)) // 100))  # ceil(p * n / 100)
    return ordered[min(rank, len(ordered)) - 1]


def load_spec() -> dict:
    """The repo-root ``BENCHMARK.json``: metric names, units, directions
    and bounds live there and nowhere else."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def env_stamp(*, seed: int, scale: str) -> dict:
    """Where and on what a result file was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1min": os.getloadavg()[0],
        "commit": commit or "unknown",
        "seed": seed,
        "scale": scale,
    }


def cell_summary(values: Sequence[float]) -> dict:
    """Median and quartiles of one (metric, workload) cell over its runs
    (``statistics.quantiles(n=4)``, as the gate uses)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def _spread(cell: dict) -> float:
    median = cell["median"]
    return abs(cell["q3"] - cell["q1"]) / abs(median) if median else 0.0


#: Counts of the traced run that ``compare`` gates as well, when both
#: files have a traced section: name -> (bound on the closed loops, bound
#: on ``svc-open``).  Messages per op repeat exactly on the closed loops;
#: bytes per op move in the fifth digit from run to run (variable-length
#: integers: slot numbers, group elements).  On ``svc-open`` a timer cuts the slots, so
#: the batch size and with it the counts per request vary by a few
#: percent.  They are not end-to-end metrics of ``BENCHMARK.json`` because
#: those must be non-zero on every workload and ``solve-chains`` sends
#: nothing.
GATED_COUNTS = {
    "net.messages_per_op": (0.0, 0.05),
    "net.wire_bytes_per_op": (0.001, 0.01),
}


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], int]:
    """Gate ``new`` against ``base``: per (metric, workload) cell both
    medians, the ratio with its base, the bound, and a verdict.

    Gated are the end-to-end metrics of ``BENCHMARK.json``, the
    whole-window twin of each ``quiet_*`` one, ``failed_ops_frac`` and
    :data:`GATED_COUNTS`.

    ``regressed``: worse than the base median by more than the bound; for
    ``failed_ops_frac``, any rise.  ``missing``: a workload or metric of
    one file is not in the other.  ``unresolved``: a recorded run-to-run
    spread exceeds the bound, so the difference cannot be told from noise.
    ``ungated``: the two files differ in CPU count, scale or run length,
    so no row can be judged.

    Returns the report lines and the exit status: 0 when nothing is
    regressed or missing, 1 when something is, 2 when ungated.
    """
    lines: list[str] = []
    differing = [
        f"{what} differ ({x!r} vs {y!r})"
        for what, x, y in (
            ("cpus", base["env"]["cpus"], new["env"]["cpus"]),
            ("scale", base["env"]["scale"], new["env"]["scale"]),
            ("run_seconds", base["run_seconds"], new["run_seconds"]),
        )
        if x != y
    ]
    if differing:
        lines.append("; ".join(differing) + ": rows are reported ungated")
    for label, result in (("base", base), ("new", new)):
        load = result["env"]["loadavg_1min"]
        if load > 1.0:
            lines.append(f"warning: {label} was measured at load average {load:.2f}")
    lines.append(
        f"{'workload':<13} {'metric':<22} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>6}  verdict"
    )
    bad = 0

    def row(workload, name, a, b, bound, verdict) -> None:
        nonlocal bad
        if differing:
            verdict = "ungated"
        elif verdict in ("regressed", "missing"):
            bad += 1
        shown = [f"{x:>12.6g}" if x is not None else f"{'-':>12}" for x in (a, b)]
        ratio = f"{b / a:>8.3f}x" if a and b is not None else f"{'-':>9}"
        lines.append(
            f"{workload:<13} {name:<22} {shown[0]} {shown[1]} {ratio} {bound:>6.3g}  {verdict}"
        )

    def gate(workload, name, a, b, better, bound) -> None:
        """One cell; ``a`` and ``b`` are summaries (median, q1, q3)."""
        if a is None or b is None:
            row(workload, name, a and a["median"], b and b["median"], bound, "missing")
            return
        ratio = b["median"] / a["median"] if a["median"] else 1.0 + b["median"]
        worse = ratio - 1 if better == "lower" else 1 - ratio
        if max(_spread(a), _spread(b)) > bound:
            verdict = "unresolved"
        else:
            verdict = "regressed" if worse > bound else "ok"
        row(workload, name, a["median"], b["median"], bound, verdict)

    for workload in list(base["workloads"]) + [
        w for w in new["workloads"] if w not in base["workloads"]
    ]:
        base_run = base["workloads"].get(workload)
        new_run = new["workloads"].get(workload)
        if base_run is None or new_run is None:
            row(workload, "*", None, None, 0.0, "missing")
            continue
        a, b = base_run["failed_ops_frac"], new_run["failed_ops_frac"]
        row(workload, "failed_ops_frac", a, b, 0.0, "regressed" if b > a else "ok")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            gate(
                workload, name,
                base_run["end_to_end"].get(name), new_run["end_to_end"].get(name),
                metric["better"], metric["bound"],
            )
            # A quiet_* metric's whole-window twin, under the same bound:
            # it holds the costs that fall on few blocks, and on a noisy
            # host it is the row that comes out unresolved.
            twin = "window." + name.removeprefix("quiet_")
            if name.startswith("quiet_") and (base_run["window"] or new_run["window"]):
                gate(
                    workload, twin,
                    base_run["window"].get(twin), new_run["window"].get(twin),
                    metric["better"], metric["bound"],
                )
        if base_run["per_layer"] and new_run["per_layer"]:
            for name, bounds in GATED_COUNTS.items():
                gate(
                    workload, name,
                    base_run["per_layer"].get(name), new_run["per_layer"].get(name),
                    "lower", bounds[workload == "svc-open"],
                )
    return lines, 2 if differing else 1 if bad else 0


def show(result: dict, section: str = "end_to_end", workload: Optional[str] = None) -> list[str]:
    """A result file as a markdown table: median, quartiles and spread of
    every cell (what ``CALIBRATION.md`` is made of)."""
    lines = [
        "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | runs |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, run in result["workloads"].items():
        if workload is not None and name != workload:
            continue
        for metric, cell in run[section].items():
            lines.append(
                f"| {name} | {metric} | {cell['unit']} | {cell['median']:.6g} | "
                f"{cell['q1']:.6g} | {cell['q3']:.6g} | {_spread(cell):.4f} | "
                f"{len(cell['values'])} |"
            )
    return lines
