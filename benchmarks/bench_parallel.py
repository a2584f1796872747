"""Benchmark P -- the parallel execution engine: fan-out speedup and
byte-identity across ``jobs``.

One gated row, **campaign**: a 200-episode fuzz campaign (80 in quick
mode) run sequentially and with ``jobs=8``, asserting the parallel run's
summary and per-episode records are byte-identical to the sequential run
before any timing is trusted.  (The chunked-DLEQ and RS-stripe rows went
with their fan-outs: BENCH_8 recorded them at 0.87x and 0.09x, and
nothing outside this bench called them; ``--check`` skips the baseline
keys a run lacks.)

Speedup gating is **core-aware**: the useful parallelism of a run is
``effective_jobs = min(jobs, cpus)``, and the absolute floor scales
with it -- 4.0x when 8 cores are really there, 2.0x at 4 cores, and a
no-worse-than-sequential 0.70x floor on a 1-core box where fan-out can
only add overhead.  ``--check`` additionally enforces a 30%% regression
floor against the committed ``BENCH_8.json`` baseline, but only when
the baseline was measured at the same effective parallelism (a 1-core
CI runner must not be graded against an 8-core baseline).

Run:    PYTHONPATH=src python benchmarks/bench_parallel.py [--full]
                [--out BENCH_8.json] [--check BASELINE.json]
or:     PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q -s
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.adversary import FuzzConfig, run_campaign
from repro.analysis.report import write_csv_rows, write_json
from repro.parallel import available_parallelism

#: fan-out width for the gated row (the acceptance bar's "8 cores")
JOBS = 8

#: fuzz episodes in quick mode; --full runs the acceptance-bar 200
QUICK_EPISODES = 80
FULL_EPISODES = 200

#: CI gate: fail when a speedup drops below this fraction of the
#: committed baseline's (only when effective_jobs match -- see module doc)
REGRESSION_FLOOR = 0.70


def absolute_floor(effective_jobs: int) -> float:
    """The machine-aware speedup bar for ``effective_jobs`` usable cores.

    8+ cores -> 4.0x (the acceptance bar), 4 cores -> 2.0x, 2-3 cores
    -> 1.2x, and on a single core -- where workers can only add fork
    and IPC overhead -- 0.70x, i.e. "not pathologically slower than
    sequential".
    """
    if effective_jobs <= 1:
        return 0.70
    return min(4.0, max(1.2, 0.5 * effective_jobs))


def _time(fn, repeats: int = 1):
    """(best wall seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _campaign_fingerprint(result) -> str:
    return json.dumps(
        {
            "summary": result.summary(),
            "outcomes": [
                {
                    "episode": o.episode,
                    "violations": o.violations,
                    "skipped": o.skipped,
                    "record": o.record,
                }
                for o in result.outcomes
            ],
        },
        sort_keys=True,
        default=str,
    )


def bench_campaign(*, full: bool) -> dict:
    """Fuzz-campaign fan-out: sequential vs jobs=8, byte-identity checked."""
    episodes = FULL_EPISODES if full else QUICK_EPISODES
    config = FuzzConfig(episodes=episodes, seed=8)
    repeats = 2 if full else 1
    t_seq, seq = _time(lambda: run_campaign(config), repeats)
    t_par, par = _time(lambda: run_campaign(config, jobs=JOBS), repeats)
    identical = _campaign_fingerprint(seq) == _campaign_fingerprint(par)
    effective = min(JOBS, available_parallelism())
    return {
        "workload": "fuzz-campaign",
        "episodes": episodes,
        "jobs": JOBS,
        "cpus": available_parallelism(),
        "effective_jobs": effective,
        "sequential_s": round(t_seq, 6),
        "parallel_s": round(t_par, 6),
        "speedup": round(t_seq / max(t_par, 1e-12), 2),
        "efficiency": round(t_seq / max(t_par, 1e-12) / effective, 3),
        "byte_identical": identical,
        "floor": absolute_floor(effective),
    }


def run_bench(*, full: bool) -> dict:
    return {
        "bench": "parallel",
        "pr": 8,
        "mode": "full" if full else "quick",
        "cpus": available_parallelism(),
        "campaign": bench_campaign(full=full),
    }


def gate_failures(record: dict) -> list[str]:
    """Absolute-floor and identity failures for the gated row."""
    failures = []
    row = record["campaign"]
    if not row["byte_identical"]:
        failures.append("campaign: parallel output differs from sequential")
    if row["speedup"] < row["floor"]:
        failures.append(
            f"campaign: speedup {row['speedup']:.2f}x < {row['floor']:.2f}x "
            f"floor at effective_jobs={row['effective_jobs']}"
        )
    return failures


def check_against_baseline(record: dict, baseline_path: Path) -> list[str]:
    """Baseline-relative regressions, only at matching effective_jobs.

    A speedup ratio only cancels the machine when both runs had the
    same usable parallelism; when the CI runner's core count differs
    from the baseline box's, the absolute core-aware floor (always
    enforced by :func:`gate_failures`) is the only meaningful gate.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = gate_failures(record)
    base_row = baseline.get("campaign")
    row = record["campaign"]
    if base_row and row["effective_jobs"] == base_row.get("effective_jobs"):
        floor = base_row["speedup"] * REGRESSION_FLOOR
        if row["speedup"] < floor:
            failures.append(
                f"campaign.speedup: {row['speedup']:.2f}x < {floor:.2f}x "
                f"(baseline {base_row['speedup']:.2f}x * {REGRESSION_FLOOR})"
            )
    return failures


def write_artifacts(record: dict, out_path: Path) -> None:
    out_path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    write_json("bench_parallel.json", record)
    write_csv_rows(
        "bench_parallel.csv",
        [
            "workload", "jobs", "cpus", "effective_jobs",
            "sequential_s", "parallel_s", "speedup",
        ],
        [
            [
                record["campaign"][key]
                for key in (
                    "workload", "jobs", "cpus", "effective_jobs",
                    "sequential_s", "parallel_s", "speedup",
                )
            ]
        ],
    )


def _print_table(record: dict) -> None:
    print(
        f"\nparallel-engine benchmark ({record['mode']} mode, "
        f"{record['cpus']} cpu(s))"
    )
    header = (
        f"{'workload':>20} {'jobs':>5} {'eff':>4} {'seq':>9} {'par':>9} "
        f"{'speedup':>8} {'identical':>10}"
    )
    print(header)
    print("-" * len(header))
    row = record["campaign"]
    print(
        f"{row['workload']:>20} {row['jobs']:>5} {row['effective_jobs']:>4} "
        f"{row['sequential_s']:>8.3f}s {row['parallel_s']:>8.3f}s "
        f"{row['speedup']:>7.2f}x {str(row['byte_identical']):>10}"
    )


# -- pytest entry ----------------------------------------------------------------------

import pytest


@pytest.mark.proc
def test_parallel_bench(tmp_path):
    """Quick-mode run: identity always, speedup vs the core-aware floor.

    Writes only under tmp_path: the committed ``BENCH_8.json`` baseline
    is authored only by the explicit CLI ``--out`` path.
    """
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    record = run_bench(full=full)
    _print_table(record)
    (tmp_path / "bench_parallel.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n"
    )
    failures = gate_failures(record)
    assert not failures, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="acceptance-bar sizes")
    parser.add_argument("--out", type=Path, default=Path("BENCH_8.json"))
    parser.add_argument(
        "--check", type=Path, default=None, metavar="BASELINE",
        help="fail when a gated speedup regresses >30%% vs this baseline",
    )
    args = parser.parse_args(argv)
    record = run_bench(full=args.full or os.environ.get("REPRO_BENCH_FULL", "") == "1")
    _print_table(record)
    write_artifacts(record, args.out)
    print(f"\nwrote {args.out}")
    failures = (
        check_against_baseline(record, args.check)
        if args.check is not None
        else gate_failures(record)
    )
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"perf gate ok{f' vs {args.check}' if args.check else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
