"""``python -m benchmarks.ledger``: the whole ledger in one command.

``run`` measures every workload (or one), each run in a fresh child
interpreter, one after another (2 cores: concurrent children would
measure the scheduler), and writes one environment-stamped result file.
``compare`` gates one result file against another.  ``show`` prints a
result file as a table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

from . import workloads
from .report import cell_summary, compare, env_stamp, load_spec, show

__all__ = ["main"]

_RUN = Path(__file__).resolve().parent / "run.py"

#: sections of a result file's workload entry.  ``window`` holds the
#: untraced run's whole-window figures, which ``BENCHMARK.json`` does not
#: declare because no bound holds for them on this box.
SECTIONS = ("end_to_end", "window", "per_layer")


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run of ``run.py`` in a fresh interpreter; its result object."""
    command = [
        sys.executable, str(_RUN),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds),
        *(("--trace", "1") if trace else ("--trace", "0", "--window")),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} (seed {seed}, trace {int(trace)}) printed no result "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.stderr.write(done.stderr)
    return result


def _run(args) -> int:
    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.NAMES)
    out = {
        "env": env_stamp(seed=args.seed, scale="smoke" if args.smoke else "full"),
        "run_seconds": seconds,
        "workloads": {},
    }
    all_correct = True
    for name in names:
        sections = {section: {} for section in SECTIONS}
        attempted = failed = 0
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            modes = [("end_to_end", False)] + ([("per_layer", True)] if args.trace else [])
            for section, trace in modes:
                result = _child(name, seed, seconds, trace, args.smoke)
                all_correct = all_correct and result["correct"]
                if not trace:
                    attempted += result["attempted"]
                    failed += result["failed"]
                for metric, cell in result["metrics"].items():
                    into = "window" if metric.startswith("window.") else section
                    sections[into].setdefault(
                        metric, {"unit": cell["unit"], "values": []}
                    )["values"].append(cell["value"])
            print(f"{name}: seed {seed} done", file=sys.stderr)
        for cells in sections.values():
            for cell in cells.values():
                cell.update(cell_summary(cell["values"]))
        entry = {
            "attempted": attempted,
            "failed": failed,
            # failed, refused, shed, abandoned or incorrect ops / attempted
            "failed_ops_frac": failed / max(attempted, 1),
            **sections,
        }
        if args.trace:
            traced = sections["per_layer"]["trace.cpu_ms_per_op"]["median"]
            plain = sections["end_to_end"]["quiet_cpu_ms_per_op"]["median"]
            entry["trace.overhead_frac"] = traced / plain - 1
        out["workloads"][name] = entry

    for name, entry in out["workloads"].items():
        print(f"# {name}  (failed_ops_frac {entry['failed_ops_frac']:.3g})")
        for section in SECTIONS:
            for metric, cell in entry[section].items():
                print(f"{metric:<40} {cell['median']:>16.6g} {cell['unit']}")
        if "trace.overhead_frac" in entry:
            print(f"{'trace.overhead_frac':<40} {entry['trace.overhead_frac']:>16.6g} ratio")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0 if all_correct else 1


def _compare(args) -> int:
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    lines, status = compare(base, new, load_spec())
    print("\n".join(lines))
    return status


def _show(args) -> int:
    with open(args.file) as handle:
        result = json.load(handle)
    print(f"env: {json.dumps(result['env'])}")
    print("\n".join(show(result, args.section, args.workload)))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=workloads.NAMES, help="default: all five")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, on seeds SEED, SEED+1, ...")
    run.add_argument("--trace", action="store_true",
                     help="add a traced run per seed for the per-layer metrics")
    run.add_argument("--smoke", action="store_true", help="tiny scale, seconds per set")
    run.add_argument("--out", metavar="FILE", help="write the result file")
    run.set_defaults(fn=_run)

    cmp_ = commands.add_parser("compare", help="gate NEW against BASE")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.set_defaults(fn=_compare)

    table = commands.add_parser("show", help="print a result file as a markdown table")
    table.add_argument("file")
    table.add_argument("--section", choices=SECTIONS, default="end_to_end")
    table.add_argument("--workload", choices=workloads.NAMES)
    table.set_defaults(fn=_show)

    args = parser.parse_args(argv)
    return args.fn(args)
