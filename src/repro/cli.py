"""Command-line interface mirroring the paper's prototype solver.

The Swiper prototype is a CLI with a ``--linear`` flag (Section 3.1);
this module reproduces that interface and extends it with protocol runs
on every backend::

    python -m repro.cli wr --alpha-w 1/3 --alpha-n 1/2 --weights 40 25 15 10
    python -m repro.cli wq --beta-w 2/3 --beta-n 1/2 --weights-file stake.txt
    python -m repro.cli ws --alpha 1/3 --beta 1/2 --chain tezos --linear
    python -m repro.cli cluster rbc --n 7 --transport tcp --weights-file stake.txt
    python -m repro.cli cluster smr --n 7 --epochs 2 --json
    python -m repro.cli serve --drift 1:0:150 --json
    python -m repro.cli scenario --list
    python -m repro.cli scenario zipf-stake-smr --backend inproc --json

Weights come from ``--weights`` (inline), ``--weights-file`` (one number
per line), or ``--chain`` (a calibrated snapshot); each flag has its
own constructor on :class:`repro.api.Committee`, which builds the
committee the subcommand runs on and also centralizes feasibility
validation.  Solver output is the ticket assignment summary, or the full
per-party list with ``--full-output``.  A ``cluster``, ``serve`` or
``scenario`` run is a scenario spec executed by the one scenario engine
(:mod:`repro.scenarios.harness`): ``cluster`` builds its spec from the
flags -- nominal ``n = 3t + 1`` quorums when no weight source is given
-- and reads its output from the run's record, so one argv means the
same run on ``inproc``, ``tcp`` and ``proc``; ``serve`` builds a
``kind="service"`` spec, so its ``--json`` is the record ``repro
scenario`` prints for the same spec.  Each subparser names its handler
(``set_defaults(run=...)``) and :func:`main` calls it.  ``--json``
switches every subcommand to machine-readable output.  Invalid
parameter combinations exit with status 2 and -- under ``--json`` --
emit one uniform ``{"error": ...}`` object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .api import Committee
from .core import (
    WeightQualification,
    WeightRestriction,
    WeightSeparation,
)
from .core.types import scale_weights_exact
from .datasets import ALL_CHAINS
from .scenarios import (
    SCENARIOS,
    FaultSpec,
    ScenarioSpec,
    WeightSpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
)

__all__ = ["main", "build_parser"]

#: solver policies selectable from the command line (registry names)
_CLI_POLICIES = ("swiper", "swiper-linear", "milp", "brute-force")

#: ``repro serve``'s committee when no weight source is given
_SERVE_WEIGHTS = WeightSpec("zipf", n=8, total=800, skew=1.2)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Swiper: approximate solver for weight reduction problems",
    )
    sub = parser.add_subparsers(dest="problem", required=True)

    def add_weight_source(p: argparse.ArgumentParser, *, required: bool) -> None:
        source = p.add_mutually_exclusive_group(required=required)
        source.add_argument(
            "--weights", nargs="+", help="inline weights (ints, floats, or a/b)"
        )
        source.add_argument(
            "--weights-file", help="file with one weight per line"
        )
        source.add_argument(
            "--chain", choices=list(ALL_CHAINS), help="calibrated chain snapshot"
        )

    def add_common(p: argparse.ArgumentParser, make_problem) -> None:
        add_weight_source(p, required=True)
        p.add_argument(
            "--linear",
            action="store_true",
            help="quasilinear mode: quick test only (paper's --linear)",
        )
        p.add_argument(
            "--policy",
            choices=_CLI_POLICIES,
            default=None,
            help="solver policy from the repro.api registry "
            "(default: swiper; --linear implies swiper-linear)",
        )
        p.add_argument(
            "--full-output",
            action="store_true",
            help="print the complete per-party ticket list",
        )
        p.set_defaults(run=_run_solver, make_problem=make_problem)

    wr = sub.add_parser("wr", help="Weight Restriction (Problem 1)")
    wr.add_argument("--alpha-w", required=True)
    wr.add_argument("--alpha-n", required=True)
    add_common(wr, lambda a: WeightRestriction(a.alpha_w, a.alpha_n))

    wq = sub.add_parser("wq", help="Weight Qualification (Problem 2)")
    wq.add_argument("--beta-w", required=True)
    wq.add_argument("--beta-n", required=True)
    add_common(wq, lambda a: WeightQualification(a.beta_w, a.beta_n))

    ws = sub.add_parser("ws", help="Weight Separation (Problem 3)")
    ws.add_argument("--alpha", required=True)
    ws.add_argument("--beta", required=True)
    add_common(ws, lambda a: WeightSeparation(a.alpha, a.beta))

    cluster = sub.add_parser(
        "cluster",
        help="run a weighted protocol live over the asyncio runtime",
        description=(
            "Run a protocol as a scenario on a live transport and report "
            "message/byte/wall-clock metrics.  With a weight source the "
            "protocol uses weighted quorums (resilience --f-w); without one "
            "it falls back to nominal n = 3t + 1 thresholds."
        ),
    )
    cluster.add_argument(
        "protocol", choices=["rbc", "smr"], help="protocol to execute"
    )
    cluster.add_argument(
        "--n", type=int, default=None, help="cluster size (default: len(weights))"
    )
    cluster.add_argument(
        "--transport",
        choices=["inproc", "tcp", "proc"],
        default="inproc",
        help="live transport backend (proc = one OS process per party)",
    )
    add_weight_source(cluster, required=False)
    cluster.add_argument(
        "--f-w", default="1/3", help="weighted resilience threshold (default 1/3)"
    )
    cluster.add_argument(
        "--payload-size", type=int, default=32, help="bytes per broadcast payload"
    )
    cluster.add_argument(
        "--epochs", type=int, default=1, help="SMR epochs to run (smr only)"
    )
    cluster.add_argument(
        "--timeout", type=float, default=60.0, help="seconds before giving up"
    )
    cluster.add_argument(
        "--crash", type=int, nargs="*", default=[], help="node ids to crash at start"
    )
    cluster.set_defaults(run=_run_cluster)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived epoch service under open-loop load",
        description=(
            "Start an epoch service (repro.service): pipelined SMR slots "
            "over rotating weighted committees, with checkpoint handover "
            "between epochs and an open-loop Poisson workload.  Stake "
            "drifts (--drift) change the weight vector at a given epoch; "
            "small drifts exercise the incremental re-solve fast path.  "
            "Reports ops/sec, latency percentiles, and per-epoch records."
        ),
    )
    add_weight_source(serve, required=False)
    serve.add_argument(
        "--backend",
        choices=["sim", "inproc"],
        default="sim",
        help="execution backend (default: sim -- deterministic virtual time)",
    )
    serve.add_argument(
        "--f-w", default="1/3", help="weighted resilience threshold (default 1/3)"
    )
    serve.add_argument(
        "--rate", type=float, default=100.0, help="Poisson arrival rate (req/s)"
    )
    serve.add_argument(
        "--requests", type=int, default=50, help="total requests to submit"
    )
    serve.add_argument(
        "--payload-size", type=int, default=32, help="bytes per request payload"
    )
    serve.add_argument(
        "--slot-interval",
        type=float,
        default=0.05,
        help="seconds between slot-cut attempts",
    )
    serve.add_argument(
        "--slots-per-epoch",
        type=int,
        default=4,
        help="rotate the committee after this many slots (0 disables)",
    )
    serve.add_argument(
        "--epoch-seconds",
        type=float,
        default=0.0,
        help="rotate the committee after this much scenario time (0 disables)",
    )
    serve.add_argument(
        "--drift",
        action="append",
        default=[],
        metavar="E:I:W",
        help="stake drift: from epoch E on, party I weighs W (repeatable; "
        "I == n appends a new party)",
    )
    serve.add_argument("--seed", type=int, default=0, help="determinism seed")
    serve.add_argument(
        "--timeout", type=float, default=60.0, help="hard stop (scenario seconds)"
    )
    serve.set_defaults(run=_run_serve)

    scenario = sub.add_parser(
        "scenario",
        help="run a named declarative scenario on a chosen backend",
        description=(
            "Execute a built-in scenario (repro.scenarios) on the "
            "discrete-event simulator or the live runtime and print its "
            "unified metrics record.  --list enumerates the registry."
        ),
    )
    scenario.add_argument(
        "name", nargs="?", default=None, help="scenario name (see --list)"
    )
    scenario.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    scenario.add_argument(
        "--all",
        action="store_true",
        help="run every registry scenario (a sweep; combine with --jobs)",
    )
    scenario.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for an --all sweep (a positive int or 'auto'; "
        "records are byte-identical at any value)",
    )
    scenario.add_argument(
        "--backend",
        choices=["sim", "inproc", "tcp", "proc"],
        default="sim",
        help="execution backend (default: sim; proc = one OS process per party)",
    )
    scenario.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    scenario.add_argument(
        "--timeout", type=float, default=60.0, help="runtime-backend timeout (s)"
    )
    scenario.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="directory for durable per-party write-ahead logs (crash-restart "
        "scenarios persist and recover protocol state here; default: a "
        "run-scoped temporary directory)",
    )
    scenario.add_argument(
        "--save", action="store_true", help="also write the record to results/"
    )
    scenario.set_defaults(run=_run_scenario)

    fuzz = sub.add_parser(
        "fuzz",
        help="run a seeded adversarial fuzz campaign (or replay a failure)",
        description=(
            "Sample committees, Byzantine strategies, and protocol mixes "
            "from a seeded RNG, run N episodes, and check the safety "
            "invariants (agreement, validity, liveness, gap-free service "
            "log) on every record.  Violations are persisted as one-line "
            "JSON replay specs; --replay re-runs one byte-identically."
        ),
    )
    fuzz.add_argument(
        "--episodes", type=int, default=50, help="episodes to run (default: 50)"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    fuzz.add_argument(
        "--backend",
        choices=["sim", "inproc"],
        default="sim",
        help="backend for scenario episodes (default: sim)",
    )
    fuzz.add_argument(
        "--timeout", type=float, default=30.0, help="per-episode timeout (s)"
    )
    fuzz.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for the campaign (a positive int or 'auto'; "
        "the result is byte-identical at any value)",
    )
    fuzz.add_argument(
        "--failures-out",
        default=None,
        metavar="PATH",
        help="write violating replay specs (one JSON line each) to PATH",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="SPEC",
        help="re-run replay specs: a JSON line, @FILE (every line of a "
        "failures file), or @DIR/ (every line of every file in DIR); "
        "exits 0 clean / 1 violations / 2 error",
    )
    fuzz.set_defaults(run=_run_fuzz)

    # Last, so it closes every subcommand's usage and option list.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    return parser


def _fail(args: argparse.Namespace, message) -> int:
    """The one error path every subcommand shares: status 2, and under
    ``--json`` the same ``{"error": ...}`` object (on stderr, so piped
    stdout never mixes records with diagnostics)."""
    if args.json:
        print(json.dumps({"error": str(message)}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def _load_committee(args: argparse.Namespace, seed: int = 0) -> Optional[Committee]:
    """The committee named by the mutually-exclusive weight-source flags
    (``None`` when the subcommand allows running without one)."""
    if args.weights is not None:
        n = len(args.weights)
        committee = Committee.from_weights(args.weights, provenance=f"inline[{n}]")
    elif args.weights_file is not None:
        committee = Committee.from_file(args.weights_file)
    elif args.chain is not None:
        committee = Committee.from_chain(args.chain)
    else:
        return None
    # ``_committee_spec`` copies this seed into the spec a run executes;
    # ``replace`` normalizes the weights again, so only a seeded run pays.
    return replace(committee, seed=seed) if seed else committee


# -- solver subcommands (wr / wq / ws) -------------------------------------------------


def _run_solver(args: argparse.Namespace) -> int:
    policy = args.policy or ("swiper-linear" if args.linear else "swiper")
    if args.linear and args.policy not in (None, "swiper-linear"):
        return _fail(args, "--linear conflicts with the chosen --policy")
    try:
        problem = args.make_problem(args)
        committee = _load_committee(args)
        assert committee is not None  # the source group is required here
        result = committee.solve(problem, policy, verify=False)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        return _fail(args, exc)

    a = result.assignment
    mode = "linear" if policy == "swiper-linear" else "full"
    if args.json:
        payload = {
            "problem": args.problem,
            "problem_repr": str(problem),
            "parties": len(a),
            "mode": mode,
            "policy": result.policy,
            "total_tickets": result.achieved,
            "ticket_bound": _bound_as_json(result.bound),
            "max_per_party": result.max_tickets,
            "ticket_holders": result.holders,
            "solve_seconds": result.elapsed_seconds,
        }
        if args.full_output:
            payload["tickets"] = list(a)
        print(json.dumps(payload))
        return 0

    print(f"problem         : {problem}")
    print(f"parties (n)     : {len(a)}")
    print(f"mode            : {mode}")
    print(f"policy          : {result.policy}")
    print(f"total tickets   : {result.achieved}")
    print(f"theorem bound   : {result.bound}")
    print(f"max per party   : {result.max_tickets}")
    print(f"ticket holders  : {result.holders}")
    print(f"solve time      : {result.elapsed_seconds:.3f}s")
    if args.full_output:
        for i, t in enumerate(a):
            print(f"party {i}: {t}")
    return 0


def _bound_as_json(bound):
    """Theorem bounds may be exact fractions; JSON wants numbers/strings."""
    if isinstance(bound, Fraction):
        return int(bound) if bound.denominator == 1 else str(bound)
    if isinstance(bound, (int, float)):
        return bound
    return str(bound)


# -- cluster subcommand ------------------------------------------------------------


def _committee_spec(committee: Committee, **fields) -> ScenarioSpec:
    """A spec over ``committee``'s already-resolved weights, pinned as an
    explicit vector so a sampled source is not resampled by the run."""
    return ScenarioSpec(
        weights=WeightSpec("explicit", values=tuple(committee.int_weights)),
        seed=committee.seed,
        **fields,
    )


def _print_by_type(rec: dict) -> None:
    for type_name in sorted(rec["by_type"]):
        print(
            f"  {type_name:<14}: {rec['by_type'][type_name]} msgs / "
            f"{rec['bytes_by_type'][type_name]} B"
        )


def _run_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: one scenario spec run by the scenario engine on
    the chosen transport.  A weight source means weighted quorums at
    ``--f-w``; without one, ``--n`` equal parties vote with the nominal
    ``n = 3t + 1`` quorums (``params["quorums"] = "nominal"``)."""
    try:
        committee = _load_committee(args)
        params: tuple = ()
        if committee is not None:
            committee.validate(expect_n=args.n)
            # Quorums are scale-invariant: fractional weights run as the
            # integers they scale to exactly.
            ints, _ = scale_weights_exact(committee.normalized)
            committee = Committee.from_weights(ints, provenance=committee.provenance)
        elif args.n is None:
            raise ValueError("need --n or a weight source (--weights/...)")
        else:
            committee = Committee.uniform(args.n)
            params = (("quorums", "nominal"),)
        spec = _committee_spec(
            committee,
            name=f"cluster-{args.protocol}",
            protocol=args.protocol,
            f_w=str(args.f_w),
            faults=FaultSpec(crashes=tuple(sorted(set(args.crash)))),
            workload=WorkloadSpec(payload_size=args.payload_size, epochs=args.epochs),
            params=params,
        )
        result = run_scenario(
            spec, backend=args.transport, timeout=args.timeout, committee=committee
        )
    except (ValueError, ZeroDivisionError, RuntimeError, OSError, TimeoutError) as exc:
        return _fail(args, exc)

    rec = result.record()
    layout = "nominal" if params else "weighted"
    if args.json:
        payload = {
            "protocol": args.protocol,
            "transport": args.transport,
            "layout": layout,
            "n": rec["n_real"],
            "crashed": list(spec.faults.crashes),
            "epochs": spec.workload.epochs if args.protocol == "smr" else None,
            "payload_size": spec.workload.payload_size,
            "completed": rec["completed"],
            "metrics": {
                **{k: rec[k] for k in ("messages", "bytes", "by_type", "bytes_by_type")},
                "elapsed_seconds": rec["wall_seconds"],
            },
        }
        if "workers" in rec:
            payload["workers"] = rec["workers"]
        print(json.dumps(payload))
        return 0

    live = rec["n_real"] - len(spec.faults.crashes)
    print(f"protocol        : {args.protocol} ({layout} quorums)")
    print(f"transport       : {args.transport}")
    print(f"cluster size    : {rec['n_real']} ({live} live)")
    print(f"completed       : {rec['completed']}")
    if "workers" in rec:
        print(f"worker pids     : {' '.join(str(p) for p in rec['workers'].values())}")
    print(f"messages        : {rec['messages']}")
    print(f"payload bytes   : {rec['bytes']}")
    print(f"wall clock      : {rec['wall_seconds'] * 1000:.1f} ms")
    _print_by_type(rec)
    return 0


# -- serve subcommand --------------------------------------------------------------


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: one ``kind="service"`` scenario spec run by the
    scenario engine (as a :class:`repro.service.scenario.ServiceDriver`).
    ``--drift`` entries travel comma-joined in ``params["drift"]``; with
    no weight source the committee is :data:`_SERVE_WEIGHTS`."""
    params: tuple = (
        ("arrival_rate", args.rate),
        ("requests", args.requests),
        ("slot_interval", args.slot_interval),
        ("slots_per_epoch", args.slots_per_epoch),
        ("epoch_seconds", args.epoch_seconds),
    )
    if args.drift:
        params += (("drift", ",".join(args.drift)),)
    try:
        committee = _load_committee(args, seed=args.seed)
        if committee is None:
            committee = Committee.from_weight_spec(_SERVE_WEIGHTS, seed=args.seed)
        spec = _committee_spec(
            committee,
            name="serve",
            protocol="smr",
            f_w=args.f_w,
            workload=WorkloadSpec(payload_size=args.payload_size, kind="service"),
            params=params,
        )
        result = run_scenario(
            spec, backend=args.backend, timeout=args.timeout, committee=committee
        )
    except (ValueError, ZeroDivisionError, RuntimeError, OSError, TimeoutError) as exc:
        return _fail(args, exc)
    rec = result.record()
    svc = rec["service"]
    if "error" in svc:
        # Rotation infeasibility (and timeouts) surface through the same
        # uniform {"error": ...} exit-2 path as bad parameters.
        return _fail(args, svc["error"])

    if args.json:
        print(result.record_json())
        return 0
    print(f"backend         : {rec['backend']}")
    print(f"committee       : {committee.n} parties ({committee.provenance})")
    print(f"requests        : {svc['requests_committed']}/{svc['requests_submitted']} committed")
    print(f"slots           : {svc['slots']}")
    print(f"rotations       : {svc['rotations']}")
    print(f"ops/sec         : {svc['ops_per_sec']}")
    print(f"latency p50     : {svc['latency_p50_s']}s")
    print(f"latency p99     : {svc['latency_p99_s']}s")
    for ep in svc["epochs"]:
        print(
            f"  epoch {ep['epoch']}: n={ep['n']} slots "
            f"[{ep['first_slot']},{ep['last_slot']}) requests={ep['requests']} "
            f"tickets={ep['total_tickets']} solve={ep['solver_mode']} "
            f"handover={ep['rotation_seconds']}s"
        )
    print(f"messages        : {rec['messages']}")
    print(f"payload bytes   : {rec['bytes']}")
    return 0


# -- scenario subcommand -----------------------------------------------------------


def _run_scenario(args: argparse.Namespace) -> int:
    if args.list:
        if args.json:
            print(
                json.dumps(
                    {
                        "scenarios": [
                            {
                                "name": spec.name,
                                "protocol": spec.protocol,
                                "description": spec.description,
                            }
                            for spec in SCENARIOS.values()
                        ]
                    }
                )
            )
            return 0
        print(f"{'name':<20} {'protocol':<10} description")
        for spec in SCENARIOS.values():
            print(f"{spec.name:<20} {spec.protocol:<10} {spec.description}")
        return 0

    if args.all:
        from .parallel import parse_jobs, run_specs

        try:
            jobs = parse_jobs(args.jobs)
            specs = list(SCENARIOS.values())
            if args.seed is not None:
                specs = [spec.with_seed(args.seed) for spec in specs]
            records = run_specs(
                specs, backend=args.backend, timeout=args.timeout, jobs=jobs
            )
        except (KeyError, ValueError, RuntimeError, TimeoutError, OSError) as exc:
            return _fail(args, exc)
        if args.json:
            print(json.dumps({"records": records}, sort_keys=True))
            return 0
        for rec in records:
            print(
                f"{rec['scenario']:<20} completed={rec['completed']} "
                f"messages={rec['messages']} bytes={rec['bytes']}"
            )
        return 0

    if args.name is None:
        return _fail(args, "need a scenario name (or --list/--all)")
    try:
        from .parallel import parse_jobs

        parse_jobs(args.jobs)  # malformed --jobs fails uniformly
        spec = get_scenario(args.name)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        result = run_scenario(
            spec,
            backend=args.backend,
            timeout=args.timeout,
            state_dir=args.state_dir,
        )
    except (KeyError, ValueError, RuntimeError, TimeoutError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        return _fail(args, message)

    if args.save:
        result.write()
    if args.json:
        print(result.record_json())
        return 0

    rec = result.record()
    print(f"scenario        : {rec['scenario']} ({spec.description})")
    print(f"protocol        : {rec['protocol']}")
    print(f"backend         : {rec['backend']}")
    print(f"parties         : {rec['n_real']} real / {rec['n_nodes']} nodes")
    print(f"completed       : {rec['completed']}")
    print(f"distinct decided: {len(set(rec['decided'].values()))}")
    print(f"messages        : {rec['messages']}")
    print(f"payload bytes   : {rec['bytes']}")
    print(f"dropped/delayed : {rec['dropped_messages']}/{rec['delayed_messages']}")
    if result.backend == "sim":
        print(f"sim time        : {rec['sim_time']:.3f} (virtual s, {rec['sim_events']} events)")
    else:
        print(f"wall clock      : {rec['wall_seconds'] * 1000:.1f} ms")
    _print_by_type(rec)
    return 0


def _load_replay_specs(raw: str) -> list:
    """Replay-spec sources: an inline JSON line, ``@FILE`` (every JSON
    line of the file), or ``@DIR/`` (every JSON line of every file in the
    directory, sorted by name).  An empty source replays nothing: the
    ``--failures-out`` file of a clean campaign is empty."""
    import os

    if not raw.startswith("@"):
        return [json.loads(raw)]
    path = raw[1:]
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if os.path.isfile(os.path.join(path, name))
        )
    else:
        paths = [path]
    specs = []
    for file_path in paths:
        with open(file_path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    specs.append(json.loads(line))
    return specs


def _run_fuzz(args: argparse.Namespace) -> int:
    from .adversary import FuzzConfig, replay_episode, run_campaign

    if args.replay is not None:
        try:
            specs = _load_replay_specs(args.replay)
            outcomes = [
                (spec, replay_episode(spec, timeout=args.timeout))
                for spec in specs
            ]
        except (ValueError, KeyError, TimeoutError, OSError) as exc:
            return _fail(args, exc)
        violating = sum(1 for _, o in outcomes if o.violations)
        if len(outcomes) == 1:
            spec, outcome = outcomes[0]
            payload = {
                "replayed": {k: v for k, v in spec.items() if k != "violations"},
                "violations": outcome.violations,
                "skipped": outcome.skipped,
            }
        else:
            payload = {
                "replayed": [
                    {
                        "episode": {
                            k: v for k, v in spec.items() if k != "violations"
                        },
                        "violations": outcome.violations,
                        "skipped": outcome.skipped,
                    }
                    for spec, outcome in outcomes
                ],
                "violations": violating,
            }
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            for spec, outcome in outcomes:
                print(f"episode   : {spec.get('episode')} (seed {spec.get('seed')})")
                print(f"kind      : {spec.get('kind')}")
                print(f"violations: {outcome.violations or 'none'}")
            if len(outcomes) != 1:
                print(f"replayed  : {len(outcomes)}  violating: {violating}")
        return 1 if violating else 0

    try:
        from .parallel import parse_jobs

        jobs = parse_jobs(args.jobs)
        config = FuzzConfig(
            episodes=args.episodes,
            seed=args.seed,
            backend=args.backend,
            timeout=args.timeout,
        )
        result = run_campaign(config, jobs=jobs)
        if args.failures_out is not None:
            result.write_failures(args.failures_out)
    except (ValueError, RuntimeError, TimeoutError, OSError) as exc:
        return _fail(args, exc)

    summary = result.summary()
    if args.json:
        print(json.dumps({**summary, "failures": result.failures}, sort_keys=True))
    else:
        print(f"episodes  : {summary['episodes']} (seed {summary['seed']}, "
              f"backend {summary['backend']})")
        print(f"checked   : {summary['checked']}  skipped: {summary['skipped']}")
        for kind, count in summary["by_kind"].items():
            print(f"  {kind:<28}: {count}")
        print(f"violations: {summary['violations']}")
        for failure in result.failures:
            line = json.dumps(failure, sort_keys=True)
            print(f"  replay with: repro fuzz --replay '{line}'")
    return 1 if result.failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
