"""Tests for the CLI mirroring the paper's prototype interface."""

import contextlib
import hashlib
import json
import pathlib
import signal

import pytest

from repro.cli import build_parser, main
from repro.scenarios import ScenarioSpec, WeightSpec, WorkloadSpec, run_scenario

#: ``--help`` of the top level and of every subcommand, captured with
#: ``COLUMNS=80`` (argparse wraps to the terminal width)
HELP_DIR = pathlib.Path(__file__).parent / "cli_help"
SUBCOMMANDS = ["wr", "wq", "ws", "cluster", "serve", "scenario", "fuzz"]


class _Hung(BaseException):
    """Raised by :func:`_deadline`; no CLI ``except`` clause catches it."""


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail a call that would otherwise never return."""

    def expire(signum, frame):
        raise _Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestParser:
    @pytest.mark.parametrize("name", ["top", *SUBCOMMANDS])
    def test_help_is_byte_identical_to_the_golden(self, name, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if name == "top" else [name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP_DIR / f"{name}.txt").read_text()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_wr_arguments(self):
        args = build_parser().parse_args(
            ["wr", "--alpha-w", "1/3", "--alpha-n", "1/2", "--weights", "1", "2"]
        )
        assert args.problem == "wr"
        assert args.alpha_w == "1/3"
        assert not args.linear

    def test_weight_sources_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "wr", "--alpha-w", "1/3", "--alpha-n", "1/2",
                    "--weights", "1", "--chain", "tezos",
                ]
            )


class TestMain:
    def test_wr_inline(self, capsys):
        code = main(
            ["wr", "--alpha-w", "1/3", "--alpha-n", "1/2", "--weights", "40", "25", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total tickets" in out

    def test_wq_linear_mode(self, capsys):
        code = main(
            [
                "wq", "--beta-w", "2/3", "--beta-n", "1/2",
                "--weights", "40", "25", "15", "10", "--linear",
            ]
        )
        assert code == 0
        assert "mode            : linear" in capsys.readouterr().out

    def test_ws_full_output(self, capsys):
        code = main(
            [
                "ws", "--alpha", "1/3", "--beta", "1/2",
                "--weights", "4", "3", "2", "1", "--full-output",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "party 0:" in out

    def test_weights_file(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("100\n50\n\n25\n")
        code = main(
            ["wr", "--alpha-w", "1/4", "--alpha-n", "1/3", "--weights-file", str(f)]
        )
        assert code == 0
        assert "parties (n)     : 3" in capsys.readouterr().out

    def test_invalid_parameters_exit_code(self, capsys):
        code = main(
            ["wr", "--alpha-w", "1/2", "--alpha-n", "1/3", "--weights", "1", "2"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_fraction_weights(self, capsys):
        code = main(
            ["wr", "--alpha-w", "1/3", "--alpha-n", "1/2", "--weights", "1/2", "0.25", "3"]
        )
        assert code == 0


class TestJsonOutput:
    def test_wr_json(self, capsys):
        code = main(
            [
                "wr", "--alpha-w", "1/3", "--alpha-n", "1/2",
                "--weights", "40", "25", "15", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "wr"
        assert payload["parties"] == 3
        assert payload["total_tickets"] >= 1
        assert "tickets" not in payload

    def test_ws_json_full_output(self, capsys):
        code = main(
            [
                "ws", "--alpha", "1/3", "--beta", "1/2",
                "--weights", "4", "3", "2", "1", "--json", "--full-output",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tickets"]) == 4

    def test_bound_serialization(self):
        from fractions import Fraction

        from repro.cli import _bound_as_json

        assert _bound_as_json(6) == 6
        assert _bound_as_json(Fraction(4, 1)) == 4
        assert _bound_as_json(Fraction(7, 2)) == "7/2"

    def test_json_error_still_exit_2(self, capsys):
        code = main(
            ["wq", "--beta-w", "1/3", "--beta-n", "2/3", "--weights", "bogus", "--json"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPolicySelection:
    def test_policy_flag_selects_registry_entry(self, capsys):
        code = main(
            [
                "wr", "--alpha-w", "1/3", "--alpha-n", "1/2",
                "--weights", "40", "25", "15", "10", "--policy", "milp", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "milp"
        assert payload["total_tickets"] >= 1

    def test_linear_flag_maps_to_linear_policy(self, capsys):
        code = main(
            ["wr", "--alpha-w", "1/3", "--alpha-n", "1/2",
             "--weights", "40", "25", "15", "--linear", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "swiper-linear"
        assert payload["mode"] == "linear"

    def test_linear_conflicts_with_other_policy(self, capsys):
        code = main(
            ["wr", "--alpha-w", "1/3", "--alpha-n", "1/2",
             "--weights", "1", "2", "--linear", "--policy", "milp"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestUnifiedJsonErrors:
    """Infeasible combos: status 2 and one {"error": ...} shape everywhere."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "rbc", "--n", "5", "--weights", "1", "2", "--json"],
            ["cluster", "rbc", "--weights", "40", "25", "15", "10",
             "--crash", "0", "--json"],
            ["cluster", "smr", "--n", "4", "--f-w", "2/3", "--json"],
            ["scenario", "nope", "--json"],
            ["scenario", "--json"],
            ["wr", "--alpha-w", "1/2", "--alpha-n", "1/3", "--weights", "1", "--json"],
        ],
        ids=["n-mismatch", "crash-budget", "bad-f-w", "unknown-scenario",
             "missing-name", "bad-problem"],
    )
    def test_json_error_shape(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert set(payload) == {"error"}
        assert payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "uniform-rbc"],
            ["scenario", "--all"],
            ["scenario", "--all", "--backend", "inproc"],
            ["cluster", "rbc", "--n", "4"],
            ["serve"],
            ["fuzz"],
        ],
        ids=["scenario", "all-sim", "all-inproc", "cluster", "serve", "fuzz"],
    )
    def test_non_positive_timeout_is_one_error(self, argv, capsys):
        assert main([*argv, "--timeout", "-1", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "timeout must be positive"}


#: the transports one ``repro cluster`` argv must answer the same way on
#: (tcp is the same engine as inproc over sockets; ``test_rbc_tcp_json``)
TRANSPORTS = ["inproc", pytest.param("proc", marks=pytest.mark.proc)]

#: ``cluster --json`` keys on every transport (proc adds ``workers``)
CLUSTER_KEYS = {
    "protocol", "transport", "layout", "n", "crashed", "epochs",
    "payload_size", "completed", "metrics",
}
METRIC_KEYS = {"messages", "bytes", "by_type", "bytes_by_type", "elapsed_seconds"}


class TestClusterCommand:
    def test_rbc_inproc_weighted(self, capsys):
        code = main(
            [
                "cluster", "rbc",
                "--weights", "40", "25", "15", "10", "5", "3", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rbc (weighted quorums)" in out
        assert "messages" in out

    def test_smr_inproc_json(self, capsys):
        code = main(["cluster", "smr", "--n", "4", "--epochs", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "smr"
        assert payload["layout"] == "nominal"
        assert payload["completed"] is True
        assert payload["metrics"]["messages"] > 0
        assert payload["metrics"]["bytes"] > 0
        assert payload["metrics"]["elapsed_seconds"] > 0

    @pytest.mark.parametrize(
        "transport",
        [
            "inproc",
            pytest.param("tcp", marks=pytest.mark.tcp),
            pytest.param("proc", marks=pytest.mark.proc),
        ],
    )
    def test_one_output_shape_and_count(self, transport, capsys):
        # One engine: the same argv reports the same keys and the same
        # message count on every transport (7 * 2 epochs * (1 + 7 + 7) * 7).
        code = main(
            ["cluster", "smr", "--n", "7", "--epochs", "2",
             "--transport", transport, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        extra = {"workers"} if transport == "proc" else set()
        assert set(payload) == CLUSTER_KEYS | extra
        assert set(payload["metrics"]) == METRIC_KEYS
        assert payload["transport"] == transport
        assert payload["layout"] == "nominal"
        assert payload["completed"] is True
        assert payload["metrics"]["messages"] == 1470

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_nominal_crash_not_subject_to_weighted_budget(self, transport, capsys):
        # The f_w*W budget check is a weighted-quorum concept; nominal
        # layouts are governed by t = (n-1)//3 only, so a small --f-w
        # must not reject a crash set the nominal layout tolerates.
        code = main(
            ["cluster", "rbc", "--n", "7", "--f-w", "1/10", "--crash", "0",
             "--transport", transport, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"] == "nominal"
        assert payload["crashed"] == [0]
        assert payload["completed"] is True

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_fractional_weights_run(self, transport, capsys):
        # Quorums are scale-invariant, so fractional inline weights run as
        # the integers they scale to (5 3 1 1), on every transport.
        code = main(
            ["cluster", "rbc", "--weights", "0.5", "0.3", "0.1", "0.1",
             "--transport", transport, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"] == "weighted"
        assert payload["completed"] is True
        assert payload["metrics"]["messages"] == 4 + 16 + 16

    def test_rbc_with_crash(self, capsys):
        code = main(
            [
                "cluster", "rbc", "--weights", "40", "25", "15", "10", "5", "3", "1",
                "--crash", "6", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashed"] == [6]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "rbc", "--n", "3"],  # nominal needs n >= 4
            ["cluster", "rbc"],  # no size and no weights
            ["cluster", "rbc", "--n", "5", "--weights", "1", "2"],  # mismatch
            ["cluster", "smr", "--n", "4", "--epochs", "0"],
            ["cluster", "rbc", "--n", "4", "--payload-size", "0"],
            ["cluster", "rbc", "--n", "4", "--crash", "9"],
            ["cluster", "rbc", "--n", "4", "--crash", "0", "1", "2", "3"],
            ["cluster", "smr", "--n", "4", "--f-w", "2/3"],
            ["cluster", "rbc", "--n", "4", "--f-w", "1/0"],
            ["cluster", "rbc", "--weights", "40", "25", "15", "10", "--crash", "0"],
            ["cluster", "rbc", "--n", "7", "--crash", "0", "1", "2"],
        ],
        ids=[
            "small-n", "no-size", "n-mismatch", "zero-epochs",
            "zero-payload", "bad-crash", "all-crashed", "bad-f-w",
            "zero-denominator", "crash-beyond-weight-budget", "crash-beyond-t",
        ],
    )
    def test_invalid_combinations_exit_2(self, argv, transport, capsys):
        # Every case is refused before a proc worker would spawn.
        assert main(argv + ["--transport", transport]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.tcp
    def test_rbc_tcp_json(self, capsys):
        code = main(["cluster", "rbc", "--n", "4", "--transport", "tcp", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transport"] == "tcp"
        assert payload["metrics"]["messages"] == 4 + 16 + 16


class TestScenarioCommand:
    def test_list_shows_registry(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        # at least the 8 regimes the issue names, one line each + header
        assert len(out.strip().splitlines()) >= 9
        assert "uniform-rbc" in out and "partition-heal-smr" in out

    def test_list_json(self, capsys):
        assert main(["scenario", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [s["name"] for s in payload["scenarios"]]
        assert len(names) >= 8 and "vaba-blackbox" in names

    def test_run_sim_json_record(self, capsys):
        assert main(["scenario", "uniform-rbc", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "sim"
        assert record["completed"] is True
        assert record["messages"] > 0
        assert len(set(record["decided"].values())) == 1

    def test_run_inproc_human_output(self, capsys):
        assert main(["scenario", "skewed-quorum-rbc", "--backend", "inproc"]) == 0
        out = capsys.readouterr().out
        assert "completed       : True" in out
        assert "wall clock" in out

    def test_seed_override_changes_decided(self, capsys):
        assert main(["scenario", "uniform-rbc", "--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["scenario", "uniform-rbc", "--seed", "5", "--json"]) == 0
        reseeded = json.loads(capsys.readouterr().out)
        assert base["seed"] == 0 and reseeded["seed"] == 5
        assert base["decided"] != reseeded["decided"]

    def test_save_writes_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["scenario", "crash-f-rbc", "--save", "--json"]) == 0
        artifact = tmp_path / "scenario_crash-f-rbc_sim_seed0.json"
        assert artifact.exists()
        assert json.loads(artifact.read_text())["scenario"] == "crash-f-rbc"

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_name_exits_2(self, capsys):
        assert main(["scenario"]) == 2
        assert "error" in capsys.readouterr().err


#: sha256 of the sim ``repro serve`` stdout, for argv suffixes
SERVE_DIGESTS = {
    (): "1d685220787674da2ed6faf25b17002a5368d997e13f3c91816e8e0cbb980d29",
    ("--drift", "1:0:150"): "6bb828a31d525eb9ed769bec6c6ac40c2218e46ee6e737dda9c8f0b6cfbf80f6",
}


class TestServe:
    _BASE = [
        "serve", "--weights", "40", "30", "20", "10",
        "--rate", "150", "--requests", "24",
        "--slot-interval", "0.02", "--slots-per-epoch", "2",
    ]

    def test_serve_json_happy_path(self, capsys):
        code = main([*self._BASE, "--drift", "1:3:15", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["completed"] is True
        assert record["scenario"] == "serve"
        svc = record["service"]
        assert svc["requests_committed"] == 24
        assert svc["rotations"] >= 1
        modes = [ep["solver_mode"] for ep in svc["epochs"]]
        assert modes[0] == "cold" and "incremental" in modes[1:]

    def test_serve_human_output(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "rotations" in out
        assert "24/24 committed" in out

    def test_infeasible_rotation_is_uniform_error_exit_2(self, capsys):
        drifts = [arg for i in range(4) for arg in ("--drift", f"1:{i}:0")]
        code = main([*self._BASE, *drifts, "--json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "epoch 1" in err["error"]

    def test_malformed_drift_exits_2(self, capsys):
        assert main([*self._BASE, "--drift", "nope"]) == 2
        assert "E:I:W" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "drift",
        ["1:2", "1:2:3:4", "a:b:c", "1:2:", "::", "1.5:2:3"],
        ids=["two-fields", "four-fields", "non-numeric", "empty-weight",
             "all-empty", "float-epoch"],
    )
    def test_every_malformed_drift_shape_is_uniform_json_error(
        self, drift, capsys
    ):
        # One error contract for the whole subcommand: exit 2 and a
        # {"error": ...} object on stderr, never a traceback, regardless
        # of which way the E:I:W spec is malformed.
        code = main([*self._BASE, "--drift", drift, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert set(err) == {"error"}
        assert isinstance(err["error"], str) and err["error"]

    def test_malformed_drift_beats_valid_ones(self, capsys):
        # A bad spec poisons the invocation even next to valid ones.
        code = main(
            [*self._BASE, "--drift", "1:3:15", "--drift", "oops", "--json"]
        )
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_serve_inproc_backend(self, capsys):
        code = main([*self._BASE, "--backend", "inproc", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["completed"] is True
        assert record["service"]["requests_committed"] == 24

    @pytest.mark.parametrize("extra", sorted(SERVE_DIGESTS), ids=["plain", "drift"])
    def test_json_output_is_pinned(self, extra, capsys):
        assert main(["serve", *extra, "--json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == SERVE_DIGESTS[extra]

    @pytest.mark.parametrize("flag", ["--weights", "--weights-file"])
    def test_seed_is_recorded_for_a_weight_flag(self, flag, tmp_path, capsys):
        stake = ["40", "25", "15", "10", "5", "3", "1", "1"]
        if flag == "--weights-file":
            f = tmp_path / "w.txt"
            f.write_text("\n".join(stake) + "\n")
            source = [flag, str(f)]
        else:
            source = [flag, *stake]
        assert main(["serve", *source, "--seed", "3", "--requests", "8", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    @pytest.mark.parametrize(
        "source",
        [["--weights", "40", "30", "20", "10"], ["--weights-file"], ["--chain", "aptos"]],
        ids=["weights", "weights-file", "chain"],
    )
    def test_every_weight_flag_carries_the_seed_into_the_spec(
        self, source, tmp_path, monkeypatch, capsys
    ):
        # The spec is captured, not run: a 104-party aptos service run
        # takes about a minute.
        import repro.cli

        if source == ["--weights-file"]:
            f = tmp_path / "w.txt"
            f.write_text("40\n30\n20\n10\n")
            source = [*source, str(f)]
        runs = []

        def capture(spec, **kwargs):
            runs.append((spec, kwargs["committee"]))
            raise RuntimeError("captured")

        monkeypatch.setattr(repro.cli, "run_scenario", capture)
        assert main(["serve", *source, "--seed", "3", "--json"]) == 2
        assert "captured" in capsys.readouterr().err
        [(spec, committee)] = runs
        assert spec.seed == committee.seed == 3

    def test_json_is_the_scenario_record_of_the_same_spec(self, capsys):
        # One engine: `repro serve` is a service spec run by run_scenario.
        assert main(["serve", "--drift", "1:0:150", "--json"]) == 0
        spec = ScenarioSpec(
            name="serve",
            protocol="smr",
            weights=WeightSpec("zipf", n=8, total=800, skew=1.2),
            workload=WorkloadSpec(kind="service"),
            params=(
                ("arrival_rate", 100.0),
                ("requests", 50),
                ("slot_interval", 0.05),
                ("slots_per_epoch", 4),
                ("epoch_seconds", 0.0),
                ("drift", "1:0:150"),
            ),
        )
        expected = run_scenario(spec).record_json()
        assert capsys.readouterr().out == expected + "\n"
        record = json.loads(expected)
        assert record["messages"] == 5464 and record["bytes"] == 460656
        assert len(set(record["decided"].values())) == 1

    def test_clock_trigger_rotates_the_same_on_spec_and_cli(self, capsys):
        spec = ScenarioSpec(
            name="serve",
            protocol="smr",
            weights=WeightSpec("explicit", values=(40, 30, 20, 10)),
            workload=WorkloadSpec(kind="service"),
            params=(
                ("arrival_rate", 150.0),
                ("requests", 24),
                ("slot_interval", 0.02),
                ("slots_per_epoch", 0),
                ("epoch_seconds", 0.06),
            ),
        )
        svc = run_scenario(spec).record()["service"]
        assert svc["rotations"] >= 1
        assert svc["requests_committed"] == 24
        argv = [*self._BASE, "--slots-per-epoch", "0", "--epoch-seconds", "0.06"]
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["service"] == svc

    def test_zero_slot_interval_spec_is_refused(self):
        # The same hang through the scenario engine (`repro scenario`).
        spec = ScenarioSpec(
            name="serve",
            protocol="smr",
            weights=WeightSpec("explicit", values=(40, 30, 20, 10)),
            workload=WorkloadSpec(kind="service"),
            params=(("slot_interval", 0),),
        )
        with _deadline(10), pytest.raises(ValueError, match="slot_interval"):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--slot-interval", "0"],
            ["--slot-interval", "-0.01"],
            ["--slots-per-epoch", "-1"],
            ["--epoch-seconds", "-1"],
        ],
        ids=["zero-interval", "negative-interval", "negative-slots", "negative-clock"],
    )
    def test_unrunnable_service_settings_exit_2(self, flags, capsys):
        # A non-positive slot interval used to spin at one virtual instant
        # forever; negative rotation triggers were silently ignored.
        with _deadline(10):
            code = main([*self._BASE, *flags, "--json"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error"} and "must be" in err["error"]


class TestFuzz:
    def test_negative_episodes_exit_2(self, capsys):
        # A campaign that runs nothing must not pass as clean.
        assert main(["fuzz", "--episodes", "-3", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "episodes" in json.loads(captured.err)["error"]

    def test_clean_campaign_exits_0_with_summary(self, capsys):
        code = main(["fuzz", "--episodes", "12", "--seed", "5", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["episodes"] == 12
        assert summary["violations"] == 0
        assert summary["seed"] == 5
        assert summary["checked"] + summary["skipped"] == 12

    def test_human_output_names_the_kinds(self, capsys):
        assert main(["fuzz", "--episodes", "8", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "episodes" in out and "violations: 0" in out

    def test_replay_of_a_probe_spec(self, capsys):
        spec = {"seed": 0, "episode": 0, "kind": "dleq-forge", "probe_seed": 123}
        code = main(["fuzz", "--replay", json.dumps(spec), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert payload["replayed"]["kind"] == "dleq-forge"

    def test_replay_strips_recorded_violations(self, capsys):
        # A persisted failure line carries its violations; replaying it
        # re-derives the verdict instead of trusting the recording.
        spec = {"seed": 0, "episode": 0, "kind": "rs-error-flood",
                "probe_seed": 7, "violations": ["stale: from the recording"]}
        code = main(["fuzz", "--replay", json.dumps(spec), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []
        assert "violations" not in payload["replayed"]

    def test_replay_from_failures_file(self, tmp_path, capsys):
        spec = {"seed": 1, "episode": 3, "kind": "coin-unpredictability",
                "probe_seed": 99}
        path = tmp_path / "failures.jsonl"
        path.write_text(json.dumps(spec) + "\n")
        code = main(["fuzz", "--replay", f"@{path}", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []

    @pytest.mark.parametrize(
        "replay",
        ["not json", "@/no/such/file.jsonl", '{"kind": "no-such-kind"}'],
        ids=["bad-json", "missing-file", "unknown-kind"],
    )
    def test_bad_replay_is_uniform_json_error_exit_2(self, replay, capsys):
        code = main(["fuzz", "--replay", replay, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert set(err) == {"error"}

    def test_failures_out_is_not_written_on_a_clean_campaign(self, tmp_path):
        path = tmp_path / "failures.jsonl"
        code = main(
            ["fuzz", "--episodes", "6", "--seed", "5",
             "--failures-out", str(path), "--json"]
        )
        assert code == 0
        assert not path.exists()


class TestJobsFlag:
    """--jobs on fuzz/scenario: malformed values hit the uniform
    {"error": ...} exit-2 path (argparse never sees the value, so its
    non-JSON usage error can't leak); well-formed values run."""

    @pytest.mark.parametrize("bad", ["0", "-3", "nope", "1.5", ""])
    def test_fuzz_rejects_malformed_jobs(self, bad, capsys):
        code = main(["fuzz", "--episodes", "2", "--jobs", bad, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert set(err) == {"error"}
        assert "--jobs" in err["error"]

    @pytest.mark.parametrize("bad", ["0", "auto8", "-1"])
    def test_scenario_sweep_rejects_malformed_jobs(self, bad, capsys):
        code = main(["scenario", "--all", "--jobs", bad, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert set(json.loads(captured.err)) == {"error"}

    def test_single_scenario_rejects_malformed_jobs(self, capsys):
        code = main(["scenario", "uniform-rbc", "--jobs", "zero", "--json"])
        assert code == 2
        assert set(json.loads(capsys.readouterr().err)) == {"error"}

    def test_fuzz_accepts_jobs_one(self, capsys):
        code = main(["fuzz", "--episodes", "4", "--jobs", "1", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["episodes"] == 4

    @pytest.mark.proc
    def test_fuzz_jobs_two_matches_sequential(self, capsys):
        code = main(["fuzz", "--episodes", "6", "--seed", "3", "--json"])
        assert code == 0
        sequential = capsys.readouterr().out
        code = main(
            ["fuzz", "--episodes", "6", "--seed", "3", "--jobs", "2", "--json"]
        )
        assert code == 0
        assert capsys.readouterr().out == sequential


class TestScenarioSweep:
    def test_all_runs_the_whole_registry(self, capsys):
        code = main(["scenario", "--all", "--json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) >= 10
        assert all(rec["completed"] in (True, False) for rec in records)

    @pytest.mark.proc
    def test_sweep_output_is_identical_across_jobs(self, capsys):
        code = main(["scenario", "--all", "--json"])
        assert code == 0
        sequential = capsys.readouterr().out
        code = main(["scenario", "--all", "--jobs", "2", "--json"])
        assert code == 0
        assert capsys.readouterr().out == sequential


@pytest.mark.proc
class TestProcBackendCli:
    def test_scenario_proc_reports_distinct_worker_pids(self, capsys):
        code = main(["scenario", "uniform-rbc", "--backend", "proc", "--json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["backend"] == "proc"
        assert rec["completed"] is True
        pids = list(rec["workers"].values())
        assert len(set(pids)) == len(pids) == 8

    def test_cluster_proc_two_workers(self, capsys):
        code = main(
            ["cluster", "rbc", "--transport", "proc", "--n", "4", "--json"]
        )
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["transport"] == "proc"
        assert rec["completed"] is True
        assert len(set(rec["workers"].values())) == 4

    def test_worker_crash_is_uniform_json_error_exit_2(self, capsys, monkeypatch):
        from repro.parallel.proc import CRASH_ENV

        monkeypatch.setenv(CRASH_ENV, "0")
        code = main(["scenario", "uniform-rbc", "--backend", "proc", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert set(json.loads(captured.err)) == {"error"}

    def test_timeout_is_uniform_json_error_exit_2(self, capsys):
        code = main(
            ["scenario", "uniform-rbc", "--backend", "proc",
             "--timeout", "0.001", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert set(json.loads(captured.err)) == {"error"}
