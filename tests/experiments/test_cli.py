"""Tests for the command-line interface."""

import os

import pytest

import repro.experiments.__main__ as cli
from repro.campaign import plan as plan_module
from repro.campaign.executors import PoolExecutor
from repro.campaign.resilience import RetryPolicy
from repro.experiments.__main__ import main

FAST_PERF_ARGS = [
    "fig8",
    "--instructions",
    "3000",
    "--warmup",
    "1000",
    "--maps",
    "2",
    "--benchmarks",
    "gzip",
]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "fig8" in out
        assert "crafty" in out

    def test_analytical_figure(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "faulty_blocks" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "209920" in capsys.readouterr().out.replace(".0000", "")

    def test_multiple_targets(self, capsys):
        assert main(["fig5", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "fig7" in out

    def test_all_analytical(self, capsys):
        assert main(["all-analytical"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig1", "table1", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert fig in out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_performance_figure_with_small_settings(self, capsys):
        code = main(
            [
                "fig11",
                "--instructions",
                "3000",
                "--maps",
                "2",
                "--benchmarks",
                "swim",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "swim" in out

    @pytest.mark.parametrize("width", [1, 10_000])
    def test_pass_width_reproduces_default_output(
        self, capsys, monkeypatch, tmp_path, width
    ):
        """Pass width is a pure performance decision: one-lane passes and
        unbounded ones must reproduce the default's figure bytes and
        store bytes, at multi-figure scope where campaign points merge
        (13 maps make the default split its 27-lane group in two)."""
        args = [
            "fig8",
            "ext-incremental",
            "--instructions",
            "2500",
            "--warmup",
            "500",
            "--maps",
            "13",
            "--benchmarks",
            "gzip",
        ]
        assert main(args + ["--store", str(tmp_path / "default")]) == 0
        default_out = capsys.readouterr().out
        monkeypatch.setattr(plan_module, "PASS_LANES", width)
        assert main(args + ["--store", str(tmp_path / "width")]) == 0
        assert capsys.readouterr().out == default_out
        records = "results.jsonl"
        assert (tmp_path / "width" / records).read_bytes() == (
            tmp_path / "default" / records
        ).read_bytes()

    def test_dry_run_prints_plan_without_simulating(self, capsys, tmp_path):
        args = [
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--store",
            str(tmp_path),
            "--dry-run",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "work items : 6 (0 already in store, 6 to simulate)" in out
        assert "predicted schedule passes" in out
        # Nothing simulated: the store stayed empty.
        assert not (tmp_path / "results.jsonl").exists()

    def test_dry_run_reports_store_dedup_hits(self, capsys, tmp_path):
        args = [
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--store",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "work items : 6 (6 already in store, 0 to simulate)" in out
        assert "nothing to simulate (pure store hits)" in out

    def test_dry_run_analytical_only(self, capsys):
        assert main(["fig3", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "no store-backed simulations" in out

    def test_dry_run_flags_ablation_targets(self, capsys):
        """Ablation studies bypass the campaign store; the dry-run plan
        must say so instead of claiming there is nothing to simulate."""
        assert main(["abl-l2", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "abl-l2" in out
        assert "outside the campaign store" in out

    def test_max_retries_and_chunk_timeout_map_to_retry_policy(
        self, capsys, monkeypatch
    ):
        captured = {}

        class Recorder(PoolExecutor):
            def __init__(self, workers, retry=None):
                captured["workers"] = workers
                captured["retry"] = retry
                super().__init__(1, retry=retry)  # simulate in-process

        monkeypatch.setattr(cli, "PoolExecutor", Recorder)
        args = FAST_PERF_ARGS + [
            "--workers",
            "2",
            "--max-retries",
            "5",
            "--chunk-timeout",
            "9.5",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert captured["workers"] == 2
        assert captured["retry"] == RetryPolicy(max_attempts=6, chunk_timeout=9.5)

    def test_max_retries_zero_disables_retries(self, capsys, monkeypatch):
        captured = {}

        class Recorder(PoolExecutor):
            def __init__(self, workers, retry=None):
                captured["retry"] = retry
                super().__init__(1, retry=retry)  # simulate in-process

        monkeypatch.setattr(cli, "PoolExecutor", Recorder)
        assert main(FAST_PERF_ARGS + ["--workers", "2", "--max-retries", "0"]) == 0
        capsys.readouterr()
        assert captured["retry"].max_attempts == 1

    def test_one_worker_is_a_one_worker_pool_executor(self, capsys, monkeypatch):
        captured = {}

        class Recorder(PoolExecutor):
            def __init__(self, workers, retry=None):
                captured["workers"] = workers
                captured["retry"] = retry
                super().__init__(workers, retry=retry)

        monkeypatch.setattr(cli, "PoolExecutor", Recorder)
        assert main(FAST_PERF_ARGS + ["--max-retries", "6"]) == 0
        capsys.readouterr()
        assert captured["workers"] == 1
        assert captured["retry"] == RetryPolicy(max_attempts=7)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_quarantine_exits_nonzero_with_summary(
        self, capsys, monkeypatch, workers
    ):
        # Deterministic poison on every task: the campaign must not dump
        # a traceback but report the quarantine ledger and exit 3, in
        # this process as from a pool.
        monkeypatch.setenv("REPRO_CHAOS", "poison:1.0")
        code = main(FAST_PERF_ARGS + ["--workers", workers, "--max-retries", "0"])
        monkeypatch.delenv("REPRO_CHAOS")
        assert code == 3
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "re-run the same command" in err
        assert "--max-retries" in err
        assert "Traceback" not in err

    def test_keyboard_interrupt_exits_130_with_resume_hint(
        self, capsys, monkeypatch
    ):
        class Interrupting(PoolExecutor):
            def run(self, session, plan):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "PoolExecutor", Interrupting)
        assert main(FAST_PERF_ARGS + ["--workers", "2"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "resume" in err


class TestSubcommands:
    """The subcommand dispatch: `run` (default + explicit alias),
    `serve`, `submit` — the historical figure CLI must be byte-identical
    with or without the `run` token."""

    def test_run_alias_is_byte_identical_for_dry_run(self, capsys):
        assert main(FAST_PERF_ARGS + ["--dry-run"]) == 0
        default = capsys.readouterr()
        assert main(["run"] + FAST_PERF_ARGS + ["--dry-run"]) == 0
        alias = capsys.readouterr()
        assert alias.out == default.out
        assert alias.err == default.err

    def test_run_alias_is_byte_identical_for_figures(self, capsys):
        assert main(["fig3"]) == 0
        default = capsys.readouterr().out
        assert main(["run", "fig3"]) == 0
        assert capsys.readouterr().out == default

    def test_serve_parser_shares_run_dests(self):
        args = cli._serve_parser().parse_args([])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8631, 1)
        args = cli._serve_parser().parse_args(
            [
                "--port", "0",
                "--workers", "3",
                "--instructions", "2000",
                "--benchmarks", "gzip",
                "--no-store",
            ]
        )
        settings = cli._settings_from_args(args)
        assert settings.n_instructions == 2000
        assert settings.benchmarks == ("gzip",)
        store = cli._store_from_args(args)
        assert type(store).__name__ == "MemoryStore"

    @pytest.mark.parametrize("name", ["run", "serve", "predict"])
    def test_shared_flags_parse_to_the_same_dests(self, name):
        """Every flag the campaign subcommands share parses to one dest
        and default, so the same helpers read any of their namespaces."""
        make_parser, positional = {
            "run": (cli._build_parser, ["fig8"]),
            "serve": (cli._serve_parser, []),
            "predict": (cli._predict_parser, ["fig8"]),
        }[name]
        defaults = {
            "instructions": None,
            "maps": None,
            "benchmarks": None,
            "seed": None,
            "warmup": None,
            "store": None,
            "no_store": False,
            "store_fsync": None,
            "trace_cache": None,
            "workers": 1,
            "max_retries": 2,
            "chunk_timeout": None,
        }
        argv = [
            "--instructions", "1234",
            "--maps", "7",
            "--benchmarks", "gzip,mcf",
            "--seed", "9",
            "--warmup", "321",
            "--store", "DIR",
            "--store-fsync",
            "--trace-cache", "CACHE",
            "--workers", "3",
            "--max-retries", "4",
            "--chunk-timeout", "2.5",
        ]
        parsed = {
            "instructions": 1234,
            "maps": 7,
            "benchmarks": ("gzip", "mcf"),
            "seed": 9,
            "warmup": 321,
            "store": "DIR",
            "no_store": False,
            "store_fsync": True,
            "trace_cache": "CACHE",
            "workers": 3,
            "max_retries": 4,
            "chunk_timeout": 2.5,
        }

        def shared(flags):
            args = make_parser().parse_args(positional + flags)
            return {dest: getattr(args, dest) for dest in defaults}

        assert shared([]) == defaults
        assert shared(argv) == parsed
        assert shared(["--no-store"]) == {**defaults, "no_store": True}

    @pytest.mark.parametrize(
        "name,flag,value",
        [
            (name, flag, value)
            for name in ("run", "serve", "submit", "predict")
            for flag, value in (
                ("--instructions", "0"),
                ("--maps", "0"),
                ("--maps", "-1"),
                ("--warmup", "-1"),
                ("--workers", "0"),
                ("--max-retries", "-4"),
                ("--chunk-timeout", "0"),
                ("--chunk-timeout", "-2.5"),
            )
            # submit takes the fidelity flags only; execution is the
            # server's
            if name != "submit"
            or flag in ("--instructions", "--maps", "--warmup")
        ],
    )
    def test_bad_numeric_flags_exit_2(self, capsys, name, flag, value):
        make_parser, positional = {
            "run": (cli._build_parser, ["fig8"]),
            "serve": (cli._serve_parser, []),
            "submit": (cli._submit_parser, ["fig8", "--url", "http://x"]),
            "predict": (cli._predict_parser, ["fig8"]),
        }[name]
        with pytest.raises(SystemExit) as excinfo:
            make_parser().parse_args(positional + [flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "serve", "submit", "predict"])
    @pytest.mark.parametrize(
        "flags,env",
        [
            (["--benchmarks", "nope"], {}),
            (["--benchmarks", "gzip,nope"], {}),
            ([], {"REPRO_MAPS": "0"}),
            ([], {"REPRO_INSTR": "abc"}),
            ([], {"REPRO_BENCHMARKS": "nope"}),
        ],
        ids=["flag", "flag-subset", "env-maps", "env-instr", "env-benchmarks"],
    )
    def test_bad_benchmarks_and_environment_exit_2(
        self, capsys, monkeypatch, command, flags, env
    ):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "serve_blocking", lambda *a, **k: None)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = {
            "run": ["run", "fig8"],
            "serve": ["serve", "--port", "0", "--no-store"],
            "submit": ["submit", "fig8", "--url", "http://127.0.0.1:9"],
            "predict": ["predict", "fig8", "--no-store"],
        }[command]
        try:
            code = main(argv + flags)
        except SystemExit as exc:  # both exit the way argparse does
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if flags:
            assert "argument --benchmarks: unknown benchmarks: nope" in err
        else:
            ((name, value),) = env.items()
            assert err.splitlines() == [err.strip()]
            assert err.startswith(f"bad environment value: {name}={value!r}: ")

    def test_non_campaign_targets_skip_settings(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MAPS", "0")
        argv = ["fig3", "--no-store", "--trace-cache", str(tmp_path)]
        assert main(argv) == 0
        assert "fig3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "targets", [["fig3"], [*FAST_PERF_ARGS, "--dry-run"]], ids=["fig3", "fig8"]
    )
    def test_the_trace_cache_flag_leaves_the_environment(
        self, capsys, monkeypatch, tmp_path, targets
    ):
        """``--trace-cache`` reaches the session's trace provider alone:
        nothing is exported for traces built outside it."""
        from repro.experiments.providers import TRACE_CACHE_ENV

        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        before = dict(os.environ)
        assert main([*targets, "--no-store", "--trace-cache", str(tmp_path)]) == 0
        capsys.readouterr()
        assert dict(os.environ) == before

    def test_submit_spec_from_figures_matches_run_union(self):
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.figures import configs_for_targets

        args = cli._submit_parser().parse_args(
            ["fig8", "--url", "http://x"] + FAST_PERF_ARGS[1:]
        )
        spec = cli._submit_spec(args)
        expected = CampaignSpec.from_settings(
            cli._settings_from_args(args), tuple(configs_for_targets(["fig8"]))
        )
        assert spec == expected

    def test_submit_spec_from_json_file(self, tmp_path):
        import json

        from repro.campaign.spec import CampaignSpec, RunnerSettings
        from repro.experiments.configs import LV_BASELINE

        spec = CampaignSpec.from_settings(
            RunnerSettings(n_instructions=1000, benchmarks=("gzip",)),
            (LV_BASELINE,),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        args = cli._submit_parser().parse_args([str(path), "--url", "http://x"])
        assert cli._submit_spec(args) == spec

    def test_submit_rejects_non_performance_targets(self, capsys):
        assert main(["submit", "fig3", "--url", "http://x"]) == 2
        assert "unknown submit targets" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_2(self, capsys):
        code = main(
            ["submit", "--url", "http://127.0.0.1:9", "--timeout", "0.5"]
            + FAST_PERF_ARGS
        )
        assert code == 2
        assert "[submit]" in capsys.readouterr().err

    def test_submit_end_to_end_streams_ndjson(self, capsysbinary):
        import json

        from repro.campaign.session import Session
        from repro.campaign.spec import RunnerSettings
        from repro.service.server import ServerThread

        settings = RunnerSettings(
            n_instructions=3000,
            warmup_instructions=1000,
            n_fault_maps=2,
            benchmarks=("gzip",),
        )
        with Session(settings) as session, ServerThread(session) as server:
            code = main(["submit"] + FAST_PERF_ARGS + ["--url", server.url])
        assert code == 0
        captured = capsysbinary.readouterr()
        lines = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        # stdout is the complete wire stream: events, then the done line
        assert lines[-1]["done"] is True
        assert lines[-1]["failures"] == 0
        kinds = [line["event"] for line in lines[:-1]]
        assert kinds[0] == "PlanReady"
        assert kinds.count("PointResult") == 6
        assert b"[submit] done: failures=0" in captured.err
        # the NDJSON event lines replay through the wire codec
        from repro.campaign.events import event_from_dict

        for line in lines[:-1]:
            event_from_dict(line)
