"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main, run_experiment
from repro.engine.registry import experiment_names


def test_scipy_loads_on_render_or_fork_not_on_import():
    # Only rendering needs scipy: importing it with the CLI would double
    # every command's start-up, and importing it per forked pool worker
    # would cost each worker the import time and memory again.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    script = (
        "import os, sys, repro.cli\n"
        "print('scipy' in sys.modules)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.split() == ["False", "True"], out.stderr


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_options(self):
        args = build_parser().parse_args(
            ["table2", "fig11", "--samples", "3", "--seed", "7"]
        )
        assert args.experiments == ["table2", "fig11"]
        assert args.samples == 3
        assert args.seed == 7
        assert args.workers == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_parses_engine_options(self):
        args = build_parser().parse_args(
            ["fig9", "--workers", "4", "--cache-dir", "/tmp/c",
             "--no-cache", "--progress"]
        )
        assert args.workers == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache
        assert args.progress

    def test_parses_fault_options(self):
        args = build_parser().parse_args(
            ["fig9", "--retries", "2", "--retry-backoff", "0.01",
             "--job-timeout", "30", "--on-error", "collect"]
        )
        assert args.retries == 2
        assert args.retry_backoff == 0.01
        assert args.job_timeout == 30.0
        assert args.on_error == "collect"
        defaults = build_parser().parse_args(["fig9"])
        assert defaults.retries == 0
        assert defaults.retry_backoff == 0.05
        assert defaults.job_timeout is None
        assert defaults.on_error == "raise"

    @pytest.mark.parametrize("flag", [
        "--workers", "--sim-shards", "--eval-shards",
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "many"])
    def test_counts_must_be_positive_integers(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", flag, value])
        err = capsys.readouterr().err
        assert "must be >= 1" in err or "not an integer" in err

    @pytest.mark.parametrize("argv", [
        ["fig9", "--retries", "-1"],
        ["fig9", "--retries", "1.5"],
        ["fig9", "--retry-backoff", "-0.1"],
        ["fig9", "--retry-backoff", "nan"],
        ["fig9", "--job-timeout", "0"],
        ["fig9", "--job-timeout", "-5"],
        ["fig9", "--on-error", "ignore"],
    ])
    def test_fault_options_validated(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("flag", ["--workers", "--sim-shards"])
    def test_positive_counts_accepted(self, flag):
        args = build_parser().parse_args(["fig9", flag, "3"])
        assert getattr(args, flag.lstrip("-").replace("-", "_")) == 3

    def test_parses_remote_options(self):
        args = build_parser().parse_args([
            "fig9",
            "--remote-cache", "http://cache:8378/",
            "--peers", "http://a:8377, http://b:8377,",
        ])
        assert args.remote_cache == "http://cache:8378"
        assert args.peers == ["http://a:8377", "http://b:8377"]
        defaults = build_parser().parse_args(["fig9"])
        assert defaults.remote_cache is None
        assert defaults.peers is None

    @pytest.mark.parametrize("argv", [
        ["fig9", "--remote-cache", "cache:8378"],
        ["fig9", "--remote-cache", "https://cache:8378"],
        ["fig9", "--remote-cache", "http://"],
        ["fig9", "--remote-cache", "http://cache:notaport"],
        ["fig9", "--remote-cache", "http://cache:1/path"],
        ["fig9", "--peers", ""],
        ["fig9", "--peers", ","],
        ["fig9", "--peers", "http://a:1,b:2"],
        ["fig9", "--peers", "file:///etc/passwd"],
    ])
    def test_remote_options_validated(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert "must look like http://" in err or "no peer URLs" in err \
            or "bad port" in err or "bare base URL" in err

    def test_no_cache_conflicts_with_remote_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig9", "--no-cache",
                  "--remote-cache", "http://cache:8378"])
        assert "conflicts" in capsys.readouterr().err

    def test_serve_parser_shares_remote_options(self, capsys):
        from repro.serve.server import build_parser as serve_parser

        args = serve_parser().parse_args(
            ["--peers", "http://a:8377", "--remote-cache", "http://c:1"]
        )
        assert args.peers == ["http://a:8377"]
        assert args.remote_cache == "http://c:1"
        with pytest.raises(SystemExit):
            serve_parser().parse_args(["--peers", "nope"])
        assert "must look like http://" in capsys.readouterr().err


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["table99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_registry_covers_all_tables_and_figures(self):
        expected = {
            "table2", "table3", "table4", "table5",
            "fig2b", "fig2c", "fig9", "fig10a", "fig10b", "fig10c",
            "fig10d", "fig11", "fig12", "fig13", "scenario",
        }
        assert expected == set(experiment_names())

    @pytest.mark.slow
    def test_run_single_experiment(self, capsys):
        assert main(["fig13", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIG 13" in out
        assert "executed" in out  # engine summary line

    @pytest.mark.slow
    def test_run_experiment_helper(self):
        text = run_experiment("fig2c", samples=2, seed=0)
        assert "Sparsity" in text

    @pytest.mark.slow
    def test_multi_experiment_schedule_dedupes(self, capsys, tmp_path):
        # table3 and fig11 share their dense/cmc/focus cells.
        assert main([
            "table3", "fig11", "--samples", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "TABLE III" in out
        assert "FIG 11" in out
        assert "deduped" in out

    @pytest.mark.slow
    def test_collect_mode_exits_partial_with_failure_report(
        self, capsys, tmp_path
    ):
        import json

        from repro.engine import install_fault_plan

        install_fault_plan("eval:cmc:*@*:raise")
        jsonl = tmp_path / "events.jsonl"
        try:
            code = main([
                "table3", "--samples", "1", "--on-error", "collect",
                "--progress-jsonl", str(jsonl),
            ])
        finally:
            install_fault_plan(None)
        assert code == 3
        captured = capsys.readouterr()
        assert "job(s) failed" in captured.out
        assert "incomplete" in captured.err
        last = json.loads(jsonl.read_text().splitlines()[-1])
        assert last["event"] == "run-partial"
        assert "table3" in last["failures"]

    @pytest.mark.slow
    def test_warm_cache_run_executes_nothing(self, capsys, tmp_path):
        assert main(["fig13", "--samples", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["fig13", "--samples", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out


class TestScenarioFlag:
    def test_scenario_spec_canonicalized_at_parse_time(self):
        args = build_parser().parse_args(
            ["scenario", "--scenario", "mtconv:turns=2"]
        )
        assert args.scenario == \
            "mtconv:seed=0,history=4,profile=videomme,turns=2"

    def test_invalid_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "--scenario", "mtconv:bogus=1"]
            )
        assert "bogus" in capsys.readouterr().err

    def test_scenario_flag_requires_scenario_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--scenario", "mtconv"])
        assert "only applies" in capsys.readouterr().err

    @pytest.mark.slow
    def test_scenario_experiment_runs(self, capsys):
        assert main(["scenario", "--scenario", "mtconv:turns=2",
                     "--samples", "2", "--eval-shards", "1"]) == 0
        out = capsys.readouterr().out
        assert "SCENARIO mtconv" in out
        assert "digest" in out


class TestLoadCommand:
    def _parse(self, argv):
        from repro.load.cli import build_parser as build_load_parser
        return build_load_parser().parse_args(argv)

    def test_defaults(self):
        args = self._parse([])
        assert args.mode == "closed"
        assert not args.virtual
        assert args.url == "http://127.0.0.1:8377"

    @pytest.mark.parametrize("argv, fragment", [
        (["--mode", "open", "--concurrency", "2"], "conflicts"),
        (["--mode", "open", "--think", "1", "--requests", "4"],
         "conflicts"),
        (["--mode", "closed", "--rate", "8"], "conflicts"),
        (["--mode", "closed", "--duration", "2", "--burst-size", "2"],
         "conflicts"),
        (["--url", "ftp://x"], "http"),
        (["--concurrency", "0"], ">= 1"),
        (["--think", "-1"], ">= 0"),
        (["--scenario", "mtconv", "--experiments", "fig13"],
         "only applies"),
        (["--scenario", "nope"], "unknown scenario"),
    ])
    def test_flag_validation(self, argv, fragment, capsys):
        from repro.load.cli import main as load_main
        with pytest.raises(SystemExit):
            load_main(argv)
        assert fragment in capsys.readouterr().err

    def test_bad_trace_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"at_s": -3}\n', encoding="utf-8")
        from repro.load.cli import main as load_main
        with pytest.raises(SystemExit):
            load_main(["--virtual", "--trace", str(bad)])
        err = capsys.readouterr().err
        assert "bad trace file" in err
        with pytest.raises(SystemExit):
            load_main(["--virtual",
                       "--trace", str(tmp_path / "missing.jsonl")])
        assert "bad trace file" in capsys.readouterr().err

    def test_virtual_closed_loop_via_main_dispatch(self, capsys,
                                                   tmp_path):
        output = tmp_path / "load.json"
        assert main(["load", "--virtual", "--mode", "closed",
                     "--concurrency", "2", "--requests", "6",
                     "--subscribers", "3",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "[load closed/virtual] 6 requests (0 failed)" in out
        assert "histogram:" in out
        import json
        summary = json.loads(output.read_text(encoding="utf-8"))
        assert summary["requests"] == 6
        assert summary["fanout"]["subscribers"] == 3
        assert sum(summary["histogram_ms"]["counts"]) == 6

    def test_virtual_open_loop_replays_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"at_s": 0.0}\n{"at_s": 0.1, "subscribers": 2}\n',
            encoding="utf-8",
        )
        assert main(["load", "--virtual", "--mode", "open",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "[load open/virtual] 2 requests (0 failed)" in out
