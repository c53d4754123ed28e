"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["decompose", "q5"],
            ["run", "q5"],
            ["explain", "q5"],
            ["experiment", "fig10"],
            ["serve"],
            ["bench-serve"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "2", "--queue-capacity", "4",
             "--cache-capacity", "16", "--budget", "1000"]
        )
        assert args.workers == 2
        assert args.queue_capacity == 4
        assert args.cache_capacity == 16
        assert args.budget == 1000

    def test_serving_experiment_registered(self):
        from repro.bench.experiments import EXPERIMENTS

        assert "serving" in EXPERIMENTS
        args = build_parser().parse_args(["experiment", "serving"])
        assert callable(args.func)

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_decompose_q5(self, capsys):
        assert main(["decompose", "q5", "--size-mb", "50", "--width", "3"]) == 0
        out = capsys.readouterr().out
        assert "Conjunctive query" in out
        assert "λ=" in out

    def test_decompose_with_views(self, capsys):
        assert main(
            ["decompose", "q5", "--size-mb", "50", "--width", "3", "--views"]
        ) == 0
        assert "CREATE VIEW" in capsys.readouterr().out

    def test_decompose_inline_sql(self, capsys):
        sql = (
            "SELECT n_name FROM nation, region "
            "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'"
        )
        assert main(["decompose", sql, "--size-mb", "50"]) == 0
        assert "λ=" in capsys.readouterr().out

    def test_explain(self, capsys):
        assert main(["explain", "q5", "--size-mb", "50", "--width", "3"]) == 0
        out = capsys.readouterr().out
        assert "HashJoin" in out
        assert "λ=" in out

    def test_explain_analyze_reports_planning_effort(self, capsys):
        assert main(["explain", "q5", "--size-mb", "20", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "planning: " in out
        assert "distinct λ" in out and "join estimates" in out

    def test_run_compares_systems(self, capsys):
        assert main(["run", "q5", "--size-mb", "50", "--width", "3"]) == 0
        out = capsys.readouterr().out
        assert "commdb+stats" in out
        assert "q-hd" in out
        assert "answers agree: True" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "q5", "--size-mb", "50", "--width", "3"]) == 0
        out = capsys.readouterr().out
        assert "hypertree width:     2" in out
        assert "acyclic:             False" in out
        assert "biconnected width" in out

    def test_decompose_dot_output(self, capsys):
        assert main(
            ["decompose", "q5", "--size-mb", "50", "--width", "3", "--dot"]
        ) == 0
        out = capsys.readouterr().out
        assert 'graph "H"' in out
        assert 'digraph "HD"' in out

    def test_experiment_overhead(self, capsys):
        assert main(
            ["experiment", "overhead", "--metric", "elapsed_seconds"]
        ) == 0
        assert "analyze" in capsys.readouterr().out

    def test_serve_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("# comment\nq5\nq5\n\n"),
        )
        assert main(["serve", "--size-mb", "20", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "q-hd" in out
        assert "q-hd(cached)" in out
        assert "cache_hits: 1" in out

    def test_serve_empty_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--size-mb", "20"]) == 1

    def test_serve_bad_query_reported_not_crashing(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("NOT SQL AT ALL\nq5\n")
        )
        assert main(["serve", "--size-mb", "20", "--workers", "2"]) == 2
        out = capsys.readouterr().out
        assert "error: expected 'select'" in out
        assert "q-hd" in out  # the good query still ran

    def test_serve_deadline_and_inject_flags(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("q5\nq5\n"))
        # Rate-1.0 search faults force the ladder onto the builtin planner;
        # the generous deadline never fires.
        assert main(
            ["serve", "--size-mb", "20", "--workers", "2",
             "--deadline-ms", "60000",
             "--inject", "decompose.search:error:1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "builtin-fallback" in out
        assert "deadline_misses: 0" in out

    def test_bench_serve(self, capsys):
        assert main(
            ["bench-serve", "--workers", "4", "--repetitions", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "cold" in out and "warm" in out
        assert "amortization" in out

    def test_bench_serve_resilience_flags(self, capsys):
        assert main(
            ["bench-serve", "--workers", "2", "--repetitions", "2",
             "--deadline-ms", "60000", "--inject", "exec.join:error:0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "deadline miss:" in out
        assert "errors:" in out
        assert "fallbacks:" in out

    def test_bench_serve_sharded_records_report(self, capsys, tmp_path):
        import json

        record = tmp_path / "BENCH_serving.json"
        assert main(
            ["bench-serve", "--shards", "2", "--workers", "2",
             "--record", str(record)]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded serving" in out
        assert "p50=" in out and "p99=" in out
        assert "identical=True" in out
        report = json.loads(record.read_text())
        assert report["benchmark"] == "sharded-serving"
        assert report["parity"]["identical"] is True
        assert report["hit_rate_ok"] is True
        assert report["sharded"]["drained_clean"] is True
        assert report["python"]  # the environment envelope
        from repro.bench.record import validate_record

        assert validate_record(report) == []  # stamped: one record format

    def test_serve_sigint_drains_and_flushes(self):
        """SIGINT mid-batch: graceful drain, exit 130, metrics still flushed."""
        import os
        import signal as signal_module
        import subprocess
        import sys as sys_module
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1"
        )
        proc = subprocess.Popen(
            [sys_module.executable, "-m", "repro.cli", "serve",
             "--size-mb", "20", "--workers", "2", "--grace", "20",
             # latency at every join keeps queries in flight while we signal
             "--inject", "exec.join:latency:1.0:50"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            proc.stdin.write("q5\n" * 40)
            proc.stdin.close()
            # The header prints once the service is up and the signal
            # handlers are installed; block until then.
            header = proc.stdout.readline()
            assert "optimizer" in header
            time.sleep(0.5)  # well inside run_all now
            proc.send_signal(signal_module.SIGINT)
            returncode = proc.wait(timeout=120)
            out = header + proc.stdout.read()
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert returncode == 130, err
        assert "draining" in err
        # Observability still flushed on the signal path.
        assert "queries:" in out
        assert "pool:" in out

    @pytest.mark.parametrize(
        "metrics_format, single_marker, sharded_marker",
        [
            ("text", "\nqueries:\n  submitted: 3", "\n  queries:\n    submitted: 3"),
            ("json", '\n  "planning": {', '\n  "merged": {'),
            ("prom", "\nservice_queries_submitted_total 3", "\nservice_queries_submitted_total 3"),
        ],
        ids=["text", "json", "prom"],
    )
    def test_serve_sharded_answers_match_single_process(
        self, capsys, monkeypatch, metrics_format, single_marker, sharded_marker
    ):
        """``--shards 2`` and the default path print identical result
        lines for the same stdin batch (rows, order, and work units; only
        wall-clock columns may differ) — whatever the final rendering,
        which each mode still prints after them."""
        import io

        def result_lines(argv, stdin, marker):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv + ["--metrics-format", metrics_format]) == 0
            out = capsys.readouterr().out
            assert marker in out
            lines = []
            for line in out.splitlines():
                parts = line.split()
                # "  1 q-hd   165   25   0.001" -> drop the wall column.
                if len(parts) == 5 and parts[0].isdigit():
                    lines.append(tuple(parts[:-1]))
            return lines

        stdin = "q5\nq5\nq3\n"
        single = result_lines(
            ["serve", "--size-mb", "20", "--workers", "2"],
            stdin,
            single_marker,
        )
        sharded = result_lines(
            ["serve", "--size-mb", "20", "--workers", "2", "--shards", "2"],
            stdin,
            sharded_marker,
        )
        assert len(single) == 3
        assert sharded == single

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_serve_prom_insights_block_follows_the_flag(
        self, capsys, monkeypatch, shards
    ):
        """One guard in both modes: the per-template Prometheus block is
        printed exactly when ``--insights`` is on (and recorded anything)."""
        import io

        argv = ["serve", "--size-mb", "20", "--workers", "2",
                "--shards", shards, "--metrics-format", "prom"]
        for flags, expected in (([], False), (["--insights"], True)):
            monkeypatch.setattr("sys.stdin", io.StringIO("q5\nq5\n"))
            assert main(argv + flags) == 0
            out = capsys.readouterr().out
            assert "service_queries_submitted_total 2" in out
            assert ("hdqo_template_queries_total{" in out) is expected

    def test_serve_single_process_reports_lock_order_violations(
        self, capsys, monkeypatch
    ):
        """``HDQO_LOCKCHECK=1``: a witnessed lock-order cycle in the serving
        process is a stderr line and exit 2 without ``--shards`` too."""
        import io

        from repro.analysis import lockwitness

        witness = lockwitness.LockWitness()
        first = lockwitness.WitnessLock("test.first", witness)
        second = lockwitness.WitnessLock("test.second", witness)
        with first, second:
            pass
        with second, first:
            pass
        assert witness.violations
        monkeypatch.setattr(lockwitness, "GLOBAL_WITNESS", witness)
        monkeypatch.setenv("HDQO_LOCKCHECK", "1")
        monkeypatch.setattr("sys.stdin", io.StringIO("q5\n"))
        assert main(["serve", "--size-mb", "20", "--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert "q-hd" in captured.out  # the query itself was fine
        assert "lock-order violation: " in captured.err

    def test_serve_supervised_answers_match_single_process(
        self, capsys, monkeypatch
    ):
        """The acceptance bar: ``--shards N --supervise`` on a fault-free
        batch prints result lines byte-identical to ``--shards 1``, and
        the supervision summary reports nothing healed."""
        import io

        def run(argv, stdin):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv) == 0
            out = capsys.readouterr().out
            lines = []
            for line in out.splitlines():
                parts = line.split()
                if parts and parts[0].isdigit():
                    lines.append(tuple(parts[:-1]))  # drop wall column
            return lines, out

        stdin = "q5\nq5\nq3\n"
        single, _ = run(
            ["serve", "--size-mb", "20", "--workers", "2"], stdin
        )
        supervised, out = run(
            ["serve", "--size-mb", "20", "--workers", "2",
             "--shards", "2", "--supervise", "--max-restarts", "3"],
            stdin,
        )
        assert len(single) == 3
        assert supervised == single
        assert "supervision: deaths=0  restarts=0" in out

    def test_bench_serve_kill_storm_records_resilience(
        self, capsys, tmp_path
    ):
        """``bench-serve --kill-rate`` adds the resilience section —
        availability, recovery percentiles, full-strength verdict — to
        the report and the recorded JSON."""
        import json

        record = tmp_path / "BENCH_serving_storm.json"
        assert main(
            ["bench-serve", "--shards", "2", "--workers", "2",
             "--repetitions", "4", "--kill-rate", "0.05",
             "--record", str(record)]
        ) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "availability=" in out
        assert "recovery:" in out
        report = json.loads(record.read_text())
        assert report["kill_rate"] == 0.05
        assert report["supervise"] is True
        resilience = report["resilience"]
        assert resilience["recovered_to_full"] is True
        assert 0.0 <= resilience["availability"] <= 1.0
        assert report["parity"]["checked"] is False  # storms may error

    def test_serve_sharded_bad_query_reported_not_crashing(
        self, capsys, monkeypatch
    ):
        """An unparseable line fails at routing time (the router parses
        to fingerprint); it must become a per-line error, not abort the
        batch — same contract as the single-process path."""
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("q5\nNOT SQL AT ALL\nq5\n")
        )
        assert main(
            ["serve", "--size-mb", "20", "--workers", "2", "--shards", "2"]
        ) == 2
        out = capsys.readouterr().out
        assert "error: expected 'select'" in out
        assert "q-hd" in out  # the good queries still ran
        assert "q-hd(cached)" in out

    @pytest.mark.parametrize("signal_name", ["SIGINT", "SIGTERM"])
    def test_serve_sharded_signal_drains_cluster(self, signal_name):
        """A signal mid-batch drains every shard process: exit 130, the
        merged metrics still flush, and no worker is left behind."""
        import os
        import signal as signal_module
        import subprocess
        import sys as sys_module
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1"
        )
        proc = subprocess.Popen(
            [sys_module.executable, "-m", "repro.cli", "serve",
             "--size-mb", "20", "--workers", "2", "--shards", "2",
             "--grace", "20",
             "--inject", "exec.join:latency:1.0:50"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            proc.stdin.write("q5\n" * 40)
            proc.stdin.close()
            header = proc.stdout.readline()
            assert "optimizer" in header
            time.sleep(0.5)  # well inside run_all now
            proc.send_signal(getattr(signal_module, signal_name))
            returncode = proc.wait(timeout=120)
            out = header + proc.stdout.read()
            err = proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()
        assert returncode == 130, err
        assert "draining 2 shards" in err
        # The merged cluster view still flushed on the signal path.
        assert "merged cluster metrics" in out
        assert "queries:" in out
        assert "per-shard cache hit rates" in out
