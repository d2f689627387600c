"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "fast5"
        assert args.n == 20

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-color {__version__}" in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8731
        assert args.queue_limit == 64
        assert args.cache_size == 1024
        assert args.max_batch == 32

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 100
        assert args.concurrency == 8
        assert args.duplicates == 0.0
        assert args.schedule == "bernoulli"


class TestCommands:
    def test_run_ok(self, capsys):
        status = main(["run", "--algorithm", "fast5", "--n", "8",
                       "--inputs", "random", "--schedule", "sync"])
        assert status == 0
        out = capsys.readouterr().out
        assert "terminated: 8/8" in out
        assert "proper    : True" in out

    def test_run_every_algorithm(self, capsys):
        for algorithm in ("alg1", "alg2", "fast5", "fast6"):
            assert main(["run", "--algorithm", algorithm, "--n", "6"]) == 0

    def test_run_with_timeline(self, capsys):
        assert main(["run", "--n", "5", "--timeline"]) == 0
        assert "p0" in capsys.readouterr().out

    def test_livelock_command(self, capsys):
        assert main(["livelock", "--loops", "5"]) == 0
        out = capsys.readouterr().out
        assert "finding E13" in out

    def test_falsify_mis(self, capsys):
        assert main(["falsify", "--target", "mis"]) == 0
        out = capsys.readouterr().out
        assert "DEFEATED" in out

    def test_falsify_coloring(self, capsys):
        assert main(["falsify", "--target", "coloring"]) == 0
        assert "DEFEATED" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--algorithm", "fast5", "--max-n", "64"]) == 0
        out = capsys.readouterr().out
        assert "log*n" in out
        assert "fit rounds" in out

    def test_ensemble(self, capsys):
        assert main(["ensemble", "--algorithm", "fast5", "--n", "8",
                     "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified ensemble" in out
        assert "max activations" in out

    def test_models(self, capsys):
        assert main(["models", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "DECOUPLED" in out
        assert "self-stabilizing" in out

    def test_progress(self, capsys):
        assert main(["progress", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "wait_free" in out
        assert "alg2" in out


class TestRunJson:
    def test_json_verdict_and_stats(self, capsys):
        assert main(["run", "--n", "8", "--schedule", "bernoulli",
                     "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["ok"] is True
        assert payload["verdict"]["terminated"] == 8
        assert payload["activations"]["round_complexity"] >= 1
        assert payload["activations"]["total"] >= 8
        assert payload["n"] == 8 and payload["schedule"] == "bernoulli"

    def test_json_suppresses_rendering(self, capsys):
        assert main(["run", "--n", "6", "--json"]) == 0
        out = capsys.readouterr().out
        json.loads(out)  # the whole stdout is one JSON document
        assert "algorithm :" not in out

    def test_json_reports_engine_used(self, capsys):
        """A traced run cannot take the plane engine: the requested
        engine stays ``wide``, the engine that ran is ``fast``."""
        assert main(["run", "--n", "8", "--engine", "wide", "--timeline",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "wide"
        assert payload["engine_used"] == "fast"
        assert main(["run", "--n", "8", "--engine", "wide", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["engine_used"] == "wide"


class TestCampaignCommand:
    ARGS = ["campaign", "--algorithms", "fast5", "--ns", "10",
            "--inputs", "random,zigzag", "--schedules", "sync,bernoulli",
            "--seeds", "2", "--backend", "sequential"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.backend == "pool"
        assert args.retries == 2
        assert not args.resume

    def test_sequential_campaign(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "backend=sequential" in out
        assert "runs=8" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert payload["report"]["runs"] == 8
        assert payload["summary"]["executed"] == 8

    def test_journal_resume_and_summary_artifact(self, tmp_path, capsys):
        journal = tmp_path / "c.jsonl"
        summary = tmp_path / "summary.json"
        assert main(self.ARGS + ["--journal", str(journal)]) == 0
        capsys.readouterr()  # drain the first invocation's text output
        assert main(self.ARGS + ["--journal", str(journal), "--resume",
                                 "--summary", str(summary), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["skipped"] == 8
        artifact = json.loads(summary.read_text())
        assert artifact["skipped"] == 8
        assert artifact["executed"] == 0

    def test_per_shard_percentiles_in_summary(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        shards = payload["summary"]["per_shard_latency"]
        assert shards
        for shard in shards.values():
            assert "p99" in shard and "wall" in shard
            assert "tasks_per_sec" in shard

    def test_campaign_metrics_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "campaign.metrics.json"
        assert main(self.ARGS + ["--metrics", "json",
                                 "--metrics-output", str(out_path)]) == 0
        capsys.readouterr()
        artifact = json.loads(out_path.read_text())
        assert artifact["artifact"] == "repro-metrics"
        metrics = artifact["metrics"]
        assert metrics["campaign_tasks_total"]["samples"][0]["value"] == 8
        assert "campaign_journal_appends_total" not in metrics  # no journal
        assert "engine_runs_total" in metrics  # worker runs instrumented


class TestMetricsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.algorithm == "alg1"
        assert args.n == 64
        assert args.budget_scale == 1.0
        assert args.format == "json"

    def test_alg1_c64_zero_violations(self, capsys):
        """The acceptance-criterion run: Algorithm 1 on C_64 with the
        Theorem 3.1 monitor — the artifact records zero violations."""
        assert main(["metrics", "--algorithm", "alg1", "--n", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["run"]["all_terminated"] is True
        for report in payload["monitors"]:
            assert report["ok"] is True
            assert report["violations"] == []
        budget_report = next(
            r for r in payload["monitors"] if r["monitor"] == "theorem-3.1"
        )
        assert budget_report["max_observed"] <= 3 * 64 // 2 + 4
        assert "engine_activations_total" in payload["metrics"]

    def test_tightened_budget_detects_violation(self, capsys):
        status = main(["metrics", "--algorithm", "alg1", "--n", "32",
                       "--inputs", "monotone", "--budget-scale", "0.02"])
        assert status == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        violations = [
            v for r in payload["monitors"] for v in r["violations"]
        ]
        assert violations
        first = violations[0]
        assert {"time", "process", "observed", "budget"} <= set(first)
        assert first["observed"] > first["budget"]
        assert "violation:" in captured.err

    def test_prometheus_output_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(["metrics", "--algorithm", "fast5", "--n", "16",
                     "--format", "prom", "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert "# TYPE engine_runs_total counter" in text
        assert "bound_violations_total" not in text  # clean run

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_both_engines(self, engine, capsys):
        assert main(["metrics", "--algorithm", "fast6", "--n", "12",
                     "--engine", engine]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestRunMetricsFlags:
    def test_run_metrics_off_by_default(self, capsys):
        assert main(["run", "--n", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload

    def test_run_json_embeds_metrics(self, capsys):
        assert main(["run", "--n", "6", "--json", "--metrics", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "engine_runs_total" in payload["metrics"]

    def test_run_text_mode_appends_artifact(self, capsys):
        assert main(["run", "--n", "6", "--metrics", "json"]) == 0
        out = capsys.readouterr().out
        assert '"repro-metrics"' in out

    def test_run_metrics_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "run.prom"
        assert main(["run", "--n", "6", "--metrics", "prom",
                     "--metrics-output", str(out_path)]) == 0
        assert "engine_runs_total" in out_path.read_text()

    def test_run_exhaustion_diagnostics_on_stderr(self, capsys):
        status = main(["run", "--algorithm", "alg1", "--n", "12",
                       "--inputs", "monotone", "--max-time", "2", "--json"])
        assert status == 1
        captured = capsys.readouterr()
        assert "max_time exhausted" in captured.err
        payload = json.loads(captured.out)
        assert payload["time_exhausted"]["final_time"] == 2
        assert payload["time_exhausted"]["pending"]


class TestServiceCommands:
    def test_loadgen_against_inprocess_server(self, capsys):
        from repro.service.server import ServerThread

        with ServerThread() as server:
            status = main([
                "loadgen", "--port", str(server.port),
                "--requests", "10", "--concurrency", "2",
                "--duplicates", "0.5", "--n", "16", "--json",
            ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] == 10
        assert payload["outcomes"]["errors"] == 0
        assert payload["statuses"] == {"200": 10}

    def test_loadgen_text_output(self, capsys):
        from repro.service.server import ServerThread

        with ServerThread() as server:
            status = main([
                "loadgen", "--port", str(server.port),
                "--requests", "6", "--concurrency", "2", "--n", "16",
            ])
        assert status == 0
        out = capsys.readouterr().out
        assert "6 requests @ concurrency 2" in out
        assert "latency" in out

    def test_loadgen_unreachable_server_fails(self, capsys):
        # Nothing listens on port 9; every request errors, exit 1.
        status = main([
            "loadgen", "--port", "9", "--requests", "2",
            "--concurrency", "1", "--timeout", "0.5",
        ])
        assert status == 1
