"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        commands = set(sub.choices)
        assert commands == {
            "build", "accuracy", "profile", "multinode",
            "cache", "faults", "overload", "mutate", "serve",
            "trace", "reproduce",
        }

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBuildAndAccuracy:
    def test_build_then_evaluate(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "build", "--docs", "1500", "--dim", "32",
            "--clusters", "5", "--no-cache", "--out", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "5 shards" in out

        assert main([
            "accuracy", "--store", store, "--queries", "24",
            "--clusters-searched", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "NDCG" in out
        score = float(out.split(":")[1].split("(")[0])
        assert score > 0.85  # routing works on the reloaded store

    def test_split_strategy(self, tmp_path, capsys):
        store = str(tmp_path / "split")
        assert main([
            "build", "--docs", "1000", "--dim", "32",
            "--clusters", "4", "--strategy", "split", "--out", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "split datastore" in out
        assert "build-cache: not used" in out


class TestModelCommands:
    def test_profile(self, capsys):
        assert main(["profile", "--tokens", "1e10", "--batch", "32"]) == 0
        out = capsys.readouterr().out
        assert "nProbe" in out and "index memory" in out

    def test_multinode(self, capsys):
        assert main([
            "multinode", "--tokens", "1e11", "--batch", "64",
            "--dvfs", "baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup vs monolithic" in out

    def test_multinode_enhanced_dvfs(self, capsys):
        assert main([
            "multinode", "--tokens", "1e11", "--dvfs", "enhanced",
            "--inference-window", "2.0",
        ]) == 0
        assert "dvfs=enhanced" in capsys.readouterr().out

    def test_cache_sweep_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "cache_sweep.json")
        assert main([
            "cache", "--alphas", "0", "1.0", "--unique", "16",
            "--requests", "64", "--batch", "16", "--k", "3",
            "--capacity", "32", "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out and "speedup" in out
        # The acceptance criterion: cache counters surface via obs metrics.
        assert "retrieval_cache_lookups_total" in out
        payload = json.loads(open(out_path).read())
        assert payload["experiment"] == "serve_cache_skew_sweep"
        assert len(payload["points"]) == 2
        assert all(0.0 <= p["hit_rate"] <= 1.0 for p in payload["points"])

    def test_faults_sweep_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "faults.json")
        assert main([
            "faults", "--killed", "0", "1", "--queries", "8",
            "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "killed=0" in out and "killed=1" in out
        payload = json.loads(open(out_path).read())
        assert payload["figure"] == "fig_faults"
        assert len(payload["points"]) == 2


class TestServingCommands:
    def test_overload_writes_artifact(self, tmp_path, capsys):
        import json

        # The --smoke goodput floor is timing-sensitive (it compares two
        # measured throughputs), so it runs as its own CI step; here we pin
        # the deterministic plumbing: table, metrics snapshot, artifact.
        out_path = str(tmp_path / "overload.json")
        assert main([
            "overload", "--loads", "0.5", "2.0", "--requests", "120",
            "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "overload sweep" in out
        assert "failover (mid-run node kill):" in out
        assert "retrieval_failovers_total" in out
        payload = json.loads(open(out_path).read())
        assert payload["experiment"] == "overload_sweep"
        assert {p["load"] for p in payload["admission"]} == {0.5, 2.0}
        assert {p["load"] for p in payload["no_admission"]} == {0.5, 2.0}
        assert payload["failover"]

    def test_mutate_smoke_passes_and_writes_artifact(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "mutation.json")
        assert main([
            "mutate", "--churns", "0", "0.05", "--docs", "800",
            "--queries", "64", "--batch", "16", "--smoke", "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "live-mutation churn sweep" in out
        assert "smoke checks passed" in out
        # The obs counters must surface through the CLI snapshot.
        assert "datastore_inserts_total" in out
        assert "datastore_deletes_total" in out
        assert "datastore_compactions_total" in out
        payload = json.loads(open(out_path).read())
        assert payload["experiment"] == "mutation_churn"
        assert len(payload["points"]) == 2
        churned = payload["points"][1]
        assert churned["churn"] == 0.05
        assert churned["peak_delta_rows"] > 0
        assert churned["deleted_leaks"] == 0
        assert churned["live_equals_compacted"] is True

    def test_serve_writes_artifact(self, tmp_path, capsys):
        import json

        # The --smoke acceptance gate runs as its own CI step (serve-smoke);
        # here we pin the deterministic plumbing: table, metrics, artifact.
        out_path = str(tmp_path / "serve.json")
        assert main([
            "serve", "--docs", "150", "--requests", "4", "--strides", "3",
            "--out", out_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "live serving pipeline" in out
        assert "pipeline_requests_total" in out
        payload = json.loads(open(out_path).read())
        assert payload["experiment"] == "serve_pipeline"
        assert {p["mode"] for p in payload["points"]} == {
            "sequential", "pipelined", "lookahead",
        }
        assert all(p["mean_ttft_s"] > 0 for p in payload["points"])

    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = str(tmp_path / "trace.json")
        assert main([
            "trace", "retrieval", "--out", out_path, "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        assert "chrome trace ->" in out
        payload = json.loads(open(out_path).read())
        events = payload["traceEvents"] if isinstance(payload, dict) else payload
        assert len(events) > 0


class TestBuildCommand:
    def test_build_reports_cache_stats(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "build", "--docs", "600", "--clusters", "3", "--dim", "16",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "1 miss(es)" in cold and "1 store(s)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "1 hit(s)" in warm and "0 miss(es)" in warm

    def test_build_no_cache(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "build", "--docs", "600", "--clusters", "3", "--dim", "16",
            "--no-cache", "--out", str(tmp_path / "store"),
        ]) == 0
        out = capsys.readouterr().out
        assert "build-cache: disabled" in out
        assert (tmp_path / "store" / "manifest.json").exists()
