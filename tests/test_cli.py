"""CLI smoke tests (in-process, no subprocess overhead)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "fig2", "--full", "--seed", "3"])
        assert args.experiment == "fig2"
        assert args.full is True
        assert args.seed == 3

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.n == 100
        assert args.tids == 60.0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "val-sim" in out

    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_evaluate_small(self, capsys):
        code = main(
            ["evaluate", "--n", "16", "--m", "3", "--tids", "120", "--breakdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MTTSF" in out and "cost/s" in out

    def test_run_scale_with_artifacts(self, capsys, tmp_path):
        code = main(["run", "scale", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "solver_scaling" in out
        assert (tmp_path / "scale.json").exists()

    def test_package_version_importable(self):
        import repro

        assert repro.__version__


class TestSweepCommand:
    def test_sweep_parses_engine_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "num_voters=3,5", "--jobs", "2",
             "--cache-dir", "/tmp/x"]
        )
        assert args.axis == ["num_voters=3,5"]
        assert args.jobs == 2 and args.cache_dir == "/tmp/x"

    def test_jobs_accepts_backend_grammar(self):
        args = build_parser().parse_args(["run", "fig2", "--jobs", "auto"])
        assert args.jobs == "auto"
        args = build_parser().parse_args(["run", "fig2", "--jobs", "vector:2"])
        assert args.jobs == "vector:2"

    def test_bad_jobs_spec_is_an_error(self, capsys):
        assert main(["run", "scale", "--jobs", "nonsense"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_cache_cap_requires_cache_dir(self, capsys):
        assert main(["run", "scale", "--jobs", "0", "--cache-cap-mb", "1"]) == 2
        assert "cache_cap_mb" in capsys.readouterr().err
        # A lone --cache-cap-mb must fail the same way, not be silently
        # dropped because no other engine flag was given.
        assert main(["run", "scale", "--cache-cap-mb", "1"]) == 2
        assert "cache_cap_mb" in capsys.readouterr().err

    def test_verbose_prints_cache_stats(self, capsys, tmp_path):
        code = main(
            ["sweep", "--axis", "detection_interval_s=15,60", "--n", "12",
             "--cache-dir", str(tmp_path / "cache"),
             "--cache-cap-mb", "8", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache stats:" in out
        assert "disk_evictions=0" in out
        assert "misses=2" in out

    def test_sweep_grid(self, capsys, tmp_path):
        code = main(
            ["sweep", "--axis", "detection_interval_s=15,60",
             "--axis", "num_voters=3,5", "--n", "12",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path / "sweep.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 points" in out and "MTTSF_s" in out
        artifact = (tmp_path / "sweep.json").read_text()
        assert "cli-sweep" in artifact

    def test_sweep_needs_axes(self, capsys):
        assert main(["sweep"]) == 2
        assert "--axis" in capsys.readouterr().err

    def test_sweep_bad_axis_spec(self, capsys):
        assert main(["sweep", "--axis", "nonsense"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_sweep_spec_file(self, capsys, tmp_path):
        import json

        spec = tmp_path / "jobs.json"
        spec.write_text(json.dumps({
            "name": "mini",
            "jobs": [
                {"name": "a", "base": {"num_nodes": 12},
                 "axes": {"detection_interval_s": [15.0, 60.0]}},
                {"name": "b", "base": {"num_nodes": 12},
                 "axes": {"detection_interval_s": [15.0, 60.0]}},
            ],
        }))
        assert main(["sweep", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "4 requested, 2 unique" in out

    def test_point_errors_exit_nonzero_not_silent(self, capsys, tmp_path):
        import json

        # A bogus method passes spec construction but fails per point at
        # evaluation time: the series must be marked FAILED and the exit
        # code must flag it (never a silent 0 with partial data).
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "name": "bad", "base": {"num_nodes": 12}, "method": "bogus",
            "axes": {"detection_interval_s": [15.0, 60.0]},
        }))
        out_path = tmp_path / "partial.json"
        assert main(["sweep", "--spec", str(spec), "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FAILED") == 4  # 2 points x 2 metrics
        assert "2 of 2 grid points failed" in captured.err

    def test_run_with_cache_reuses_results(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["run", "abl-hostids", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(["run", "abl-hostids", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out

        def series_lines(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("==")  # header carries wall time
            ]

        assert series_lines(first) == series_lines(second)
        cache_files = list((tmp_path / "cache").glob("v*/*/*.json"))
        assert len(cache_files) == 5  # one per host-IDS quality level


class TestObservabilityFlags:
    SWEEP = ["sweep", "--axis", "detection_interval_s=15,60", "--n", "12"]

    def test_traced_sweep_writes_valid_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics_out = tmp_path / "metrics.json"
        out = tmp_path / "sweep.json"
        code = main(self.SWEEP + [
            "--trace", str(trace),
            "--metrics-out", str(metrics_out),
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"trace: {trace}" in stdout
        assert f"manifest: {tmp_path / 'sweep.manifest.json'}" in stdout

        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"batch.dedup", "batch.evaluate"} <= names
        assert all(e["ph"] == "X" for e in payload["traceEvents"])

        merged = json.loads(metrics_out.read_text())
        assert merged["engine.requests"]["value"] == 2
        assert merged["engine.evaluated"]["value"] == 2

        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["backend"] == "vector"
        assert len(manifest["params_digest"]) == 64
        # The manifest report mirrors the artifact's own report counts.
        artifact = json.loads(out.read_text())
        (report,) = manifest["reports"]
        assert report["n_requested"] == artifact["report"]["n_requested"]
        assert report["n_evaluated"] == artifact["report"]["n_evaluated"]

    def test_jsonl_trace_format(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(self.SWEEP + ["--trace", str(trace)]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines and all("name" in l and "start_s" in l for l in lines)

    def test_explicit_manifest_path(self, tmp_path):
        manifest = tmp_path / "deep" / "run.manifest.json"
        assert main(self.SWEEP + ["--manifest", str(manifest)]) == 0
        payload = json.loads(manifest.read_text())
        assert payload["command"] == "repro-experiments sweep"
        assert payload["errors"] == []

    def test_progress_line_on_stderr(self, capsys):
        assert main(self.SWEEP + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "2/2 points" in err
        assert "evaluated=2" in err
        assert err.endswith("\n")

    def test_verbose_prints_phase_timings(self, capsys, tmp_path):
        code = main(self.SWEEP + [
            "--cache-dir", str(tmp_path / "cache"), "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phases: dedup=" in out
        assert "hit rate" in out

    def test_run_manifest_lands_in_out_dir(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        code = main([
            "run", "abl-hostids", "--jobs", "0",
            "--out", str(out),
            "--metrics-out", str(tmp_path / "metrics.json"),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "repro-experiments run abl-hostids"
        assert manifest["reports"], "batch ledger missing from manifest"

    def test_bad_log_level_is_a_cli_error(self, capsys):
        assert main(self.SWEEP + ["--log-level", "NOISY"]) == 2
        assert "unknown log level" in capsys.readouterr().err
