"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig4_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.cache_kb == 512
        assert args.points == 4096

    def test_fig4_rejects_unknown_cache(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--cache-kb", "64"])

    def test_calibrate_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate", "--model", "magic"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--batch-cells", "0"],
        ["sweep", "--batch-cells", "1"],
        ["calibrate", "--cache-dir", "D"],
    ], ids=["serve-batch-cells", "sweep-batch-cells",
            "calibrate-cache-dir"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_fig4_tiny(self, capsys):
        code = main(["fig4", "--cache-kb", "8", "--points", "1024",
                     "--procs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "avg error" in out

    def test_fig5_tiny(self, capsys):
        code = main(["fig5", "--bus-delays", "4", "8"])
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_fig6_quick(self, capsys):
        code = main(["fig6", "--quick"])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_table1_tiny(self, capsys):
        code = main(["table1", "--points", "1024", "--procs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "speedup" in out

    def test_calibrate(self, capsys):
        code = main(["calibrate", "--model", "md1", "--threads", "2"])
        assert code == 0
        assert "Calibration" in capsys.readouterr().out

    def test_report(self, capsys):
        code = main(["report", "examples/scenarios/set_top_box.json",
                     "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Estimator comparison" in out
        assert "set_top_box" in out
        assert "speedup" in out

    def test_report_missing_scenario_reports_cell_error(self, capsys):
        code = main(["report", "examples/scenarios/set_top_box.json",
                     "no_such_scenario.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "set_top_box" in out
        assert "error:" in out

    def test_pareto_tiny(self, capsys):
        code = main(["pareto", "--points", "256", "--procs", "2", "4",
                     "--bus-delays", "2", "8", "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "design sweep" in out
        assert "knee" in out
        assert "front" in out


class TestSpecCommands:
    def dump_spec(self, path):
        code = main(["spec", "dump", "uniform", "--params",
                     '{"threads": 2, "phases": 2, "accesses": 30}',
                     "--model", "mm1", "-o", str(path)])
        assert code == 0

    def test_spec_dump_prints_json(self, capsys):
        code = main(["spec", "dump", "uniform", "--params",
                     '{"threads": 2}'])
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["generator"] == "uniform"
        assert data["params"] == {"threads": 2}

    def test_spec_dump_rejects_unknown_generator(self, capsys):
        with pytest.raises(KeyError):
            main(["spec", "dump", "no_such_generator"])

    def test_spec_dump_and_hash(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        self.dump_spec(path)
        capsys.readouterr()
        assert main(["spec", "hash", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spec hash" in out
        assert "code version" in out

    def test_run_spec_cold_then_warm(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        self.dump_spec(path)
        cache = str(tmp_path / "store")
        assert main(["run", "--spec", str(path),
                     "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "0 of 3 estimator runs replayed" in cold
        assert main(["run", "--spec", str(path),
                     "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "3 of 3 estimator runs replayed" in warm
        assert warm.count("[cached]") == 3

    def test_run_single_estimator(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        self.dump_spec(path)
        capsys.readouterr()
        assert main(["run", "--spec", str(path),
                     "--estimator", "analytical"]) == 0
        out = capsys.readouterr().out
        assert "analytical" in out
        assert "mesh" not in out

    def test_report_warm_cache_replays_every_run(self, tmp_path,
                                                 capsys):
        spec_path = tmp_path / "s.json"
        self.dump_spec(spec_path)
        cache = str(tmp_path / "store")
        scenario = "examples/scenarios/set_top_box.json"
        assert main(["report", scenario, str(spec_path),
                     "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "0 of 6" in cold or "of 6 estimator runs" in cold
        assert main(["report", scenario, str(spec_path),
                     "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        # Every estimator run of the second report is a store replay:
        # zero kernel executions happen on the warm pass.
        assert "6 of 6 estimator runs replayed from cache" in warm


class TestNewParsers:
    def test_run_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_spec_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spec"])

    def test_cache_dir_default_none(self):
        args = build_parser().parse_args(["report", "x.json"])
        assert args.cache_dir is None
        args = build_parser().parse_args(
            ["fig5", "--cache-dir", "benchmarks/out/store"])
        assert args.cache_dir == "benchmarks/out/store"

    def test_report_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_and_pareto_take_jobs(self):
        args = build_parser().parse_args(
            ["report", "x.json", "--jobs", "0"])
        assert args.jobs == 0
        args = build_parser().parse_args(["pareto", "--jobs", "3"])
        assert args.jobs == 3
        assert args.points == 1024

    def test_pareto_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pareto", "--model", "magic"])


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.grid == "fig5"
        assert args.shards == 4
        assert not args.resume
        assert args.chaos_kill == 0
        assert args.max_retries == 3

    def test_rejects_unknown_grid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--grid", "mystery"])

    def test_quick_sweep_and_resume(self, tmp_path, capsys):
        base = ["sweep", "--grid", "calibration", "--quick",
                "--shards", "2", "--cache-dir", str(tmp_path / "store"),
                "--manifest", str(tmp_path / "m.json")]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "sharded sweep" in cold
        assert "0 quarantined" in cold
        assert main(base + ["--resume"]) == 0
        warm = capsys.readouterr().out
        # The CI chaos-smoke gate greps for this exact line.
        assert "recomputed estimator runs: 0" in warm
        assert "replayed from store" in warm

    def test_estimator_subset_flag(self, tmp_path, capsys):
        assert main(["sweep", "--grid", "calibration", "--quick",
                     "--shards", "1", "--estimators", "mesh",
                     "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "3 total" in out  # 3 cells x 1 estimator
