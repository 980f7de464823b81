"""Tests for the hot-path profiling harness and the perf regression gate."""

import json

import pytest

from repro.perf import gate as gate_mod
from repro.perf import profile as profile_mod


class TestRunProfile:
    def test_quick_commit_throughput_records(self, tmp_path):
        payload = profile_mod.run_profile(
            scenarios=["commit_throughput"], quick=True,
            out_dir=tmp_path)
        metrics = payload["scenarios"]["commit_throughput"]
        assert metrics["threads"] == profile_mod.THREADS
        assert metrics["regions"] == (
            profile_mod.THREADS * profile_mod.QUICK_REGIONS_PER_THREAD)
        assert metrics["incremental_regions_per_sec"] > 0
        assert metrics["rescan_regions_per_sec"] > 0
        assert metrics["ratio_incremental_over_rescan"] > 0
        # The ratio metric must be gated when its scenario ran (other
        # gated metrics drop out with their scenarios absent).
        assert payload["gate_metrics"] == [
            "commit_throughput.ratio_incremental_over_rescan"]
        recorded = tmp_path / "BENCH_hotpath.json"
        assert recorded.exists()
        assert payload["recorded_to"] == str(recorded)
        record = json.loads(recorded.read_text(encoding="utf-8"))
        assert record["results"]["scenarios"]["commit_throughput"] == \
            metrics

    def test_gate_metrics_dropped_without_their_scenario(self, tmp_path):
        payload = profile_mod.run_profile(
            scenarios=["slice_analysis"], quick=True, record=False)
        assert payload["gate_metrics"] == []
        assert "recorded_to" not in payload
        assert payload["scenarios"]["slice_analysis"]["slices_per_sec"] > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            profile_mod.run_profile(scenarios=["nope"], record=False)

    def test_scenario_registry_covers_gate_metrics(self):
        for metric in profile_mod.GATE_METRICS:
            assert metric.split(".", 1)[0] in profile_mod.SCENARIOS

    def test_slice_analysis_batch_scenario(self, tmp_path):
        payload = profile_mod.run_profile(
            scenarios=["slice_analysis_batch"], quick=True, record=False)
        metrics = payload["scenarios"]["slice_analysis_batch"]
        assert metrics["resources"] == 64
        assert metrics["penalties_match"] is True
        assert metrics["scalar_slices_per_sec"] > 0
        assert metrics["batch_slices_per_sec"] > 0
        assert metrics["ratio_batch_over_scalar"] > 0
        assert payload["gate_metrics"] == [
            "slice_analysis_batch.ratio_batch_over_scalar"]

    def test_calibration_grid_scenario(self, tmp_path):
        payload = profile_mod.run_profile(
            scenarios=["calibration_grid"], quick=True, record=False)
        metrics = payload["scenarios"]["calibration_grid"]
        assert metrics["cells"] > 0
        assert metrics["results_match"] is True
        assert metrics["ratio_batch_over_scalar"] > 0
        assert payload["gate_metrics"] == [
            "calibration_grid.ratio_batch_over_scalar"]

    def test_cli_no_record_prints_metrics(self, tmp_path, capsys):
        code = profile_mod.main(["--quick", "--no-record",
                                 "--scenario", "slice_analysis"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slice_analysis" in out
        assert "slices_per_sec" in out
        assert not list(tmp_path.iterdir())


def _record(scenarios, gate_metrics=None):
    """A minimal record_bench-shaped payload."""
    results = {"scenarios": scenarios}
    if gate_metrics is not None:
        results["gate_metrics"] = gate_metrics
    return {"results": results}


def _write(path, record):
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


RATIO = "commit_throughput.ratio_incremental_over_rescan"


class TestGate:
    def test_pass_when_within_threshold(self):
        baseline = _record({"commit_throughput":
                            {"ratio_incremental_over_rescan": 1.2}},
                           gate_metrics=[RATIO])["results"]
        current = _record({"commit_throughput":
                           {"ratio_incremental_over_rescan": 1.0}}
                          )["results"]
        checks = gate_mod.gate(current, baseline, max_regression=0.25)
        assert len(checks) == 1
        assert not checks[0].failed
        assert checks[0].regression == pytest.approx(1 / 6)

    def test_fail_past_threshold(self):
        baseline = _record({"commit_throughput":
                            {"ratio_incremental_over_rescan": 1.2}},
                           gate_metrics=[RATIO])["results"]
        current = _record({"commit_throughput":
                           {"ratio_incremental_over_rescan": 0.8}}
                          )["results"]
        checks = gate_mod.gate(current, baseline, max_regression=0.25)
        assert checks[0].failed
        assert "FAIL" in checks[0].describe(0.25)

    def test_improvement_never_fails(self):
        baseline = _record({"s": {"m": 1.0}}, gate_metrics=["s.m"])
        current = _record({"s": {"m": 99.0}})
        checks = gate_mod.gate(current["results"], baseline["results"],
                               max_regression=0.0)
        assert not checks[0].failed
        assert checks[0].regression < 0

    def test_missing_metric_skips_not_fails(self):
        baseline = _record({"s": {"m": 1.0}},
                           gate_metrics=["s.m", "s.absent"])
        current = _record({"s": {"m": 1.0}})
        checks = gate_mod.gate(current["results"], baseline["results"],
                               max_regression=0.25)
        by_metric = {c.metric: c for c in checks}
        assert not by_metric["s.absent"].failed
        assert by_metric["s.absent"].regression is None
        assert "SKIP" in by_metric["s.absent"].describe(0.25)

    def test_non_numeric_and_bool_values_skip(self):
        baseline = _record({"s": {"flag": True, "name": "x"}},
                           gate_metrics=["s.flag", "s.name"])
        current = _record({"s": {"flag": True, "name": "x"}})
        checks = gate_mod.gate(current["results"], baseline["results"],
                               max_regression=0.25)
        assert all(c.regression is None and not c.failed for c in checks)

    def test_extra_metric_argument_gated(self):
        baseline = _record({"s": {"m": 1.0, "extra": 2.0}},
                           gate_metrics=["s.m"])
        current = _record({"s": {"m": 1.0, "extra": 1.0}})
        checks = gate_mod.gate(current["results"], baseline["results"],
                               max_regression=0.25, metrics=["s.extra"])
        assert [c.metric for c in checks] == ["s.m", "s.extra"]
        assert checks[1].failed

    def test_nested_metric_path(self):
        baseline = _record(
            {"commit_throughput": {"vs_reference": {"speedup": 2.0}}},
            gate_metrics=["commit_throughput.vs_reference.speedup"])
        current = _record(
            {"commit_throughput": {"vs_reference": {"speedup": 1.9}}})
        checks = gate_mod.gate(current["results"], baseline["results"],
                               max_regression=0.25)
        assert checks[0].regression == pytest.approx(0.05)
        assert not checks[0].failed


class TestGateCli:
    def _paths(self, tmp_path, base_value, cur_value):
        baseline = _write(tmp_path / "baseline.json",
                          _record({"s": {"m": base_value}},
                                  gate_metrics=["s.m"]))
        current = _write(tmp_path / "current.json",
                         _record({"s": {"m": cur_value}}))
        return baseline, current

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        baseline, current = self._paths(tmp_path, 1.0, 0.9)
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline)])
        assert code == 0
        assert "ok s.m" in capsys.readouterr().out

    def test_exit_one_on_breach(self, tmp_path, capsys):
        baseline, current = self._paths(tmp_path, 1.0, 0.5)
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline)])
        assert code == 1
        assert "FAIL s.m" in capsys.readouterr().out

    def test_no_gated_metrics_passes(self, tmp_path, capsys):
        baseline = _write(tmp_path / "baseline.json",
                          _record({"s": {"m": 1.0}}))
        current = _write(tmp_path / "current.json",
                         _record({"s": {"m": 0.0}}))
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline)])
        assert code == 0
        assert "no gated metrics" in capsys.readouterr().out

    def test_negative_threshold_rejected(self, tmp_path):
        baseline, current = self._paths(tmp_path, 1.0, 1.0)
        with pytest.raises(SystemExit):
            gate_mod.main(["--current", str(current),
                           "--baseline", str(baseline),
                           "--max-regression", "-0.1"])

    def test_write_baseline_copies_current(self, tmp_path, capsys):
        current = _write(tmp_path / "current.json",
                         _record({"s": {"m": 2.0}}, gate_metrics=["s.m"]))
        baseline = tmp_path / "nested" / "baseline.json"
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline),
                              "--write-baseline"])
        assert code == 0
        assert "wrote baseline" in capsys.readouterr().out
        assert (json.loads(baseline.read_text(encoding="utf-8"))
                == json.loads(current.read_text(encoding="utf-8")))
        # The refreshed baseline must gate cleanly against the record
        # it was written from.
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline)])
        assert code == 0

    def test_write_baseline_refuses_regression(self, tmp_path, capsys):
        """A refresh must not silently launder a regression."""
        baseline, current = self._paths(tmp_path, 1.0, 0.5)
        before = baseline.read_text(encoding="utf-8")
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline),
                              "--write-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "refusing to write baseline" in out
        assert "s.m" in out and "-50.0%" in out  # the delta table
        assert baseline.read_text(encoding="utf-8") == before

    def test_write_baseline_force_overrides(self, tmp_path, capsys):
        baseline, current = self._paths(tmp_path, 1.0, 0.5)
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline),
                              "--write-baseline", "--force"])
        out = capsys.readouterr().out
        assert code == 0
        assert "--force accepted regression in s.m" in out
        assert (json.loads(baseline.read_text(encoding="utf-8"))
                == json.loads(current.read_text(encoding="utf-8")))

    def test_write_baseline_improvement_prints_delta(self, tmp_path,
                                                     capsys):
        baseline, current = self._paths(tmp_path, 1.0, 1.5)
        code = gate_mod.main(["--current", str(current),
                              "--baseline", str(baseline),
                              "--write-baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "+50.0%" in out
        assert "wrote baseline" in out
        assert (json.loads(baseline.read_text(encoding="utf-8"))
                == json.loads(current.read_text(encoding="utf-8")))

    def test_force_requires_write_baseline(self, tmp_path):
        baseline, current = self._paths(tmp_path, 1.0, 1.0)
        with pytest.raises(SystemExit):
            gate_mod.main(["--current", str(current),
                           "--baseline", str(baseline), "--force"])


class TestCommittedBaseline:
    """The committed baseline must stay self-consistent with the gate."""

    def test_baseline_gates_cleanly_against_itself(self, repo_root=None):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1]
        baseline = root / "benchmarks" / "baseline" / "BENCH_hotpath.json"
        results = gate_mod._load_results(baseline)
        assert results["gate_metrics"], "baseline must list gated metrics"
        checks = gate_mod.gate(results, results, max_regression=0.25)
        assert checks and not any(c.failed for c in checks)
        for check in checks:
            if check.baseline is None and check.current is None:
                # Declared but unmeasurable on the recording host
                # (e.g. a NumPy-only ratio): skipped, not failed.
                continue
            assert check.regression == pytest.approx(0.0)
