"""Chaos tests: the fabric's contract under kills and corruption.

These tests are the adversarial half of the sweep fabric: they SIGKILL
worker processes mid-cell, corrupt store artifacts, and kill a whole
CLI sweep from the outside, then assert the published contract — the
sweep converges to results bit-identical to the plain serial loop,
replaying (never recomputing) completed cells, with damage counted on
the store's counters instead of propagated.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import ESTIMATORS, run_comparison
from repro.robustness.faults import RetryPolicy
from repro.scenario.spec import ScenarioSpec
from repro.scenario.store import RunStore
from repro.sweepfabric import (ChaosPlan, corrupt_artifacts,
                               orphan_tmp_file, run_sharded_sweep)

FAST_RETRY = RetryPolicy(kind="fixed", delay=0.01, max_retries=3)


def _grid(accesses=(10, 60, 160)):
    return [ScenarioSpec(generator="uniform",
                         params={"threads": 2, "phases": 2,
                                 "work": 500.0, "accesses": a,
                                 "bus_service": 4.0, "seed": 3})
            for a in accesses]


def _assert_physics_matches_serial(result, specs):
    for cell, spec in zip(result.cells, specs):
        reference = run_comparison(spec)
        for estimator in ESTIMATORS:
            assert (cell.runs[estimator]["queueing_cycles"]
                    == reference.runs[estimator].queueing_cycles), (
                f"cell {cell.index} diverged on {estimator}")


class TestWorkerKill:
    def test_sigkilled_worker_is_retried_to_convergence(self, tmp_path):
        specs = _grid()
        chaos = ChaosPlan.kill_first(specs, 1,
                                     marker_dir=tmp_path / "markers")
        result = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                   jobs=2, chaos=chaos,
                                   retry=FAST_RETRY,
                                   sleep=lambda _: None)
        assert result.ok, result.failures
        # The kill really fired (the worker claimed its marker)...
        assert list((tmp_path / "markers").iterdir())
        # ...so at least one shard needed more than one round.
        assert (result.counters["attempts_total"]
                > result.plan.shard_count - 1)
        _assert_physics_matches_serial(result, specs)

    def test_killing_several_workers_still_converges(self, tmp_path):
        specs = _grid()
        chaos = ChaosPlan.kill_first(specs, len(specs),
                                     marker_dir=tmp_path / "markers")
        result = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                   jobs=2, chaos=chaos,
                                   retry=FAST_RETRY,
                                   sleep=lambda _: None)
        assert result.ok, result.failures
        # Kills are best-effort: a retry round with a single pending
        # cell runs in-process, where the pid guard (correctly) skips
        # the SIGKILL.  At least the multi-cell rounds must have died.
        assert len(list((tmp_path / "markers").iterdir())) >= 1
        _assert_physics_matches_serial(result, specs)


class TestStoreCorruption:
    def test_corrupt_artifacts_recomputed_bit_identically(
            self, tmp_path):
        specs = _grid()
        cold = run_sharded_sweep(specs, tmp_path / "store", shards=2,
                                 jobs=1)
        assert cold.ok
        store = RunStore(tmp_path / "store")
        damaged = corrupt_artifacts(store,
                                    [s.spec_hash() for s in specs[:2]],
                                    estimator="mesh")
        assert len(damaged) == 2
        result = run_sharded_sweep(specs, store, shards=2, jobs=1,
                                   resume=True)
        assert result.ok
        # Corruption was detected (counted), healed by recomputing
        # exactly the damaged artifacts, and the numbers match serial.
        assert result.store_stats["corrupt"] == 2
        assert result.counters["estimator_runs_recomputed"] == 2
        _assert_physics_matches_serial(result, specs)
        # The store is healed: a fresh resume replays everything.
        healed = run_sharded_sweep(specs, RunStore(tmp_path / "store"),
                                   shards=2, jobs=1, resume=True)
        assert healed.counters["estimator_runs_recomputed"] == 0

    def test_orphaned_tmp_swept_on_store_open(self, tmp_path):
        specs = _grid(accesses=(10,))
        run_sharded_sweep(specs, tmp_path / "store", shards=1, jobs=1)
        store = RunStore(tmp_path / "store", tmp_max_age=None)
        orphan = orphan_tmp_file(store, specs[0].spec_hash())
        assert orphan.exists()
        assert store.orphan_tmp() == 1
        # A normal open (the resuming supervisor's) sweeps the debris.
        reopened = RunStore(tmp_path / "store")
        assert reopened.tmp_swept == 1
        assert not orphan.exists()
        result = run_sharded_sweep(specs, reopened, shards=1, jobs=1,
                                   resume=True)
        assert result.ok
        assert result.store_stats["tmp_swept"] == 1
        assert result.counters["estimator_runs_recomputed"] == 0


def _kill_group(group: int) -> None:
    """SIGKILL every process of a process group (gone already is fine)."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_members(group: int) -> list:
    """Pids of the live (not yet exited) processes in a process group."""
    if not os.path.isdir("/proc"):
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return []
        return [group]
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state, ppid, pgrp.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        # A zombie has exited; it only waits for its parent to reap it.
        if int(pgrp) == group and state not in ("Z", "X"):
            members.append(int(entry))
    return members


def _await_group_gone(group: int, timeout: float) -> list:
    """Wait until no process of ``group`` is alive; return survivors."""
    deadline = time.monotonic() + timeout
    while True:
        members = _group_members(group)
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.05)


class TestKillAndResumeCLI:
    """The headline drill: SIGKILL a live ``repro sweep``, resume it."""

    GRID_ARGS = ["sweep", "--grid", "calibration", "--quick",
                 "--shards", "3", "--jobs", "2"]

    def _cli(self, args, store, manifest):
        from repro import cli

        return cli.main(args + ["--cache-dir", str(store),
                                "--manifest", str(manifest)])

    def test_sigkill_mid_sweep_then_resume(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        manifest = tmp_path / "manifest.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src", env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"] + self.GRID_ARGS
            + ["--cache-dir", str(store_dir),
               "--manifest", str(manifest)],
            cwd=Path(__file__).resolve().parents[1], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        # The sweep leads its own process group (its pid is the group
        # id), so one killpg SIGKILLs the supervisor and its pool
        # workers together, as an OOM kill or a lost host would.
        group = process.pid
        # Kill the sweep as soon as it has durably completed some (but
        # ideally not all) estimator runs.
        deadline = time.monotonic() + 120.0
        produced = False
        while time.monotonic() < deadline:
            if process.poll() is not None:
                produced = True  # finished before the kill: still valid
                break
            if store_dir.exists() and any(store_dir.rglob("*.json")):
                produced = True
                break
            time.sleep(0.005)
        _kill_group(group)
        process.wait(timeout=30)
        assert _await_group_gone(group, timeout=30.0) == [], \
            "sweep processes survived the group SIGKILL"
        if not produced:
            pytest.fail("sweep produced no artifacts within 120s")

        # Resume must converge; completed estimator runs must replay.
        assert self._cli(self.GRID_ARGS + ["--resume"], store_dir,
                         manifest) == 0
        first = capsys.readouterr().out
        assert self._cli(self.GRID_ARGS + ["--resume"], store_dir,
                         manifest) == 0
        resumed = capsys.readouterr().out
        assert "recomputed estimator runs: 0" in resumed
        assert "0 quarantined" in resumed

        # Bit-identical to serial: every stored artifact carries the
        # same physics a fresh serial evaluation produces.
        from repro.contention.calibrate import calibration_specs
        from repro.sweepfabric.grids import calibration_grid

        specs = calibration_grid(quick=True)
        assert calibration_specs()  # full grid builds too
        store = RunStore(store_dir)
        for spec in specs:
            reference = run_comparison(spec)
            for estimator in ESTIMATORS:
                payload = store.get(spec.spec_hash(), estimator)
                assert payload is not None
                assert (payload["queueing_cycles"]
                        == reference.runs[estimator].queueing_cycles)

    def test_manifest_survives_torn_reads(self, tmp_path):
        """The checkpoint on disk is always valid JSON (atomic saves)."""
        store_dir = tmp_path / "store"
        manifest = tmp_path / "manifest.json"
        assert self._cli(["sweep", "--grid", "calibration", "--quick",
                          "--shards", "2", "--jobs", "1"],
                         store_dir, manifest) == 0
        data = json.loads(manifest.read_text())
        assert {r["state"] for r in data["shards"]} == {"done"}


class TestChaosPlanRoundTrip:
    def test_to_from_dict(self, tmp_path):
        plan = ChaosPlan(["abc", "def"], tmp_path)
        clone = ChaosPlan.from_dict(plan.to_dict())
        assert clone.kill_hashes == plan.kill_hashes
        assert clone.marker_dir == plan.marker_dir

    def test_kill_first_dedupes(self):
        specs = _grid(accesses=(10, 10, 60))
        plan = ChaosPlan.kill_first(specs, 2, marker_dir="/tmp/x")
        assert len(plan.kill_hashes) == 2

    def test_marker_prevents_second_kill(self, tmp_path):
        from repro.sweepfabric.chaos import maybe_kill_worker

        spec_hash = "a" * 64
        marker = tmp_path / f"killed-{spec_hash[:16]}"
        marker.write_text("")
        # Would SIGKILL this process if the marker logic were broken.
        maybe_kill_worker({"kill_hashes": [spec_hash],
                           "marker_dir": str(tmp_path)}, spec_hash)
        maybe_kill_worker(None, spec_hash)
        maybe_kill_worker({"kill_hashes": [], "marker_dir": "x"},
                          spec_hash)
