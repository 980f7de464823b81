"""ExecutionSession facade: golden equivalence + counter exactness.

The facade's contract is that the refactor changed *where* the
store-probe -> fallback-probe -> run -> store-commit sequence lives,
not *what* it computes.  The equivalence suite here proves it across
an 80-configuration grid (5 generators x 2 seeds x 2 contention
models x 2 min_timeslice x 2 kernel-option sets): every store payload the
session commits is byte-identical — canonical-JSON-compared, modulo
``wall_seconds``, the only environment measurement — to an inlined
reference evaluation spelling out the pre-refactor ``run_comparison``
body estimator by estimator.

The rest pins the facade's operational guarantees: a comparison whose
every estimator hits the store performs **zero** workload builds, the
all-or-nothing :meth:`probe`, exact counters on the serial path,
absorbed counters on the multiprocess path, and the thin-wrapper
equivalence of :func:`run_comparison` itself.
"""

import gc
import json
import sys
import time
import weakref

import pytest
from _helpers import count_factory_calls

from repro.analytical import characterize, estimate_queueing
from repro.core import numpy_available
from repro.cycle import EventEngine
from repro.engine import ESTIMATORS, ExecutionSession
from repro.experiments.runner import run_comparison
from repro.scenario import ScenarioSpec, generators
from repro.scenario.store import RunStore
from repro.workloads.io import workload_to_dict

GENERATOR_PARAMS = {
    "uniform": {"threads": 2, "phases": 3, "accesses": 24},
    "bursty": {"threads": 2, "bursts": 2},
    "critical_section": {"threads": 2, "rounds": 2},
    "dma": {"cpu_threads": 2, "cpu_phases": 2},
    "smp": {"threads": 2, "phases": 2, "accesses_per_phase": 60},
}


def iter_golden_configs():
    """The 80-cell equivalence grid (5 x 2 x 2 x 2 x 2)."""
    for generator in sorted(GENERATOR_PARAMS):
        for seed in (0, 7):
            for model in ("chenlin", "mm1"):
                for mts in (0.0, 6.0):
                    for options in (None, {"slice_accounting": "rescan"}):
                        yield generator, seed, model, mts, options


def spec_for(generator, seed, model, mts, options) -> ScenarioSpec:
    return ScenarioSpec(
        generator=generator,
        params=dict(GENERATOR_PARAMS[generator], seed=seed),
        model={"name": model},
        min_timeslice=mts,
        kernel_options=options or {},
    )


def reference_payloads(spec: ScenarioSpec) -> dict:
    """The pre-refactor ``run_comparison`` body, inlined estimator by
    estimator, producing exactly the payloads it committed."""
    from repro.engine.session import _detail_payload

    spec_hash = spec.spec_hash()
    model = spec.build_model()
    budget = spec.build_budget()
    workload = spec.build_workload()
    profiles = characterize(workload)
    busy = sum(p.busy_cycles for p in profiles.values())

    def payload(estimator, queueing, result):
        percent = 100.0 * queueing / busy if busy > 0 else 0.0
        return {
            "spec_hash": spec_hash,
            "estimator": estimator,
            "queueing_cycles": queueing,
            "percent_queueing": percent,
            "wall_seconds": 0.0,
            "detail": _detail_payload(estimator, result),
        }

    iss = EventEngine(workload, budget=budget).run()
    mesh = spec.run()
    analytical = estimate_queueing(workload, model=model,
                                   models=spec.build_models(),
                                   profiles=profiles)
    return {
        "iss": payload("iss", float(iss.queueing_cycles), iss),
        "mesh": payload("mesh", mesh.queueing_cycles, mesh),
        "analytical": payload("analytical",
                              analytical.queueing_cycles, analytical),
    }


def canonical(payload: dict) -> str:
    """Canonical JSON form with the environment measurement removed."""
    scrubbed = dict(payload)
    scrubbed.pop("wall_seconds", None)
    return json.dumps(scrubbed, sort_keys=True)


class TestGoldenEquivalence:
    def test_grid_is_eighty_configs(self):
        assert len(list(iter_golden_configs())) == 80

    @pytest.mark.parametrize(
        "generator,seed,model,mts,options", list(iter_golden_configs()),
        ids=lambda value: str(value).replace(" ", ""))
    def test_store_payloads_byte_identical_to_reference(
            self, tmp_path, generator, seed, model, mts, options):
        spec = spec_for(generator, seed, model, mts, options)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as session:
            comparison = session.comparison(spec)
        reference = reference_payloads(spec)
        assert set(comparison.runs) == set(ESTIMATORS)
        for estimator in ESTIMATORS:
            committed = store.get(spec.spec_hash(), estimator)
            assert committed is not None
            assert canonical(committed) == canonical(
                reference[estimator])
            # The in-memory run reports the same physics it committed.
            run = comparison.runs[estimator]
            assert run.queueing_cycles == committed["queueing_cycles"]
            assert run.percent_queueing == committed["percent_queueing"]
            assert not run.cached

    def test_runner_wrapper_is_the_facade(self, tmp_path):
        """``run_comparison`` (the legacy entry point) and the facade
        produce identical physics and identical store bytes."""
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store_a = RunStore(tmp_path / "a")
        store_b = RunStore(tmp_path / "b")
        legacy = run_comparison(spec, store=store_a)
        with ExecutionSession(store=store_b) as session:
            facade = session.comparison(spec)
        assert legacy.spec_hash == facade.spec_hash == spec.spec_hash()
        for estimator in ESTIMATORS:
            assert (legacy.runs[estimator].queueing_cycles
                    == facade.runs[estimator].queueing_cycles)
            assert canonical(store_a.get(spec.spec_hash(), estimator)) \
                == canonical(store_b.get(spec.spec_hash(), estimator))


class TestZeroBuildWarmPath:
    def test_full_store_hit_builds_nothing(self, tmp_path):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as warmup:
            warmup.comparison(spec)
            assert warmup.workload_builds == 1
            assert warmup.estimator_runs_computed == len(ESTIMATORS)
        with ExecutionSession(store=store) as session:
            comparison = session.comparison(spec)
        assert session.workload_builds == 0
        assert session.estimator_runs_computed == 0
        assert session.estimator_runs_cached == len(ESTIMATORS)
        assert comparison.cached_runs == len(ESTIMATORS)
        assert all(run.cached for run in comparison.runs.values())

    def test_warm_physics_match_cold_physics(self, tmp_path):
        spec = spec_for("smp", 7, "mm1", 6.0,
                        {"slice_accounting": "rescan"})
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as cold_session:
            cold = cold_session.comparison(spec)
        with ExecutionSession(store=store) as warm_session:
            warm = warm_session.comparison(spec)
        for estimator in ESTIMATORS:
            assert (warm.runs[estimator].queueing_cycles
                    == cold.runs[estimator].queueing_cycles)
            assert (warm.runs[estimator].percent_queueing
                    == cold.runs[estimator].percent_queueing)


class TestProbe:
    def test_probe_is_all_or_nothing(self, tmp_path):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        store = RunStore(tmp_path / "store")
        session = ExecutionSession(store=store)
        spec_hash = spec.spec_hash()
        assert session.probe(spec_hash) is None
        session.comparison(spec, include=("mesh",))
        # Partial coverage: the full-estimator probe still misses.
        assert session.probe(spec_hash) is None
        assert session.probe(spec_hash, include=("mesh",)) is not None
        session.comparison(spec)
        payloads = session.probe(spec_hash)
        assert payloads is not None
        assert set(payloads) == set(ESTIMATORS)

    def test_probe_without_store_is_none(self):
        assert ExecutionSession().probe("deadbeef") is None


class TestCounters:
    def test_serial_map_counts_exactly(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=1) as session:
            results = session.map_comparisons(specs, include=("mesh",))
            assert all(result.ok for result in results)
            assert session.comparisons == 2
            assert session.estimator_runs_computed == 2
            assert session.workload_builds == 2
            # Second pass: everything replays, nothing builds.
            session.map_comparisons(specs, include=("mesh",))
            assert session.comparisons == 4
            assert session.estimator_runs_computed == 2
            assert session.estimator_runs_cached == 2
            assert session.workload_builds == 2

    def test_prepass_then_cells_never_recompute(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        # Without NumPy nothing compiles: the prepass skips every cell
        # and the per-cell pass computes them instead.
        warmed = 2 if numpy_available() else 0
        with ExecutionSession(store=store, jobs=1) as session:
            counters = session.prepass(specs)
            assert counters["cells_batched"] == warmed
            session.map_comparisons(specs, include=("mesh",))
            # The prepass warmed every mesh cell; the per-cell pass
            # replayed them all.
            assert session.estimator_runs_computed == 2 - warmed
            assert session.estimator_runs_cached == warmed

    @pytest.mark.skipif(not numpy_available(),
                        reason="the prepass compiles nothing without NumPy")
    def test_prepass_failure_leaves_only_its_own_cell_cold(
            self, tmp_path, monkeypatch):
        import repro.core.programstore as programstore

        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 1, 7)]
        failing = sorted(spec.spec_hash() for spec in specs)[1]
        original = programstore.replay_batch
        calls = []

        def replay_batch(cells):
            calls.append(len(cells))
            if len(calls) == 2:  # the middle cell in spec_hash order
                raise RuntimeError("replay failed")
            return original(cells)

        monkeypatch.setattr(programstore, "replay_batch", replay_batch)
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store) as session:
            counters = session.prepass(specs)
        assert calls == [1, 1, 1]
        assert counters["cells_cold"] == 3
        assert counters["cells_batched"] == 2
        for spec in specs:
            warm = store.get(spec.spec_hash(), "mesh") is not None
            assert warm == (spec.spec_hash() != failing)

    def test_multiprocess_map_absorbs_worker_counts(self, tmp_path):
        specs = [spec_for("uniform", seed, "chenlin", 0.0, None)
                 for seed in (0, 7)]
        store = RunStore(tmp_path / "store")
        with ExecutionSession(store=store, jobs=2) as session:
            results = session.map_comparisons(specs, include=("mesh",))
            assert all(result.ok for result in results)
            assert session.comparisons == 2
            assert session.estimator_runs_computed == 2
            assert session.estimator_runs_cached == 0
        for spec in specs:
            assert store.get(spec.spec_hash(), "mesh") is not None

    def test_stats_snapshot_shape(self, tmp_path):
        with ExecutionSession(store=RunStore(tmp_path / "s")) as session:
            session.comparison(
                spec_for("uniform", 0, "chenlin", 0.0, None),
                include=("analytical",))
            stats = session.stats()
        assert stats["comparisons"] == 1
        assert stats["estimator_runs_computed"] == 1
        assert stats["workload_builds"] == 1
        assert stats["store"]["stores"] == 1
        assert "pool" in stats and "prepass" not in stats


class TestSessionLifecycle:
    def test_close_is_idempotent_and_pool_is_lazy(self):
        session = ExecutionSession(jobs=1)
        assert session.stats()["pool"]["warm"] is False
        _ = session.executor
        assert session.stats()["pool"]["warm"] is True
        session.close()
        session.close()
        assert session.stats()["pool"]["warm"] is False

    def test_spec_identity_kwargs_are_rejected(self):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="inside the"):
            ExecutionSession().comparison(spec, min_timeslice=3.0)

    def test_unknown_estimator_is_rejected(self):
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        with pytest.raises(ValueError, match="unknown estimator"):
            ExecutionSession().comparison(spec, include=("oracle",))


def track_lowerings(monkeypatch) -> list:
    """Count every ``lower_workload`` call in any module that binds it;
    each call records a weak reference to its first program."""
    program_mod = sys.modules["repro.cycle.program"]
    original = program_mod.lower_workload
    lowered = []

    def counted(workload):
        programs = original(workload)
        lowered.append(weakref.ref(programs[0]))
        return programs

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "lower_workload", None) is original):
            monkeypatch.setattr(module, "lower_workload", counted)
    return lowered


class TestOneWorkloadPerCell:
    """A cold cell builds one workload and lowers it once, and every
    estimator reads that one workload."""

    def test_cold_cell_builds_once_and_lowers_once(self, monkeypatch):
        builds = count_factory_calls(monkeypatch, "uniform")
        lowered = track_lowerings(monkeypatch)
        spec = spec_for("uniform", 0, "chenlin", 0.0, None)
        comparison = ExecutionSession().comparison(spec)
        assert set(comparison.runs) == set(ESTIMATORS)
        assert len(builds) == 1
        assert len(lowered) == 1

    def test_estimators_leave_the_workload_untouched(self, monkeypatch):
        builds = count_factory_calls(monkeypatch, "smp")
        spec = spec_for("smp", 7, "mm1", 0.0, None)
        ExecutionSession().comparison(spec)
        shared = spec.build_workload()
        # The cell's workload is the cached one, and after all three
        # estimators ran it still equals a fresh build.
        assert len(builds) == 1
        factory = generators.resolve_generator("smp")[0].__wrapped__
        assert (workload_to_dict(shared)
                == workload_to_dict(factory(**spec.params)))

    def test_lowered_programs_die_with_the_cell(self, monkeypatch):
        lowered = track_lowerings(monkeypatch)
        spec = spec_for("critical_section", 0, "chenlin", 0.0, None)
        comparison = ExecutionSession().comparison(spec)
        gc.collect()
        assert len(lowered) == 1
        assert lowered[0]() is None
        assert comparison.runs["iss"].queueing_cycles >= 0

    def test_kernel_kind_specs_run_through_spec_run(self, monkeypatch):
        import golden_scenarios  # noqa: F401 - registers golden-*

        runs = []
        original = ScenarioSpec.run

        def counted(self, **overrides):
            runs.append(self.generator)
            return original(self, **overrides)

        monkeypatch.setattr(ScenarioSpec, "run", counted)
        session = ExecutionSession()
        session.comparison(spec_for("uniform", 0, "chenlin", 0.0, None),
                           include=("mesh",))
        assert runs == []
        # A kernel-kind spec has no workload IR: its MESH run is the
        # spec's own kernel, and the cell then stops where it needs a
        # workload (the percentage basis), as it always has.
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="builds a kernel"):
            session.comparison(ScenarioSpec(generator="golden-basic"),
                               include=("mesh",))
        assert runs == ["golden-basic"]
