"""Structure-of-arrays replay: equivalence, refusals, prepass probes.

The kernel itself only runs its object engine; compiled replay
(:func:`~repro.core.compile.compile_kernel` +
:func:`~repro.core.programstore.replay_batch`) is what the mesh prepass
runs.  Three layers of defense around it:

* **Direct equivalence** — hand-built kernels spanning the compiled
  subset (flat/fused constant-model paths, generic dict-dispatch
  models, bursts, window merging, heterogeneous powers, pinned
  scheduling, barriers, mutexes) must replay hex-identically to a
  fresh object-engine run of the same kernel.
* **Property-based equivalence** — hypothesis draws random
  :class:`~repro.scenario.spec.ScenarioSpec` instances (synthetic
  generators x every registered closed-form model, fault plans off)
  and asserts replay and object run return *equal*
  ``SimulationResult`` objects — dataclass equality over exact floats.
* **Explicit refusals** — every feature outside the compiled subset
  raises :class:`~repro.core.errors.UnsupportedFeatureError` naming
  it, and the kernel still runs on the object engine.  The full golden
  matrix (all 80 snapshot entries) reproduces its seed snapshots; each
  entry's untraced twin replays bit-equal wherever it compiles.  The
  sync golden file (``data/golden_soa.json``) pins barrier/FIFO-mutex
  configurations that must all compile and replay exactly.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_scenarios import (SCENARIOS, config_key, golden_expected,
                              iter_golden_entries, make_fault_plan,
                              snapshot)
from golden_soa_scenarios import (SOA_GOLDEN_PATH, iter_soa_configs,
                                  soa_config_key, soa_kernel,
                                  soa_snapshot)
from repro.contention import (ChenLinModel, ConstantModel, MD1Model,
                              MM1Model, NullModel, available_models)
from repro.core import (HybridKernel, LogicalThread, Processor,
                        SharedResource, compile_kernel, numpy_available)
from repro.core.errors import UnsupportedFeatureError
from repro.core.events import (acquire, barrier_wait, consume, release,
                               sem_acquire, sem_release, spawn)
from repro.core.scheduler import PinnedScheduler, PriorityScheduler
from repro.core.programstore import replay_batch, replay_program
from repro.core.sync import Barrier, Mutex, Semaphore
from repro.experiments.runner import (run_comparison,
                                      run_comparisons_parallel)
from repro.robustness.budget import RunBudget
from repro.scenario.spec import ModelSpec, ScenarioSpec

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data" /
               "golden_kernel.json")

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="SoA engine needs NumPy")


def result_snapshot(result) -> dict:
    """Hex-float serialization of a result (no trace log required).

    ``float.hex`` distinguishes ``-0.0`` from ``0.0``, which plain
    ``==`` would conflate — the equivalence claim is bit identity.
    """
    _hex = lambda v: float(v).hex()  # noqa: E731
    return {
        "makespan": _hex(result.makespan),
        "regions": result.regions_committed,
        "slices": [result.slices_analyzed, result.slices_merged],
        "queueing": _hex(result.queueing_cycles),
        "threads": {
            name: [_hex(t.base_time), _hex(t.penalty), t.regions,
                   _hex(t.finish_time)]
            for name, t in result.threads.items()},
        "processors": {
            name: [_hex(p.busy_time), p.regions]
            for name, p in result.processors.items()},
        "resources": {
            name: [_hex(r.accesses), _hex(r.penalty), r.active_slices,
                   {t: _hex(v)
                    for t, v in r.penalty_by_thread.items()}]
            for name, r in result.resources.items()},
    }


# ---------------------------------------------------------------------
# direct equivalence: hand-built kernels across the compiled subset
# ---------------------------------------------------------------------

def _threads(kernel, n, resources, stride=1, start_gaps=False,
             bursts=False, extra=False, affinity=None):
    """Add ``n`` deterministic consume-only worker threads."""
    def worker(idx):
        def body():
            for i in range(9):
                acc = {}
                if i % stride == 0:
                    for j, name in enumerate(resources):
                        acc[name] = 2 + (i + idx + j) % 4 + 0.5 * (j % 2)
                yield consume(
                    30 + 7 * ((idx + i) % 5),
                    acc or None,
                    extra_time=4.0 if extra and i % 3 == idx % 3 else 0.0,
                    burst=({resources[0]: 4} if bursts and acc else None))
        return body

    for idx in range(n):
        kernel.add_thread(
            LogicalThread(f"w{idx}", worker(idx),
                          affinity=(affinity(idx) if affinity else None)),
            start_time=3.0 * idx if start_gaps else 0.0)
    return kernel


def _fused(**kw):
    """Exact-type Constant/Null models, no merging: the fused path."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0),
           SharedResource("mem", NullModel(), service_time=3.0)]
    return _threads(HybridKernel(procs, res, **kw), 5, ["bus", "mem"],
                    stride=2)


def _flat_merged(**kw):
    """Constant models with window merging: flat but not fused."""
    kw.setdefault("min_timeslice", 6.0)
    return _fused(**kw)


def _generic(**kw):
    """Closed-form queueing models: the dict-dispatch path."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ChenLinModel(), service_time=2.0),
           SharedResource("mem", MM1Model(), service_time=3.0),
           SharedResource("dma", MD1Model(), service_time=4.0)]
    return _threads(HybridKernel(procs, res, **kw), 4,
                    ["bus", "mem", "dma"], start_gaps=True)


def _bursty(**kw):
    """Burst annotations force the heterogeneous-service paths."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ChenLinModel(), service_time=2.0)]
    return _threads(HybridKernel(procs, res, **kw), 3, ["bus"],
                    bursts=True)


def _hetero(**kw):
    """Heterogeneous processor powers + extra_time (dynamic durations)."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.5),
             Processor("p2", 0.75)]
    res = [SharedResource("bus", ChenLinModel(), service_time=2.0)]
    return _threads(HybridKernel(procs, res, **kw), 5, ["bus"],
                    extra=True, start_gaps=True)


def _pinned(**kw):
    """PinnedScheduler with per-thread affinity (the other scheduler)."""
    kw.setdefault("scheduler", PinnedScheduler())
    procs = [Processor("p0", 1.0), Processor("p1", 1.5)]
    res = [SharedResource("bus", ConstantModel(0.25), service_time=2.0)]
    return _threads(HybridKernel(procs, res, **kw), 4, ["bus"],
                    affinity=lambda idx: f"p{idx % 2}")


def _barrier(**kw):
    """Barrier rendezvous every round: the widened sync subset."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0)]
    kernel = HybridKernel(procs, res, **kw)
    gate = Barrier(3, name="gate")

    def worker(idx):
        def body():
            for i in range(4):
                yield consume(20 + 5 * ((idx + i) % 3),
                              {"bus": 2 + (idx + i) % 3}
                              if i % 2 == 0 else None)
                yield barrier_wait(gate)
        return body

    for idx in range(3):
        kernel.add_thread(LogicalThread(f"w{idx}", worker(idx)))
    return kernel


def _mutexed(**kw):
    """FIFO-mutex critical sections: the widened sync subset."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0)]
    kernel = HybridKernel(procs, res, **kw)
    lock = Mutex("m")

    def worker(idx):
        def body():
            for i in range(4):
                yield consume(25 + 7 * ((idx + i) % 4))
                yield acquire(lock)
                yield consume(10 + idx, {"bus": 3 + i % 2})
                yield release(lock)
        return body

    for idx in range(3):
        kernel.add_thread(LogicalThread(f"w{idx}", worker(idx)))
    return kernel


def _compute_pinned(**kw):
    """Pure-compute, all threads pinned to their own processor."""
    procs = [Processor(f"p{i}", 1.0) for i in range(3)]
    return _threads(HybridKernel(procs, [], **kw), 3, [],
                    affinity=lambda idx: f"p{idx}")


EQUIVALENCE_KERNELS = {
    "fused": _fused,
    "flat_merged": _flat_merged,
    "generic": _generic,
    "bursty": _bursty,
    "hetero": _hetero,
    "pinned": _pinned,
    "barrier": _barrier,
    "mutex": _mutexed,
    "compute_pinned": _compute_pinned,
}


def replay(kernel):
    """Compile ``kernel`` and replay it on itself, as the prepass does."""
    [result] = replay_batch([(kernel, compile_kernel(kernel))])
    assert result.engine_used == "soa"
    return result


@needs_numpy
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_KERNELS))
def test_soa_bit_identical(name):
    factory = EQUIVALENCE_KERNELS[name]
    obj = factory().run()
    assert obj.engine_used == "object"
    assert result_snapshot(replay(factory())) == result_snapshot(obj)


@needs_numpy
def test_program_replay_is_bit_identical():
    """Compile once, replay on fresh kernels: one program, many runs."""
    program = compile_kernel(_fused())
    reference = _fused().run()
    for _ in range(2):
        assert replay_program(_fused(), program) == reference


# ---------------------------------------------------------------------
# fallback routing: unsupported features -> object engine + reason
# ---------------------------------------------------------------------

def _with_semaphore(**kw):
    """Semaphores stay outside the widened sync subset (barrier/mutex
    only), so this is the canonical still-unsupported sync scenario."""
    kernel = HybridKernel(
        [Processor("p0", 1.0)],
        [SharedResource("bus", ChenLinModel(), service_time=2.0)], **kw)
    sem = Semaphore(1, name="s")

    def body():
        yield sem_acquire(sem)
        yield consume(10, {"bus": 2})
        yield sem_release(sem)

    kernel.add_thread(LogicalThread("t", body))
    return kernel


def _with_spawn(**kw):
    kernel = HybridKernel(
        [Processor("p0", 1.0)],
        [SharedResource("bus", ChenLinModel(), service_time=2.0)], **kw)

    def child():
        yield consume(5, {"bus": 1})

    def parent():
        yield consume(10, {"bus": 2})
        yield spawn(LogicalThread("kid", child))

    kernel.add_thread(LogicalThread("t", parent))
    return kernel


#: Each case outside the compiled subset, with the
#: ``UnsupportedFeatureError.feature`` its compile raises.
FALLBACK_CASES = {
    "tracing": (lambda: _fused(trace=True), "tracing"),
    "fault plans": (lambda: _fused(fault_plan=make_fault_plan()),
                    "fault plans"),
    "run budgets": (lambda: _fused(budget=RunBudget(max_virtual_time=1e9)),
                    "run budgets"),
    "scheduler": (lambda: _fused(scheduler=PriorityScheduler()),
                  "the PriorityScheduler scheduler (FIFO family only)"),
    "synchronization": (_with_semaphore, "SemAcquire events (thread 't')"),
    "deferred sync policy": (
        lambda: _barrier(sync_policy="deferred"),
        "synchronization under sync_policy='deferred' (eager only)"),
    "spawn": (_with_spawn, "Spawn events (thread 't')"),
}


@needs_numpy
@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_unsupported_features_route_to_object(case):
    """The compile names the feature and leaves the kernel runnable.

    The prepass skips such a cell; the per-cell path then runs the
    same kernel shape on the object engine, unchanged by the probe.
    """
    factory, feature = FALLBACK_CASES[case]
    kernel = factory()
    with pytest.raises(UnsupportedFeatureError) as raised:
        compile_kernel(kernel)
    assert raised.value.feature == feature
    result = kernel.run()
    assert result.engine_used == "object"
    assert result == factory().run()


def test_no_numpy_routes_to_object(monkeypatch, tmp_path):
    """Without NumPy nothing compiles: the prepass skips every cell and
    the per-cell path computes it on the object engine."""
    import repro.core.compile as compile_mod
    from repro.engine.session import ExecutionSession

    monkeypatch.setattr(compile_mod, "_np", None)
    assert not compile_mod.numpy_available()
    with pytest.raises(UnsupportedFeatureError) as raised:
        compile_kernel(_fused())
    assert raised.value.feature == "running without NumPy"
    spec = ScenarioSpec(generator="uniform",
                        params={"threads": 2, "phases": 3, "seed": 4})
    with ExecutionSession(store=tmp_path) as session:
        counters = session.prepass([spec])
        assert counters["cells_skipped"] == 1
        assert counters["compiles"] == 0
        mesh = session.comparison(spec, include=("mesh",)).runs["mesh"]
    assert not mesh.cached
    assert mesh.detail.engine_used == "object"
    assert mesh.detail == spec.run()


# ---------------------------------------------------------------------
# the 80-entry golden matrix: object snapshots, SoA replay of the twins
# ---------------------------------------------------------------------

ENTRIES = list(iter_golden_entries())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "cfg,memo", ENTRIES,
    ids=[config_key(*cfg, memo) for cfg, memo in ENTRIES])
def test_golden_matrix_under_soa(cfg, memo, golden):
    """Seed snapshots reproduce exactly; compilable twins replay bit-equal.

    Every golden configuration traces, which the compiled subset
    refuses, so the snapshot itself always comes from the object
    engine.  Its untraced twin is the same kernel minus the trace log:
    where the twin compiles, its replay must equal the twin's own
    object run; where it does not, the refusal must name a feature.
    """
    scenario, policy, mts, fault = cfg

    def build(trace):
        return SCENARIOS[scenario](
            sync_policy=policy,
            min_timeslice=mts,
            fault_plan=make_fault_plan() if fault else None,
            trace=trace)

    kernel = build(trace=True)
    result = kernel.run()
    assert snapshot(kernel, result) == golden_expected(golden, cfg, memo)
    twin = build(trace=False)
    try:
        program = compile_kernel(twin)
    except UnsupportedFeatureError as exc:
        assert exc.feature
        return
    [replayed] = replay_batch([(twin, program)])
    assert result_snapshot(replayed) == result_snapshot(
        build(trace=False).run())


# ---------------------------------------------------------------------
# the sync golden file: widened-subset configs with zero fallback
# ---------------------------------------------------------------------

SOA_CONFIGS = list(iter_soa_configs())


@pytest.fixture(scope="module")
def golden_soa():
    return json.loads(SOA_GOLDEN_PATH.read_text(encoding="utf-8"))


@needs_numpy
@pytest.mark.parametrize(
    "cfg", SOA_CONFIGS,
    ids=[soa_config_key(*cfg) for cfg in SOA_CONFIGS])
def test_golden_soa_zero_fallback(cfg, golden_soa):
    """Barrier/FIFO-mutex goldens compile and replay bit-for-bit.

    The file pins object-engine snapshots; every one of these configs
    must compile (no ``UnsupportedFeatureError``) and its replay must
    reproduce the snapshot exactly.
    """
    name, mts = cfg
    expected = golden_soa[soa_config_key(name, mts)]
    assert soa_snapshot(soa_kernel(name, mts).run()) == expected
    result = replay(soa_kernel(name, mts))
    assert soa_snapshot(result) == expected
    assert result_snapshot(result) == expected  # serializers agree


# ---------------------------------------------------------------------
# property-based spec equivalence (hypothesis)
# ---------------------------------------------------------------------

#: Every registered closed-form model usable as a bare ``ModelSpec``
#: name (``guarded`` needs a wrapped chain, so it is exercised through
#: its own suite, not here).
CLOSED_FORM_MODELS = [name for name in available_models()
                      if name != "guarded"]

spec_strategy = st.builds(
    ScenarioSpec,
    generator=st.just("uniform"),
    params=st.fixed_dictionaries({
        "threads": st.integers(min_value=1, max_value=4),
        "phases": st.integers(min_value=1, max_value=6),
        "work": st.sampled_from([500.0, 2_000.0, 5_000.0]),
        "accesses": st.integers(min_value=0, max_value=80),
        "bus_service": st.sampled_from([1.0, 4.0, 7.5]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }),
    model=st.sampled_from(CLOSED_FORM_MODELS).map(
        lambda name: ModelSpec(name=name)),
    min_timeslice=st.sampled_from([0.0, 6.0]),
    annotation=st.sampled_from(["phase", "barrier"]),
)


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(spec=spec_strategy)
def test_random_specs_bit_identical(spec):
    """SoA replay and object run of one spec are equal SimulationResults.

    Fault plans stay off (they are a spec-visible refusal, covered by
    the routing tests); everything else the ``uniform`` generator can
    express — thread counts, access densities, window merging, every
    registered closed-form model — must compile and agree exactly.
    """
    obj = spec.run()
    soa = replay(spec.build_kernel())
    assert soa == obj
    assert soa.makespan.hex() == obj.makespan.hex()
    for name, thread in soa.threads.items():
        assert thread.penalty.hex() == obj.threads[name].penalty.hex()


_SYNC_MODELS = st.sampled_from(["constant", "null", "chenlin"]).map(
    lambda name: ModelSpec(name=name))

#: Specs whose workloads carry real synchronization: barrier-locked
#: bursty streams and mutex-guarded critical sections — the widened
#: compiled subset drawn at random.
sync_spec_strategy = st.one_of(
    st.builds(
        ScenarioSpec,
        generator=st.just("bursty"),
        params=st.fixed_dictionaries({
            "threads": st.integers(min_value=2, max_value=4),
            "bursts": st.integers(min_value=1, max_value=5),
            "heavy_work": st.sampled_from([800.0, 3_000.0]),
            "heavy_accesses": st.integers(min_value=0, max_value=120),
            "light_work": st.sampled_from([400.0, 1_500.0]),
            "light_accesses": st.integers(min_value=0, max_value=15),
            "bus_service": st.sampled_from([1.0, 4.0]),
            "seed": st.integers(min_value=0, max_value=9_999),
            "barrier_locked": st.just(True),
        }),
        model=_SYNC_MODELS,
        min_timeslice=st.sampled_from([0.0, 6.0]),
        annotation=st.sampled_from(["phase", "barrier"]),
    ),
    st.builds(
        ScenarioSpec,
        generator=st.just("critical_section"),
        params=st.fixed_dictionaries({
            "threads": st.integers(min_value=2, max_value=4),
            "rounds": st.integers(min_value=1, max_value=5),
            "open_work": st.sampled_from([1_000.0, 3_000.0]),
            "open_accesses": st.integers(min_value=0, max_value=60),
            "cs_work": st.sampled_from([200.0, 800.0]),
            "cs_accesses": st.integers(min_value=0, max_value=30),
            "bus_service": st.sampled_from([1.0, 4.0]),
            "seed": st.integers(min_value=0, max_value=9_999),
        }),
        model=_SYNC_MODELS,
        min_timeslice=st.sampled_from([0.0, 6.0]),
        annotation=st.just("phase"),
    ),
)


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(spec=sync_spec_strategy)
def test_random_sync_specs_bit_identical(spec):
    """Random barrier/mutex specs agree between the two engines.

    The object engine and the SoA replay must return hex-identical
    snapshots, with every drawn spec inside the compiled subset.
    """
    reference = result_snapshot(spec.build_kernel().run())
    assert result_snapshot(replay(spec.build_kernel())) == reference


# ---------------------------------------------------------------------
# prepass probe ordering: no extra builds, zero on store hits
# ---------------------------------------------------------------------

def _counting_builds(monkeypatch):
    """Patch ScenarioSpec.build_workload to count materializations."""
    calls = []
    original = ScenarioSpec.build_workload

    def counted(self):
        calls.append(self.spec_hash())
        return original(self)

    monkeypatch.setattr(ScenarioSpec, "build_workload", counted)
    return calls


def test_soa_spec_probe_costs_no_extra_builds(tmp_path, monkeypatch):
    """A spec-visible refusal costs the prepass no workload build.

    ``trace=True`` is visible on the spec itself, so the prepass skips
    the cell *before* building anything; the per-cell comparison then
    performs exactly the builds it would have made with no prepass.
    """
    spec = ScenarioSpec(generator="uniform",
                        params={"threads": 2, "phases": 3, "seed": 1},
                        trace=True)
    calls = _counting_builds(monkeypatch)
    baseline = run_comparison(spec, include=("mesh",))
    object_builds = len(calls)
    calls.clear()
    [cell] = run_comparisons_parallel([spec], jobs=1, include=("mesh",),
                                      store=tmp_path, batch_cells=-1)
    assert len(calls) == object_builds
    mesh = cell.value.runs["mesh"]
    assert not mesh.cached
    assert mesh.detail.engine_used == "object"
    assert mesh.detail == baseline.runs["mesh"].detail


def test_soa_store_hit_runs_zero_builds(tmp_path, monkeypatch):
    """A grid the prepass warmed replays with zero builds, prepass
    included: a warm cell is never compiled a second time."""
    spec = ScenarioSpec(generator="uniform",
                        params={"threads": 2, "phases": 3, "seed": 2})
    include = ("mesh", "analytical")
    [cold] = run_comparisons_parallel([spec], jobs=1, include=include,
                                      store=tmp_path, batch_cells=-1)
    assert cold.value.cached_runs == (1 if numpy_available() else 0)
    calls = _counting_builds(monkeypatch)
    [warm] = run_comparisons_parallel([spec], jobs=1, include=include,
                                      store=tmp_path, batch_cells=-1)
    assert warm.value.cached_runs == 2
    assert calls == []
