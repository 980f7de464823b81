"""Program store + grid replay: caching, prepass, fidelity.

Three claims under test:

* **Bit identity regardless of grid composition** — compiled programs
  replayed through :func:`~repro.core.programstore.replay_batch` must
  produce hex-identical results whatever the grid's composition or
  order; a program loaded from the
  :class:`~repro.core.programstore.ProgramStore` must be
  indistinguishable from the one just compiled.  Verified over the
  equivalence kernels (hypothesis-drawn compositions), the
  ``golden_soa.json`` sync configs, and the full golden configuration
  matrix (which, tracing, must stay out of the program cache entirely
  — its object-engine equality is pinned by ``test_core_soa``).
* **RunStore discipline** — corrupt or stale-format bundles count as
  misses (recompiling is always correct), code-version changes miss by
  construction (``program_hash`` covers them), writes are atomic, and
  orphaned ``*.tmp`` debris is swept on open.
* **Compile-once economics** — a warm store satisfies a whole grid
  with zero compiles, the prepass writes artifacts identical
  to per-cell ``run_comparison`` (modulo ``wall_seconds``, a wall-clock
  measurement), and neither ``batch_cells`` nor any store path ever
  enters ``spec_hash``.
"""

import json
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_scenarios import (SCENARIOS, config_key, iter_configs,
                              make_fault_plan)
from golden_soa_scenarios import (SOA_GOLDEN_PATH, iter_soa_configs,
                                  soa_config_key, soa_kernel,
                                  soa_snapshot)
from test_core_soa import EQUIVALENCE_KERNELS, needs_numpy, result_snapshot
from repro.core import compile_kernel
from repro.core.compile import COMPILE_SUBSET_VERSION
from repro.core.errors import UnsupportedFeatureError
from repro.core.programstore import (FORMAT_VERSION, ProgramStore,
                                     as_program_store, bind_program,
                                     build_replay_kernel, program_hash,
                                     replay_batch, replay_program)
from repro.experiments.runner import (batched_mesh_prepass,
                                      run_comparison,
                                      run_comparisons_parallel)
from repro.scenario.store import RunStore, code_version
from repro.sweepfabric.grids import fig5_grid

_REFS = {}


def _ref(name):
    """Object-engine snapshot for one equivalence kernel (memoized)."""
    if name not in _REFS:
        _REFS[name] = result_snapshot(EQUIVALENCE_KERNELS[name]().run())
    return _REFS[name]


def _cell(name):
    """A fresh ``(kernel, program)`` replay cell for one kernel name."""
    factory = EQUIVALENCE_KERNELS[name]
    kernel = factory(engine="soa")
    program = compile_kernel(factory())
    bind_program(program, kernel)
    return kernel, program


# ---------------------------------------------------------------------
# program_hash: every input moves the address
# ---------------------------------------------------------------------


def test_program_hash_covers_every_input():
    base = program_hash("abc", subset_version=1, version="v1")
    assert program_hash("abc", 1, "v1") == base
    assert program_hash("abd", 1, "v1") != base
    assert program_hash("abc", 2, "v1") != base
    assert program_hash("abc", 1, "v2") != base


def test_program_hash_defaults_to_runtime_versions(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeefcafe")
    assert program_hash("abc") == program_hash(
        "abc", COMPILE_SUBSET_VERSION, "deadbeefcafe")
    assert code_version() == "deadbeefcafe"


# ---------------------------------------------------------------------
# store roundtrip: a loaded program is the compiled program
# ---------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_KERNELS))
def test_store_roundtrip_replays_bit_identically(name, tmp_path):
    """Compile, serialize, load, replay: hex-identical to the object run.

    Covers every equivalence kernel — sync primitives, bursts,
    heterogeneous powers, pinned scheduling — so the flattening has no
    blind spots.  Fresh :class:`Barrier` / :class:`Mutex` objects on
    load are fine because replay write-backs are pure deltas.
    """
    factory = EQUIVALENCE_KERNELS[name]
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash(name, version="t")
    store.put(phash, compile_kernel(factory()), {"tag": name})
    loaded = store.get(phash)
    assert loaded is not None
    program, aux = loaded
    assert aux == {"tag": name}
    kernel = factory(engine="soa")
    bind_program(program, kernel)
    assert result_snapshot(replay_program(kernel, program)) == _ref(name)
    assert store.stats()["hits"] == 1
    assert store.stats()["compiles"] == 0


@needs_numpy
@pytest.mark.parametrize(
    "cfg", list(iter_soa_configs()),
    ids=[soa_config_key(*cfg) for cfg in iter_soa_configs()])
def test_golden_soa_configs_roundtrip_batched(cfg, tmp_path):
    """Sync goldens survive the store and the grid replay path."""
    name, mts = cfg
    golden = json.loads(SOA_GOLDEN_PATH.read_text(
        encoding="utf-8"))[soa_config_key(name, mts)]
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash(soa_config_key(name, mts), version="t")
    store.put(phash, compile_kernel(soa_kernel(name, mts)))
    program, _aux = store.get(phash)
    kernel = soa_kernel(name, mts, engine="soa")
    bind_program(program, kernel)
    [result] = replay_batch([(kernel, program)])
    assert result.engine_used == "soa"
    assert soa_snapshot(result) == golden


@pytest.mark.parametrize(
    "cfg", list(iter_configs()),
    ids=[config_key(*cfg) for cfg in iter_configs()])
def test_golden_matrix_configs_stay_out_of_the_program_cache(cfg):
    """Every golden config refuses compilation, so none can be cached.

    The golden matrix traces, which the compiled subset rejects — the
    prepass therefore reproduces these goldens by
    *never taking them*: they fall through to the object engine, whose
    snapshot equality ``test_core_soa`` pins.  A config slipping into
    the compiled subset here would silently change that contract.
    """
    scenario, policy, mts, fault = cfg
    kernel = SCENARIOS[scenario](
        sync_policy=policy,
        min_timeslice=mts,
        fault_plan=make_fault_plan() if fault else None,
        trace=True)
    with pytest.raises(UnsupportedFeatureError):
        compile_kernel(kernel)


# ---------------------------------------------------------------------
# grid replay: composition and order never matter
# ---------------------------------------------------------------------


@needs_numpy
@settings(max_examples=12, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(EQUIVALENCE_KERNELS)),
                      min_size=1, max_size=7),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_batched_grid_replay_matches_per_cell(names, seed):
    """Any composition, any order: a grid replay equals per-cell runs."""
    names = list(names)
    random.Random(seed).shuffle(names)
    results = replay_batch([_cell(name) for name in names])
    assert [result_snapshot(r) for r in results] == \
        [_ref(name) for name in names]
    assert all(result.engine_used == "soa" for result in results)


# ---------------------------------------------------------------------
# RunStore discipline: corruption, staleness, atomicity, hygiene
# ---------------------------------------------------------------------


@needs_numpy
def test_corrupt_bundle_counts_as_miss_and_heals(tmp_path):
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash("cell", version="t")
    store.put(phash, compile_kernel(EQUIVALENCE_KERNELS["fused"]()))
    store.path_for(phash).write_bytes(b"torn write, not an npz")
    assert store.get(phash) is None
    assert store.corrupt == 1
    assert store.misses == 1
    store.put(phash, compile_kernel(EQUIVALENCE_KERNELS["fused"]()))
    assert store.get(phash) is not None
    assert store.hits == 1


@needs_numpy
def test_stale_bundle_format_counts_as_corrupt(tmp_path, monkeypatch):
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash("cell", version="t")
    store.put(phash, compile_kernel(EQUIVALENCE_KERNELS["fused"]()))
    monkeypatch.setattr("repro.core.programstore.FORMAT_VERSION",
                        FORMAT_VERSION + 1)
    assert store.get(phash) is None
    assert store.corrupt == 1


@needs_numpy
def test_stale_code_version_misses_by_construction(tmp_path):
    """A code change moves both the namespace and the hash."""
    spec_hash = "abc123"
    old = ProgramStore(tmp_path, version="aaa")
    old_hash = program_hash(spec_hash, version="aaa")
    new_hash = program_hash(spec_hash, version="bbb")
    assert old_hash != new_hash
    old.put(old_hash, compile_kernel(EQUIVALENCE_KERNELS["fused"]()))
    new = ProgramStore(tmp_path, version="bbb")
    assert new.get(new_hash) is None
    assert new.misses == 1
    assert old.get(old_hash) is not None


@needs_numpy
def test_put_is_atomic_and_leaves_no_tmp(tmp_path):
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash("cell", version="t")
    store.put(phash, compile_kernel(EQUIVALENCE_KERNELS["fused"]()))
    assert store.orphan_tmp() == 0
    assert store.count() == 1
    assert phash in store
    assert program_hash("other", version="t") not in store


def test_orphan_tmp_swept_on_open(tmp_path):
    stale_dir = tmp_path / "t" / "ab"
    stale_dir.mkdir(parents=True)
    stale = stale_dir / "dead.tmp"
    stale.write_bytes(b"abandoned")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    fresh = stale_dir / "live.tmp"
    fresh.write_bytes(b"in flight")
    store = ProgramStore(tmp_path, version="t")
    assert store.tmp_swept == 1
    assert not stale.exists()
    assert fresh.exists()  # young enough to be a live writer
    store.sweep_tmp(max_age=0.0)
    assert not fresh.exists()


def test_as_program_store_coerces_paths(tmp_path):
    assert as_program_store(None) is None
    store = ProgramStore(tmp_path)
    assert as_program_store(store) is store
    coerced = as_program_store(tmp_path / "sub")
    assert isinstance(coerced, ProgramStore)


# ---------------------------------------------------------------------
# prepass: compile once, replay everywhere, same artifacts
# ---------------------------------------------------------------------


@needs_numpy
def test_warm_program_store_performs_zero_compiles(tmp_path):
    """Second grid against a warm store: loads only, bit-equal output."""
    specs = fig5_grid(quick=True)
    programs_root = tmp_path / "programs"
    cold_store = RunStore(tmp_path / "cold")
    cold_programs = ProgramStore(programs_root,
                                 version=cold_store.version)
    cold = batched_mesh_prepass(specs, cold_store,
                                program_store=cold_programs)
    assert cold["cells_cold"] == len(specs)
    assert cold["compiles"] == len(specs)
    assert cold["program_loads"] == 0
    warm_store = RunStore(tmp_path / "warm")
    warm_programs = ProgramStore(programs_root,
                                 version=warm_store.version)
    warm = batched_mesh_prepass(specs, warm_store,
                                program_store=warm_programs)
    assert warm["compiles"] == 0
    assert warm["program_loads"] == len(specs)
    assert warm_programs.compiles == 0
    for spec in specs:
        a = cold_store.get(spec.spec_hash(), "mesh")
        b = warm_store.get(spec.spec_hash(), "mesh")
        assert a is not None and b is not None
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b


@needs_numpy
def test_prepass_artifacts_match_per_cell_runs(tmp_path):
    """The prepass writes what ``run_comparison`` would have.

    Only ``wall_seconds`` — an environment measurement, not a result —
    may differ between the two execution strategies.
    """
    specs = fig5_grid(quick=True)
    percell = RunStore(tmp_path / "percell")
    for spec in specs:
        run_comparison(spec, include=("mesh",), engine="soa",
                       store=percell)
    batched = RunStore(tmp_path / "batched")
    batched_mesh_prepass(specs, batched,
                         program_store=tmp_path / "programs")
    for spec in specs:
        a = percell.get(spec.spec_hash(), "mesh")
        b = batched.get(spec.spec_hash(), "mesh")
        assert a is not None and b is not None
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b


@needs_numpy
def test_batch_cells_is_execution_only(tmp_path):
    """With and without the prepass a grid commits identical artifacts,
    and a warm run store leaves nothing cold for a later prepass."""
    specs = fig5_grid(quick=True)
    stores = {}
    for batch_cells in (0, 1):
        stores[batch_cells] = RunStore(tmp_path / f"store{batch_cells}")
        run_comparisons_parallel(
            specs, jobs=1, include=("mesh",), engine="soa",
            store=stores[batch_cells], batch_cells=batch_cells,
            program_store=tmp_path / f"p{batch_cells}")
    for spec in specs:
        a = stores[0].get(spec.spec_hash(), "mesh")
        b = stores[1].get(spec.spec_hash(), "mesh")
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b
    again = batched_mesh_prepass(specs, stores[1],
                                 program_store=tmp_path / "p1")
    assert again["cells_cold"] == 0
    assert again["compiles"] == 0


@needs_numpy
def test_batch_knobs_never_enter_spec_hash(tmp_path):
    """``batch_cells`` / store paths are invisible to content addresses."""
    spec = fig5_grid(quick=True)[0]
    before = spec.spec_hash()
    serialized = json.dumps(spec.to_dict())
    assert "batch_cells" not in serialized
    assert "program_store" not in serialized
    batched_mesh_prepass([spec], RunStore(tmp_path / "s"),
                         program_store=tmp_path / "p")
    assert spec.spec_hash() == before


@needs_numpy
def test_run_comparisons_parallel_batches_cold_grids(tmp_path):
    """``batch_cells`` warms the store, so every comparison cache-hits."""
    specs = fig5_grid(quick=True)
    comparisons = run_comparisons_parallel(
        specs, include=("mesh",), store=tmp_path / "store",
        batch_cells=-1, program_store=tmp_path / "programs")
    assert len(comparisons) == len(specs)
    assert all(cell.value.cached_runs == 1 for cell in comparisons)


@needs_numpy
def test_sweep_summary_reports_tallies_and_prepass(tmp_path):
    """The sweep summary tallies engines and the prepass.

    The tally line is the CI-greppable record of which engine actually
    served a sweep — a silent fallback shows up as a changed
    ``engine_used:`` line.
    """
    from repro.sweepfabric import run_sharded_sweep

    specs = fig5_grid(quick=True)
    result = run_sharded_sweep(specs, RunStore(tmp_path / "store"),
                               shards=2, jobs=1, batch_cells=-1,
                               program_store=tmp_path / "programs")
    text = result.summary()
    assert f"batched prepass: warmed {len(specs)} cell(s)" in text
    assert f"compiles={len(specs)} program_loads=0 skipped=0" in text
    assert "engine_used:" in text
    assert "backend_used:" not in text
    assert f"cached={len(specs)}" in text


@needs_numpy
def test_build_replay_kernel_is_hollow_but_faithful(tmp_path):
    """A replay kernel rebuilt from spec + program replays bit-equal to
    a freshly built cell, without ever materializing the workload."""
    spec = fig5_grid(quick=True)[0]
    reference = result_snapshot(spec.run(engine="soa"))
    program = compile_kernel(spec.build_kernel(engine="soa"))
    store = ProgramStore(tmp_path, version="t")
    phash = program_hash(spec.spec_hash(), version="t")
    store.put(phash, program)
    loaded, _aux = store.get(phash)
    kernel = build_replay_kernel(spec, loaded)
    assert result_snapshot(replay_program(kernel, loaded)) == reference
