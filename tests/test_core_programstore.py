"""Compiled-program replay and the mesh prepass: fidelity and economics.

Two claims under test:

* **Bit identity regardless of grid composition** — compiled programs
  replayed through :func:`~repro.core.programstore.replay_batch` must
  produce hex-identical results whatever the grid's composition or
  order.  Verified over the equivalence kernels (hypothesis-drawn
  compositions), the ``golden_soa.json`` sync configs, and the full
  golden configuration matrix (which, tracing, must stay out of the
  prepass entirely — its object-engine equality is pinned by
  ``test_core_soa``).
* **The prepass is an execution choice** — called explicitly through
  :meth:`~repro.engine.session.ExecutionSession.prepass` (no front end
  runs it), it writes artifacts identical to per-cell
  ``run_comparison`` (modulo ``wall_seconds``, a wall-clock
  measurement), a warm run store leaves it nothing to compile, and a
  corrupt ``mesh`` artifact is recomputed.
"""

import json
import random

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
from repro.core.errors import UnsupportedFeatureError
from repro.core.programstore import replay_batch
from repro.engine import ExecutionSession
from repro.experiments.runner import (run_comparison,
                                      run_comparisons_parallel)
from repro.scenario.store import RunStore
from repro.sweepfabric.grids import fig5_grid

_REFS = {}


def _ref(name):
    """Object-engine snapshot for one equivalence kernel (memoized)."""
    if name not in _REFS:
        _REFS[name] = result_snapshot(EQUIVALENCE_KERNELS[name]().run())
    return _REFS[name]


def _cell(name):
    """A fresh ``(kernel, program)`` replay cell for one kernel name."""
    kernel = EQUIVALENCE_KERNELS[name]()
    return kernel, compile_kernel(kernel)


def _prepass(specs, store):
    """Run the SoA prepass over ``specs`` into ``store``."""
    return ExecutionSession(store=store).prepass(specs)


def _without_wall(payload):
    payload = dict(payload)
    payload.pop("wall_seconds")
    return payload


# ---------------------------------------------------------------------
# replay fidelity: goldens and grid composition
# ---------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize(
    "cfg", list(iter_soa_configs()),
    ids=[soa_config_key(*cfg) for cfg in iter_soa_configs()])
def test_golden_soa_configs_roundtrip_batched(cfg):
    """Sync goldens survive the compile -> grid replay round trip."""
    name, mts = cfg
    golden = json.loads(SOA_GOLDEN_PATH.read_text(
        encoding="utf-8"))[soa_config_key(name, mts)]
    kernel = soa_kernel(name, mts)
    [result] = replay_batch([(kernel, compile_kernel(kernel))])
    assert result.engine_used == "soa"
    assert soa_snapshot(result) == golden


@pytest.mark.parametrize(
    "cfg", list(iter_configs()),
    ids=[config_key(*cfg) for cfg in iter_configs()])
def test_golden_matrix_configs_stay_out_of_the_program_cache(cfg):
    """Every golden config refuses compilation, so the prepass skips it.

    The golden matrix traces, which the compiled subset rejects — the
    prepass therefore reproduces these goldens by *never taking them*:
    they fall through to the object engine, whose snapshot equality
    ``test_core_soa`` pins.  A config slipping into the compiled subset
    here would silently change that contract.
    """
    scenario, policy, mts, fault = cfg
    kernel = SCENARIOS[scenario](
        sync_policy=policy,
        min_timeslice=mts,
        fault_plan=make_fault_plan() if fault else None,
        trace=True)
    with pytest.raises(UnsupportedFeatureError):
        compile_kernel(kernel)


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
# prepass: compile, replay, commit the same artifacts
# ---------------------------------------------------------------------


@needs_numpy
def test_prepass_artifacts_match_per_cell_runs(tmp_path):
    """The prepass writes what ``run_comparison`` would have.

    Only ``wall_seconds`` — an environment measurement, not a result —
    may differ between the two execution strategies.
    """
    specs = fig5_grid(quick=True)
    percell = RunStore(tmp_path / "percell")
    for spec in specs:
        run_comparison(spec, include=("mesh",), store=percell)
    batched = RunStore(tmp_path / "batched")
    counters = _prepass(specs, batched)
    assert counters["compiles"] == counters["cells_batched"] == len(specs)
    for spec in specs:
        a = percell.get(spec.spec_hash(), "mesh")
        b = batched.get(spec.spec_hash(), "mesh")
        assert a is not None and b is not None
        assert _without_wall(a) == _without_wall(b)


@needs_numpy
def test_corrupt_mesh_artifact_is_recomputed_by_the_prepass(tmp_path):
    """A torn ``mesh`` payload counts as cold: one compile, same bytes.

    The run store treats an unreadable artifact as a miss, so the
    prepass compiles that one cell again and rewrites a payload equal
    to the original in every field but ``wall_seconds``.
    """
    specs = fig5_grid(quick=True)
    store = RunStore(tmp_path / "store")
    _prepass(specs, store)
    victim = specs[0].spec_hash()
    before = store.get(victim, "mesh")
    store.path_for(victim, "mesh").write_bytes(b"torn write, not json")
    counters = _prepass(specs, store)
    assert counters["cells_cold"] == 1
    assert counters["compiles"] == 1
    assert counters["cells_batched"] == 1
    after = store.get(victim, "mesh")
    assert after is not None
    assert json.dumps(_without_wall(after), sort_keys=True) == \
        json.dumps(_without_wall(before), sort_keys=True)


@needs_numpy
def test_batch_cells_is_execution_only(tmp_path):
    """With and without a prepass a grid commits identical artifacts,
    and a warm run store leaves nothing cold for a later prepass."""
    specs = fig5_grid(quick=True)
    stores = {}
    for prepassed in (False, True):
        stores[prepassed] = RunStore(tmp_path / f"store{int(prepassed)}")
        if prepassed:
            _prepass(specs, stores[prepassed])
        run_comparisons_parallel(specs, jobs=1, include=("mesh",),
                                 store=stores[prepassed])
    for spec in specs:
        a = stores[False].get(spec.spec_hash(), "mesh")
        b = stores[True].get(spec.spec_hash(), "mesh")
        assert _without_wall(a) == _without_wall(b)
    again = _prepass(specs, stores[False])
    assert again["cells_cold"] == 0
    assert again["compiles"] == 0


@needs_numpy
def test_run_comparisons_parallel_batches_cold_grids(tmp_path):
    """After an explicit prepass, every comparison of the grid
    cache-hits: the per-cell pass computes nothing."""
    specs = fig5_grid(quick=True)
    store = RunStore(tmp_path / "store")
    _prepass(specs, store)
    comparisons = run_comparisons_parallel(
        specs, include=("mesh",), store=store)
    assert len(comparisons) == len(specs)
    assert all(cell.value.cached_runs == 1 for cell in comparisons)
