"""Golden equivalence suite: the optimized kernel is bit-identical.

Two layers of defense around the incremental slice accounting and the
hot-path rewrite of the kernel core:

* **Golden snapshots** — every scenario in ``golden_scenarios`` runs
  across the full configuration matrix (sync policy x min_timeslice x
  fault plan) in *both* accounting modes, and the hex-float
  serialization of the entire outcome (statistics and trace stream)
  must equal every committed snapshot entry of that configuration
  produced by the seed kernel (both entries of the file's retired memo
  axis, minus their memo counters).  Any float that drifts by even one
  ulp fails here.
* **Property-based cross-check** — hypothesis generates small random
  workloads and asserts ``slice_accounting="incremental"`` and
  ``"rescan"`` agree exactly on workloads nobody hand-picked.

If a deliberate behavior change is made, regenerate the snapshots with
``PYTHONPATH=src:tests python tests/generate_golden.py`` and say so in
the commit message; never loosen the equality to approx.
"""

import json
import pathlib

import pytest

from golden_scenarios import (MIN_TIMESLICES, SYNC_POLICIES, config_key,
                              golden_expected, iter_configs,
                              iter_golden_entries, run_config, snapshot)
from repro.contention import ChenLinModel, ConstantModel
from repro.core import (HybridKernel, LogicalThread, Processor,
                        SharedResource)
from repro.core.events import consume

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data" /
               "golden_kernel.json")

ACCOUNTING_MODES = ("incremental", "rescan")

CONFIGS = list(iter_configs())
ENTRIES = list(iter_golden_entries())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestMatrixCoverage:
    """The committed snapshot file covers the matrix ISSUE demands."""

    def test_modes_match_kernel_contract(self):
        assert set(ACCOUNTING_MODES) == set(HybridKernel.SLICE_ACCOUNTING)

    def test_matrix_spans_required_axes(self):
        assert set(SYNC_POLICIES) == {"eager", "deferred"}
        assert 0.0 in MIN_TIMESLICES
        assert any(mts > 0 for mts in MIN_TIMESLICES)
        faults = {cfg[3] for cfg in CONFIGS}
        assert faults == {False, True}

    def test_snapshot_file_complete(self, golden):
        assert set(golden) == {config_key(*cfg, memo)
                               for cfg, memo in ENTRIES}


@pytest.mark.parametrize("mode", ACCOUNTING_MODES)
@pytest.mark.parametrize(
    "cfg,memo", ENTRIES,
    ids=[config_key(*cfg, memo) for cfg, memo in ENTRIES])
def test_matches_seed_golden(cfg, memo, mode, golden):
    """Both accounting paths reproduce the seed kernel bit-for-bit."""
    assert run_config(*cfg, slice_accounting=mode) == \
        golden_expected(golden, cfg, memo)


def _run_random(threads, policy, mts, mode):
    """Build and run one generated workload; return its snapshot."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.25)]
    resources = [
        SharedResource("bus", ChenLinModel(), service_time=2.0),
        SharedResource("mem", ConstantModel(0.5), service_time=3.0),
    ]
    kernel = HybridKernel(procs, resources, sync_policy=policy,
                          min_timeslice=mts, trace=True,
                          slice_accounting=mode)

    def make_body(regions):
        def body():
            for duration, bus, mem in regions:
                demands = {}
                if bus:
                    demands["bus"] = bus
                if mem:
                    demands["mem"] = mem
                yield consume(duration, demands or None)
        return body

    for idx, (start, regions) in enumerate(threads):
        kernel.add_thread(LogicalThread(f"t{idx}", make_body(regions)),
                          start_time=start)
    return snapshot(kernel, kernel.run())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the image
    pass
else:
    _region = st.tuples(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False,
                  allow_infinity=False),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=6),
                  st.floats(min_value=0.25, max_value=4.0)),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=4)),
    )
    _thread = st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.lists(_region, min_size=1, max_size=6),
    )
    _workload = st.lists(_thread, min_size=1, max_size=4)

    class TestPropertyEquivalence:
        """Incremental and rescan accounting agree on random workloads."""

        @settings(max_examples=40, deadline=None)
        @given(threads=_workload,
               policy=st.sampled_from(SYNC_POLICIES),
               mts=st.sampled_from((0.0, 4.0)))
        def test_incremental_equals_rescan(self, threads, policy, mts):
            fast = _run_random(threads, policy, mts, "incremental")
            slow = _run_random(threads, policy, mts, "rescan")
            assert fast == slow
