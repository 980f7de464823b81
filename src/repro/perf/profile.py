"""Hot-path profiling harness: kernel throughput -> ``BENCH_hotpath.json``.

Times the paths the kernel optimization work targets and records the
numbers as a benchmark trajectory (see :mod:`repro.perf.bench`):

* ``commit_throughput`` — regions committed per second on a dense
  8-thread / 2-resource workload, in both slice-accounting modes.  The
  incremental/rescan *ratio* is hardware-portable and is what the CI
  regression gate (:mod:`repro.perf.gate`) watches.
* ``commit_throughput_soa`` — object-engine runs vs structure-of-arrays
  compiled-program replays (:mod:`repro.core.soa`) on a periodic-
  contention workload; the soa/object *ratio* is gated.
* ``slice_analysis`` — timeslice analyses per second when driving the
  US scheduler directly (collect + analyze, no kernel around it).
* ``slice_analysis_batch`` — the same drive at 64 shared resources
  sharing one Chen-Lin model, batched (``batch_analysis=True``) vs the
  legacy per-resource loop; the batch/scalar *ratio* is gated.
* ``calibration_grid`` — a calibration-style grid of slice demands
  evaluated scalar-loop vs one ``analyze_batch`` call; ratio gated.
* ``cycle_engine`` — simulated cycles per second of the cycle-stepped
  reference engine on the FFT workload.
* ``sweep_cell`` — experiment sweep cells (one hybrid FFT run each)
  per second.

Run as a module::

    python -m repro.perf.profile --quick
    python -m repro.perf.profile --scenario commit_throughput --cprofile
    python -m repro.perf.profile --compare-src /path/to/old/src

``--compare-src`` reruns the commit-throughput workload against another
source tree (e.g. a pre-optimization checkout) in a subprocess and
records the measured speedup under ``vs_reference``.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..contention.constant import ConstantModel
from ..core.events import consume
from ..core.kernel import HybridKernel
from ..core.region import AnnotationRegion
from ..core.resource import Processor
from ..core.shared import SharedResource
from ..core.thread import LogicalThread
from ..core.us import SharedResourceScheduler
from .bench import record_bench

#: Scenario shape pinned by the optimization work: 8 logical threads
#: contending for 2 shared resources, >= 10k annotation regions.
THREADS = 8
REGIONS_PER_THREAD = 1500
QUICK_REGIONS_PER_THREAD = 250
PROCESSORS = 4


def _dense_kernel(regions_per_thread: int,
                  **kernel_kwargs: Any) -> HybridKernel:
    """The commit-throughput workload: dense 2-resource contention."""
    processors = [Processor(f"p{i}", power=1.0) for i in range(PROCESSORS)]
    resources = [
        SharedResource("bus", ConstantModel(0.5), service_time=2.0),
        SharedResource("mem", ConstantModel(0.25), service_time=3.0),
    ]
    kernel = HybridKernel(processors, resources, **kernel_kwargs)
    for t in range(THREADS):
        def body(t: int = t):
            for i in range(regions_per_thread):
                yield consume(100 + (t * 13 + i * 7) % 50,
                              {"bus": 5 + (i + t) % 4, "mem": 3 + i % 3})
        kernel.add_thread(LogicalThread(f"t{t}", body))
    return kernel


def _best_of(build: Callable[[], HybridKernel], repeats: int) -> float:
    """Best wall-clock seconds for ``build().run()`` over ``repeats``."""
    best = None
    for _ in range(repeats):
        kernel = build()
        start = time.perf_counter()
        kernel.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def commit_throughput(quick: bool = False,
                      repeats: int = 3) -> Dict[str, Any]:
    """Regions/second in incremental vs legacy-rescan accounting."""
    per_thread = QUICK_REGIONS_PER_THREAD if quick else REGIONS_PER_THREAD
    repeats = 1 if quick else repeats
    regions = THREADS * per_thread
    incremental = _best_of(
        lambda: _dense_kernel(per_thread, slice_accounting="incremental"),
        repeats)
    rescan = _best_of(
        lambda: _dense_kernel(per_thread, slice_accounting="rescan"),
        repeats)
    return {
        "threads": THREADS,
        "processors": PROCESSORS,
        "resources": 2,
        "regions": regions,
        "incremental_regions_per_sec": round(regions / incremental, 1),
        "rescan_regions_per_sec": round(regions / rescan, 1),
        "ratio_incremental_over_rescan": round(rescan / incremental, 4),
    }


#: Periodic-contention shape for the SoA engine scenario: 8 threads on
#: a narrow 2-processor platform, with every ``SOA_STRIDE``-th region
#: touching the shared bus and memory — the paper's coarse-grained
#: annotation premise, where contention punctuates compute stretches
#: rather than saturating every region.
SOA_PROCESSORS = 2
SOA_STRIDE = 4


def _periodic_kernel(regions_per_thread: int,
                     **kernel_kwargs: Any) -> HybridKernel:
    """The SoA-throughput workload: periodic 2-resource contention."""
    processors = [Processor(f"p{i}", power=1.0)
                  for i in range(SOA_PROCESSORS)]
    resources = [
        SharedResource("bus", ConstantModel(0.5), service_time=2.0),
        SharedResource("mem", ConstantModel(0.25), service_time=3.0),
    ]
    kernel = HybridKernel(processors, resources, **kernel_kwargs)
    for t in range(THREADS):
        def body(t: int = t):
            for i in range(regions_per_thread):
                if i % SOA_STRIDE == 0:
                    yield consume(100 + (t * 13 + i * 7) % 50,
                                  {"bus": 5 + (i + t) % 4,
                                   "mem": 3 + i % 3})
                else:
                    yield consume(100 + (t * 13 + i * 7) % 50)
        kernel.add_thread(LogicalThread(f"t{t}", body))
    return kernel


def commit_throughput_soa(quick: bool = False,
                          repeats: int = 3) -> Dict[str, Any]:
    """Object-engine runs vs SoA compiled-program replays.

    The object side times full ``kernel.run()`` calls; the SoA side
    compiles the scenario once and times ``run_program`` replays on
    fresh kernels — the sweep/calibration usage pattern, where one
    compiled program serves every run of the same scenario shape.
    Workload enumeration is shared cost the object engine pays inline
    during the run and the compiler hoists out of it, the same timing
    contract as :func:`slice_analysis_batch` (only the accelerated
    path's steady-state cost is compared).  The one-off compile cost
    and the compile-inclusive ``ratio_soa_cold_over_object`` are
    recorded alongside so the amortization claim stays inspectable.
    Both sides' :class:`~repro.core.stats.SimulationResult` values are
    compared to re-assert bit-identity in the record.
    """
    from ..core.compile import compile_kernel, numpy_available
    from ..core.soa import run_program

    if not numpy_available():  # pragma: no cover - no-numpy CI skips bench
        return {"numpy": False, "skipped": "SoA engine requires NumPy"}
    # Same region count in quick and full mode (the scenario is cheap
    # either way) — the gated ratio moves with region count because
    # fixed per-replay overhead dilutes the speedup at small sizes, so
    # quick CI runs must measure the size the baseline records.
    per_thread = REGIONS_PER_THREAD
    repeats = 1 if quick else repeats
    regions = THREADS * per_thread

    object_best = None
    object_result = None
    for _ in range(repeats):
        kernel = _periodic_kernel(per_thread)
        start = time.perf_counter()
        object_result = kernel.run()
        elapsed = time.perf_counter() - start
        if object_best is None or elapsed < object_best:
            object_best = elapsed

    start = time.perf_counter()
    program = compile_kernel(_periodic_kernel(per_thread))
    compile_elapsed = time.perf_counter() - start
    soa_best = None
    soa_result = None
    for _ in range(repeats):
        kernel = _periodic_kernel(per_thread)
        start = time.perf_counter()
        soa_result = run_program(kernel, program)
        elapsed = time.perf_counter() - start
        if soa_best is None or elapsed < soa_best:
            soa_best = elapsed

    return {
        "threads": THREADS,
        "processors": SOA_PROCESSORS,
        "resources": 2,
        "stride": SOA_STRIDE,
        "regions": regions,
        "numpy": True,
        "results_match": object_result == soa_result,
        "compile_seconds": round(compile_elapsed, 4),
        "object_regions_per_sec": round(regions / object_best, 1),
        "soa_regions_per_sec": round(regions / soa_best, 1),
        "ratio_soa_over_object": round(object_best / soa_best, 4),
        "ratio_soa_cold_over_object": round(
            object_best / (soa_best + compile_elapsed), 4),
    }


def slice_analysis(quick: bool = False) -> Dict[str, Any]:
    """Analyses/second driving the US scheduler directly."""
    slices = 2_000 if quick else 20_000
    resources = [
        SharedResource("bus", ConstantModel(0.5), service_time=2.0),
        SharedResource("mem", ConstantModel(0.25), service_time=3.0),
    ]
    scheduler = SharedResourceScheduler(resources)
    processor = Processor("p0", power=1.0)
    threads = [LogicalThread(f"t{t}", lambda: iter(()))
               for t in range(THREADS)]
    priorities = {thread.name: 0 for thread in threads}
    start = time.perf_counter()
    now = 0.0
    for index in range(slices):
        thread = threads[index % THREADS]
        region = AnnotationRegion(
            thread, processor, 10.0,
            {"bus": 3 + index % 4, "mem": 2 + index % 3}, now)
        other = threads[(index + 1) % THREADS]
        competitor = AnnotationRegion(
            other, processor, 10.0, {"bus": 2, "mem": 1}, now)
        now += 10.0
        scheduler.collect(now, [region, competitor])
        scheduler.analyze(priorities)
    elapsed = time.perf_counter() - start
    return {
        "slices": slices,
        "slices_per_sec": round(slices / elapsed, 1),
    }


def slice_analysis_batch(quick: bool = False) -> Dict[str, Any]:
    """Batched vs per-resource slice analysis at 64 shared resources.

    Every resource shares one Chen-Lin model instance (the standard
    ``build_kernel`` shape), so the batched scheduler folds each
    timeslice's 64 model calls into a single vectorized
    ``analyze_batch``.  Only the ``analyze()`` calls are timed —
    collection is identical on both sides — and both sides' accumulated
    penalties are compared to re-assert bit-identity in the record.
    """
    from ..contention.batch import numpy_available
    from ..contention.chenlin import ChenLinModel

    # Quick mode trims repeats, not the batch shape: the gated ratio
    # depends on per-call amortization, so shrinking the workload would
    # shift the metric the gate compares against the full-run baseline.
    resource_count = 64
    slices = 60 if quick else 120
    repeats = 2

    def run_side(batch_on: bool):
        model = ChenLinModel()
        resources = [SharedResource(f"r{i}", model, service_time=2.0)
                     for i in range(resource_count)]
        scheduler = SharedResourceScheduler(resources,
                                            batch_analysis=batch_on)
        processor = Processor("p0", power=1.0)
        threads = [LogicalThread(f"t{t}", lambda: iter(()))
                   for t in range(THREADS)]
        priorities = {thread.name: 0 for thread in threads}
        elapsed = 0.0
        now = 0.0
        for index in range(slices):
            regions = [
                AnnotationRegion(
                    thread, processor, 10.0,
                    {f"r{i}": 1 + (index + t + i) % 4
                     for i in range(resource_count)}, now)
                for t, thread in enumerate(threads)
            ]
            now += 10.0
            scheduler.collect(now, regions)
            t0 = time.perf_counter()
            scheduler.analyze(priorities)
            elapsed += time.perf_counter() - t0
        checksum = sum(r.total_penalty for r in resources)
        return elapsed, checksum

    scalar_best = batch_best = None
    scalar_sum = batch_sum = 0.0
    for _ in range(repeats):
        # Alternate sides so both see the same stretch of machine time.
        scalar_elapsed, scalar_sum = run_side(False)
        batch_elapsed, batch_sum = run_side(True)
        if scalar_best is None or scalar_elapsed < scalar_best:
            scalar_best = scalar_elapsed
        if batch_best is None or batch_elapsed < batch_best:
            batch_best = batch_elapsed
    return {
        "resources": resource_count,
        "threads": THREADS,
        "slices": slices,
        "numpy": numpy_available(),
        "penalties_match": scalar_sum == batch_sum,
        "scalar_slices_per_sec": round(slices / scalar_best, 1),
        "batch_slices_per_sec": round(slices / batch_best, 1),
        "ratio_batch_over_scalar": round(scalar_best / batch_best, 4),
    }


def calibration_grid(quick: bool = False) -> Dict[str, Any]:
    """Scalar loop vs one ``analyze_batch`` over a calibration grid.

    The grid mirrors :func:`repro.contention.calibrate.calibrate_model`
    demand construction (symmetric uniform streams) swept across thread
    counts and access densities — the model-evaluation half of a
    calibration sweep, with the cycle-engine half removed so the ratio
    isolates the batch layer.
    """
    from ..contention.base import SliceDemand
    from ..contention.batch import SliceDemandBatch, numpy_available
    from ..contention.chenlin import ChenLinModel

    # Same grid in quick and full mode (it is cheap either way) — the
    # gated ratio moves with grid size, so quick CI runs must measure
    # the same shape the committed baseline was recorded at.
    model = ChenLinModel()
    thread_counts = (2, 4, 8)
    points_per_count = 512
    repeats = 2 if quick else 3
    service_time = 4.0
    demands = []
    for threads in thread_counts:
        for step in range(points_per_count):
            accesses = 10.0 + step * 490.0 / points_per_count
            span = 5_000.0 + accesses * service_time
            demands.append(SliceDemand(
                start=0.0, end=span, service_time=service_time,
                demands={f"u{i}": accesses for i in range(threads)}))
    batch = SliceDemandBatch(demands)
    scalar_best = batch_best = None
    scalar_maps = batch_maps = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar_maps = [model.penalties(demand) for demand in demands]
        scalar_elapsed = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch_maps = model.analyze_batch(batch)
        batch_elapsed = time.perf_counter() - t0
        if scalar_best is None or scalar_elapsed < scalar_best:
            scalar_best = scalar_elapsed
        if batch_best is None or batch_elapsed < batch_best:
            batch_best = batch_elapsed
    return {
        "cells": len(demands),
        "thread_counts": list(thread_counts),
        "numpy": numpy_available(),
        "results_match": batch_maps == scalar_maps,
        "scalar_cells_per_sec": round(len(demands) / scalar_best, 1),
        "batched_cells_per_sec": round(len(demands) / batch_best, 1),
        "ratio_batch_over_scalar": round(scalar_best / batch_best, 4),
    }


def cycle_engine(quick: bool = False) -> Dict[str, Any]:
    """Simulated cycles/second of the stepped reference engine."""
    from ..cycle import SteppedEngine
    from ..workloads.fft import fft_workload

    points = 256 if quick else 1024
    workload = fft_workload(points=points, processors=2, cache_kb=8)
    start = time.perf_counter()
    result = SteppedEngine(workload).run()
    elapsed = time.perf_counter() - start
    return {
        "points": points,
        "cycles": result.cycles_executed,
        "cycles_per_sec": round(result.cycles_executed / elapsed, 1),
    }


def sweep_cell(quick: bool = False) -> Dict[str, Any]:
    """Sweep-cell throughput: hybrid FFT runs per second."""
    from ..workloads.fft import fft_workload
    from ..workloads.to_mesh import run_hybrid

    points = 256 if quick else 1024
    cells = 2 if quick else 8
    workload = fft_workload(points=points, processors=2, cache_kb=8)
    start = time.perf_counter()
    for _ in range(cells):
        run_hybrid(workload)
    elapsed = time.perf_counter() - start
    return {
        "points": points,
        "cells": cells,
        "cells_per_sec": round(cells / elapsed, 2),
    }


def sweep_fabric(quick: bool = False) -> Dict[str, Any]:
    """Sharded-sweep fabric: cold sweep vs warm resume replay.

    Runs the calibration grid through
    :func:`~repro.sweepfabric.supervisor.run_sharded_sweep` twice
    against one store: the cold pass computes and stores every cell,
    the resume pass must replay everything.  The replay ratio is
    reported but not gated — it measures store I/O against simulation
    cost, which shifts legitimately as either side gets faster.
    """
    import shutil
    import tempfile

    from ..contention.calibrate import calibration_specs
    from ..scenario.store import RunStore
    from ..sweepfabric import run_sharded_sweep

    sweep = (10, 100, 240) if quick else (10, 60, 160, 320)
    specs = calibration_specs(access_sweep=sweep)
    root = tempfile.mkdtemp(prefix="repro-sweep-fabric-")
    try:
        store = RunStore(root)
        start = time.perf_counter()
        cold = run_sharded_sweep(specs, store, shards=2, jobs=1)
        cold_elapsed = time.perf_counter() - start
        store = RunStore(root)  # fresh counters for the resume pass
        start = time.perf_counter()
        warm = run_sharded_sweep(specs, store, shards=2, jobs=1,
                                 resume=True)
        warm_elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "cells": len(specs),
        "cold_recomputed_runs":
            cold.counters["estimator_runs_recomputed"],
        "warm_recomputed_runs":
            warm.counters["estimator_runs_recomputed"],
        "cold_cells_per_sec": round(len(specs) / cold_elapsed, 2),
        "warm_cells_per_sec": round(len(specs) / warm_elapsed, 2),
        "ratio_cold_over_warm": round(cold_elapsed / warm_elapsed, 2),
    }


SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "commit_throughput": commit_throughput,
    "commit_throughput_soa": commit_throughput_soa,
    "slice_analysis": slice_analysis,
    "slice_analysis_batch": slice_analysis_batch,
    "calibration_grid": calibration_grid,
    "cycle_engine": cycle_engine,
    "sweep_cell": sweep_cell,
    "sweep_fabric": sweep_fabric,
}

#: Metrics the CI regression gate watches by default.  Only ratios are
#: gated: absolute throughputs vary with the runner hardware, while a
#: ratio of two code paths measured on the same machine in the same
#: process is stable enough to alarm on.
GATE_METRICS: List[str] = [
    "commit_throughput.ratio_incremental_over_rescan",
    "commit_throughput_soa.ratio_soa_over_object",
    "slice_analysis_batch.ratio_batch_over_scalar",
    "calibration_grid.ratio_batch_over_scalar",
]

# Runner executed (with a foreign src on sys.path) for --compare-src.
# Uses only API surface that exists in pre-optimization checkouts.
_REFERENCE_RUNNER = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.core.kernel import HybridKernel
from repro.core.resource import Processor
from repro.core.shared import SharedResource
from repro.core.thread import LogicalThread
from repro.core.events import consume
from repro.contention.constant import ConstantModel

per_thread = int(sys.argv[2])
repeats = int(sys.argv[3])

def build():
    procs = [Processor(f"p{i}", power=1.0) for i in range(4)]
    res = [SharedResource("bus", ConstantModel(0.5), service_time=2.0),
           SharedResource("mem", ConstantModel(0.25), service_time=3.0)]
    k = HybridKernel(procs, res)
    for t in range(8):
        def body(t=t):
            for i in range(per_thread):
                yield consume(100 + (t * 13 + i * 7) % 50,
                              {"bus": 5 + (i + t) % 4, "mem": 3 + i % 3})
        k.add_thread(LogicalThread(f"t{t}", body))
    return k

build().run()  # warm caches
best = None
for _ in range(repeats):
    k = build()
    t0 = time.perf_counter(); k.run(); dt = time.perf_counter() - t0
    best = dt if best is None or dt < best else best
print(8 * per_thread / best)
"""


def _runner_throughput(src: str, per_thread: int, repeats: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _REFERENCE_RUNNER, str(src),
         str(per_thread), str(repeats)],
        capture_output=True, text=True, check=True)
    return float(proc.stdout.strip())


def compare_reference(src: str, quick: bool = False,
                      pairs: int = 3) -> Dict[str, Any]:
    """Commit-throughput speedup of this tree over another source tree.

    Reference and current runs alternate in fresh subprocesses (each
    reporting its best of three in-process repetitions), and the
    speedup is taken between the per-side medians — pairing both sides
    across the same stretch of machine time instead of benchmarking
    them back to back.
    """
    here = str(pathlib.Path(__file__).resolve().parents[2])
    per_thread = QUICK_REGIONS_PER_THREAD if quick else REGIONS_PER_THREAD
    inner = 1 if quick else 3
    pairs = 1 if quick else pairs
    reference_rates: List[float] = []
    current_rates: List[float] = []
    for _ in range(pairs):
        reference_rates.append(
            _runner_throughput(src, per_thread, inner))
        current_rates.append(
            _runner_throughput(here, per_thread, inner))
    reference = statistics.median(reference_rates)
    current = statistics.median(current_rates)
    return {
        "src": str(src),
        "pairs": pairs,
        "regions_per_sec": round(reference, 1),
        "current_regions_per_sec": round(current, 1),
        "speedup": round(current / reference, 4),
    }


def run_profile(scenarios: Optional[Sequence[str]] = None,
                quick: bool = False,
                compare_src: Optional[str] = None,
                out_dir: Optional[pathlib.Path] = None,
                record: bool = True) -> Dict[str, Any]:
    """Run the selected scenarios; optionally record BENCH_hotpath.json."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; choose from "
            f"{sorted(SCENARIOS)}")
    payload: Dict[str, Any] = {"quick": quick, "scenarios": {}}
    for name in names:
        payload["scenarios"][name] = SCENARIOS[name](quick=quick)
    if compare_src is not None and "commit_throughput" in names:
        payload["scenarios"]["commit_throughput"]["vs_reference"] = (
            compare_reference(compare_src, quick=quick))
    payload["gate_metrics"] = [
        metric for metric in GATE_METRICS
        if metric.split(".", 1)[0] in payload["scenarios"]]
    if record:
        path = record_bench("hotpath", payload, out_dir=out_dir)
        payload["recorded_to"] = str(path)
    return payload


def _render(payload: Dict[str, Any]) -> str:
    lines = []
    for name, metrics in payload["scenarios"].items():
        parts = ", ".join(f"{key}={value}"
                          for key, value in metrics.items()
                          if not isinstance(value, dict))
        lines.append(f"{name}: {parts}")
        reference = metrics.get("vs_reference")
        if reference:
            lines.append(
                f"  vs reference {reference['src']}: "
                f"{reference['regions_per_sec']}/s "
                f"-> speedup {reference['speedup']}x")
    if "recorded_to" in payload:
        lines.append(f"recorded: {payload['recorded_to']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.profile",
        description="Kernel hot-path benchmark harness")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads, single repetition "
                             "(CI smoke)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=sorted(SCENARIOS), metavar="NAME",
                        help="run only the named scenario "
                             "(repeatable; default: all)")
    parser.add_argument("--cprofile", action="store_true",
                        help="print a cProfile breakdown of the "
                             "commit-throughput workload instead of "
                             "recording benchmarks")
    parser.add_argument("--compare-src", metavar="PATH",
                        help="also time another source tree's kernel on "
                             "the same workload (pre-PR comparison)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default benchmarks/out)")
    parser.add_argument("--no-record", action="store_true",
                        help="print metrics without writing "
                             "BENCH_hotpath.json")
    args = parser.parse_args(argv)

    if args.cprofile:
        per_thread = (QUICK_REGIONS_PER_THREAD if args.quick
                      else REGIONS_PER_THREAD)
        kernel = _dense_kernel(per_thread)
        profiler = cProfile.Profile()
        profiler.enable()
        kernel.run()
        profiler.disable()
        pstats.Stats(profiler).sort_stats("tottime").print_stats(25)
        return 0

    out_dir = pathlib.Path(args.out) if args.out else None
    payload = run_profile(scenarios=args.scenarios, quick=args.quick,
                          compare_src=args.compare_src, out_dir=out_dir,
                          record=not args.no_record)
    print(_render(payload))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
