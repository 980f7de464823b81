"""Perf bench: parallel sweep speedup.

Every run records structured JSON (``benchmarks/out/BENCH_*.json``) of
the parallel executor's speedup, alongside the equivalence check that
makes the number trustworthy — parallel sweeps must be bit-identical
to serial ones.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job does) to shrink the
workloads to seconds while keeping every assertion active.  The >= 2x
speedup assertion is gated on actually having >= 4 CPUs — the numbers
are recorded regardless, so single-core CI still produces a trajectory
point.
"""

import os
import time

from repro.contention import ChenLinModel
from repro.experiments.sweep import run_sweep
from repro.perf import record_bench
from repro.workloads.synthetic import uniform_workload

from _bench_helpers import publish

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Sweep grid: len(xs) * len(seeds) cells (>= 8 in both modes).
_XS = (6, 12, 18, 24) if SMOKE else (10, 20, 30, 40)
_SEEDS = (1, 2) if SMOKE else (1, 2, 3)
_WORK = 400.0 if SMOKE else 4_000.0
_JOBS = 4


def _sweep_workload(x, seed):
    """One sweep cell's workload (module-level: must pickle)."""
    return uniform_workload(threads=2, phases=3, work=_WORK,
                            accesses=int(x), bus_service=2.0, seed=seed)


def test_parallel_sweep_speedup(benchmark):
    def measure():
        timings = {}
        points = {}
        for jobs in (1, _JOBS):
            start = time.perf_counter()
            points[jobs] = run_sweep(_sweep_workload, xs=_XS,
                                     seeds=_SEEDS,
                                     model=ChenLinModel(),
                                     include=("iss", "mesh"),
                                     jobs=jobs)
            timings[jobs] = time.perf_counter() - start
        return timings, points

    timings, points = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = timings[1] / timings[_JOBS] if timings[_JOBS] > 0 else 0.0
    cells = len(_XS) * len(_SEEDS)
    record_bench("parallel", {
        "cells": cells,
        "jobs": _JOBS,
        "smoke": SMOKE,
        "serial_seconds": timings[1],
        "parallel_seconds": timings[_JOBS],
        "speedup": speedup,
    })
    publish("bench_parallel",
            f"parallel sweep: {cells} cells, jobs={_JOBS}, "
            f"serial {timings[1]:.2f}s vs parallel "
            f"{timings[_JOBS]:.2f}s -> {speedup:.2f}x "
            f"(cpus={os.cpu_count()})")

    # Equivalence is unconditional: the pool must not change results.
    assert points[1] == points[_JOBS]
    assert cells >= 8
    # The speedup claim needs actual cores behind the workers.
    if (os.cpu_count() or 1) >= _JOBS:
        assert speedup >= 2.0, (
            f"expected >= 2x with {_JOBS} workers on "
            f"{os.cpu_count()} CPUs, measured {speedup:.2f}x")
