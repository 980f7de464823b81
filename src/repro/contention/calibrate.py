"""Calibration of analytical models against cycle-accurate ground truth.

A contention model is only as good as its fit to the arbiter it
abstracts.  This module automates the fitting loop used to tune the
shipped models: generate symmetric uniform workloads across a utilization
sweep, measure the *actual* mean per-access wait with the cycle-accurate
engine, evaluate the model on the same demand, and report both.

Use it to validate a custom :class:`~repro.contention.base.
ContentionModel` before trusting hybrid simulations built on it::

    from repro.contention.calibrate import calibrate_model
    points = calibrate_model(MyModel(), threads=4, service_time=4)
    worst = max(p.relative_error for p in points if p.measured_wait > 0.1)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

from ..cycle import EventEngine
from ..workloads.synthetic import uniform_workload
from .base import ContentionModel, SliceDemand
from .batch import SliceDemandBatch

DEFAULT_ACCESS_SWEEP = (10, 30, 60, 100, 160, 240, 320, 420)


@dataclass(frozen=True)
class CalibrationPoint:
    """Model-vs-measured waiting time at one utilization level."""

    #: Per-thread offered utilization (a * s / busy span).
    rho_per_thread: float
    #: Combined offered utilization of all threads.
    rho_total: float
    #: Mean per-access wait measured by the cycle-accurate engine.
    measured_wait: float
    #: Mean per-access wait the model predicts for the same demand.
    model_wait: float

    @property
    def relative_error(self) -> float:
        """|model - measured| / measured (inf when measured is ~0)."""
        if self.measured_wait <= 1e-9:
            return 0.0 if self.model_wait <= 1e-9 else float("inf")
        return abs(self.model_wait - self.measured_wait) / (
            self.measured_wait)


def _measure_cell(threads: int, service_time: float, phase_work: float,
                  phases: int, arbiter: str, seed: int,
                  accesses: int) -> float:
    """Cycle-accurate mean per-access wait for one sweep candidate.

    Pure measurement, no model involved — so it parallelizes without
    shipping (possibly stateful, possibly unpicklable) model objects to
    worker processes.
    """
    workload = uniform_workload(threads=threads, phases=phases,
                                work=phase_work, accesses=accesses,
                                bus_service=service_time, seed=seed)
    result = EventEngine(workload, arbiter=arbiter).run()
    total_accesses = sum(t.accesses for t in result.threads.values())
    return (result.queueing_cycles / total_accesses
            if total_accesses else 0.0)


def calibration_specs(threads: int = 2,
                      service_time: float = 4.0,
                      phase_work: float = 5_000.0,
                      access_sweep: Sequence[int] = DEFAULT_ACCESS_SWEEP,
                      phases: int = 6,
                      seed: int = 3) -> List:
    """The calibration sweep as content-addressed scenario specs.

    One :class:`~repro.scenario.spec.ScenarioSpec` per utilization
    point, mirroring the ``uniform_workload`` cells
    :func:`calibrate_model` measures — so a sharded sweep (``repro
    sweep --grid calibration``) can evaluate and cache the same grid
    through the run store.  Defaults match :func:`calibrate_model`.
    """
    from ..scenario.spec import ScenarioSpec

    if threads < 2:
        raise ValueError("calibration needs >= 2 contending threads")
    return [
        ScenarioSpec(generator="uniform",
                     params={"threads": threads, "phases": phases,
                             "work": phase_work, "accesses": accesses,
                             "bus_service": service_time, "seed": seed})
        for accesses in access_sweep
    ]


def calibrate_model(model: ContentionModel,
                    threads: int = 2,
                    service_time: float = 4.0,
                    phase_work: float = 5_000.0,
                    access_sweep: Sequence[int] = DEFAULT_ACCESS_SWEEP,
                    phases: int = 6,
                    arbiter: str = "fifo",
                    seed: int = 3,
                    jobs: int = 1,
                    store=None,
                    batch_cells: int = 0,
                    program_store=None) -> List[CalibrationPoint]:
    """Sweep utilization and compare ``model`` to the cycle engine.

    Each sweep point builds a symmetric workload of ``threads`` uniform
    streams (random access placement), measures ground-truth mean wait,
    and evaluates the model on the matching aggregate demand.

    The cycle-engine measurements are independent cell-by-cell;
    ``jobs > 1`` spreads them over a process pool (``0`` = one worker
    per CPU).  The model itself is evaluated in the *caller's* process,
    over the whole sweep in one ``analyze_batch`` call — so stateful
    wrappers (e.g. a ``GuardedModel`` health report) see every
    evaluation regardless of ``jobs``, and the closed-form models take
    their vectorized fast path across the grid.

    With a ``store`` (a :class:`~repro.scenario.store.RunStore` or root
    path) and non-zero ``batch_cells``, the matching
    :func:`calibration_specs` grid is warmed through the mesh prepass
    first — cold cells compile-or-load from the content-addressed
    ``program_store`` and replay into the run store — so a subsequent
    ``repro sweep --grid calibration`` (or any spec-driven evaluation
    of the same grid) starts warm.  Purely an
    execution choice: the calibration points themselves are measured by
    the cycle engine either way and are unaffected.
    """
    if threads < 2:
        raise ValueError("calibration needs >= 2 contending threads")
    from ..perf.parallel import ParallelExecutor

    if store is not None and batch_cells:
        from ..experiments.runner import batched_mesh_prepass

        batched_mesh_prepass(
            calibration_specs(threads=threads, service_time=service_time,
                              phase_work=phase_work,
                              access_sweep=access_sweep, phases=phases,
                              seed=seed),
            store, program_store=program_store)

    sweep = list(access_sweep)
    with ParallelExecutor(jobs) as executor:
        measured_waits = executor.run(
            functools.partial(_measure_cell, threads, service_time,
                              phase_work, phases, arbiter, seed),
            sweep)
    demands = [
        SliceDemand(
            start=0.0, end=phase_work + accesses * service_time,
            service_time=service_time,
            demands={f"u{i}": float(accesses) for i in range(threads)},
        )
        for accesses in sweep
    ]
    penalty_maps = model.analyze_batch(SliceDemandBatch(demands))
    points: List[CalibrationPoint] = []
    for accesses, measured, demand, penalties in zip(
            sweep, measured_waits, demands, penalty_maps):
        predicted_total = sum(penalties.values())
        predicted = predicted_total / (threads * accesses)
        span = demand.end
        rho = accesses * service_time / span
        points.append(CalibrationPoint(
            rho_per_thread=rho, rho_total=threads * rho,
            measured_wait=measured, model_wait=predicted))
    return points


def max_relative_error(points: Sequence[CalibrationPoint],
                       min_wait: float = 0.1) -> float:
    """Worst relative error over points with non-negligible waiting."""
    errors = [p.relative_error for p in points
              if p.measured_wait >= min_wait]
    return max(errors) if errors else 0.0


def render_calibration(model: ContentionModel,
                       points: Sequence[CalibrationPoint]) -> str:
    """Human-readable calibration table."""
    from ..experiments.report import format_table

    rows = [[f"{p.rho_per_thread:.3f}", f"{p.rho_total:.2f}",
             f"{p.measured_wait:.3f}", f"{p.model_wait:.3f}",
             f"{100 * p.relative_error:.1f}%"]
            for p in points]
    return format_table(
        ["rho/thread", "rho total", "measured W", "model W", "error"],
        rows, title=f"Calibration of {model!r} vs cycle-accurate FIFO bus")
