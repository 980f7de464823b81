"""One execution path for every front end: the ExecutionSession facade.

:class:`ExecutionSession` owns the store-probe -> run -> store-commit
sequence that ``run_comparison`` (per cell), the sweep supervisor (per
shard) and the service (per request) all need, and everything it uses:

* the content-addressed :class:`~repro.scenario.store.RunStore`;
* one persistent warm :class:`~repro.perf.parallel.ParallelExecutor`
  pool, reused across :meth:`map_comparisons` calls instead of being
  respawned per batch;
* thread-safe counters (comparisons evaluated, estimator runs computed
  vs replayed, workload builds) that a long-running service exposes on
  its ``/v1/stats`` endpoint.

:meth:`comparison` is the only way a front end computes a cold cell:
one workload build, one lowering to cycle programs and one
characterization, shared by the ISS (:class:`~repro.cycle.EventEngine`),
the hybrid kernel on its object engine and the analytical estimator.

:meth:`prepass` — compile each cold cell of a spec grid
(:func:`~repro.core.compile.compile_kernel`), replay it
(:func:`~repro.core.programstore.replay_batch`) and commit the ``mesh``
payload — is run by no front end: it builds, lowers and characterizes
each cell a second time, so it is slower than the per-cell pass it
would warm.  It stays callable for the SoA equivalence tests and the
benchmark tracer, which wrap it by name.

Contracts:

* store payloads are byte-identical whichever path computed them
  (``wall_seconds`` is an environment measurement, everything else is
  physics);
* a comparison whose every requested estimator hits the store performs
  **zero workload builds**.

:func:`repro.experiments.runner.run_comparison` and
:func:`~repro.experiments.runner.run_comparisons_parallel` are thin
wrappers over an (ephemeral) session, the sweep supervisor holds one
for probe/dispatch, and the service holds one for its whole lifetime.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analytical import characterize, estimate_queueing
from ..contention.base import ContentionModel
from ..core.errors import ConfigurationError
from ..cycle import EventEngine
from ..cycle.program import lower_workload
from ..perf.parallel import CellResult, ParallelExecutor
from ..workloads.to_mesh import build_kernel as build_mesh_kernel
from ..workloads.to_mesh import run_hybrid
from ..workloads.trace import Workload

ESTIMATORS = ("iss", "mesh", "analytical")


def percent_error(value: float, reference: float) -> float:
    """Absolute percent error of ``value`` against ``reference``.

    Returns 0 when both are (near) zero and ``inf`` when only the
    reference is zero, so error aggregation never divides by zero.
    Aggregate with :func:`~repro.experiments.runner.finite_mean` so a
    single infinite point does not poison a reported average.
    """
    if abs(reference) < 1e-9:
        return 0.0 if abs(value) < 1e-9 else float("inf")
    return 100.0 * abs(value - reference) / abs(reference)


@dataclass(frozen=True)
class EstimatorRun:
    """One estimator's outcome on one workload."""

    estimator: str
    queueing_cycles: float
    percent_queueing: float
    wall_seconds: float
    #: Engine-specific result object (CycleResult / SimulationResult /
    #: WholeRunEstimate) for deeper inspection; a plain payload mapping
    #: when the run was replayed from a store.
    detail: object = field(repr=False, default=None)
    #: Whether this run was replayed from a
    #: :class:`~repro.scenario.store.RunStore` instead of simulated.
    #: Excluded from equality: a cached replay reports the same physics.
    cached: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Comparison:
    """All estimators on one workload, with errors vs ground truth."""

    runs: Dict[str, EstimatorRun]
    #: Content hash of the scenario spec this comparison evaluated
    #: (``None`` for legacy workload-object comparisons).
    spec_hash: Optional[str] = None

    def queueing(self, estimator: str) -> float:
        """Queueing cycles reported by one estimator."""
        return self.runs[estimator].queueing_cycles

    def error(self, estimator: str, reference: str = "iss") -> float:
        """Percent error of ``estimator`` against ``reference``."""
        return percent_error(self.queueing(estimator),
                             self.queueing(reference))

    def speedup(self, fast: str = "mesh", slow: str = "iss") -> float:
        """Wall-clock ratio ``slow / fast``."""
        fast_time = self.runs[fast].wall_seconds
        if fast_time <= 0:
            return float("inf")
        return self.runs[slow].wall_seconds / fast_time

    @property
    def cached_runs(self) -> int:
        """Number of estimator runs replayed from the run store."""
        return sum(1 for run in self.runs.values() if run.cached)


def _detail_payload(estimator: str, result) -> Optional[Dict]:
    """Flatten an engine result for storage (best effort, may be None)."""
    try:
        if estimator == "mesh":
            from ..core.export import result_to_dict

            return result_to_dict(result)
        if estimator == "iss":
            from ..core.export import cycle_result_to_dict

            return cycle_result_to_dict(result)
    except Exception:  # storage detail is optional, never fatal
        return None
    return None


def _comparison_cell(kwargs: Dict, workload) -> Comparison:
    """One batch cell: evaluate a single scenario's comparison.

    Module-level so worker pools can import it.  On the serial
    in-process path the parent session rides along under the
    ``"session"`` key, so its counters (workload builds included)
    count exactly; worker *processes* get an ephemeral session
    (sharing only the on-disk stores) instead, and the parent
    accumulates from the returned comparisons, never from worker-side
    state.
    """
    kwargs = dict(kwargs)
    session = kwargs.pop("session", None)
    store = kwargs.pop("store", None)
    if session is None:
        session = ExecutionSession(store=store)
    return session.comparison(workload, **kwargs)


class ExecutionSession:
    """The single execution path for scenario comparisons.

    Parameters
    ----------
    store:
        Optional :class:`~repro.scenario.store.RunStore` (or its root
        path).  The session probes it before running anything and
        commits every computed estimator payload back.
    jobs:
        Worker count of the session's persistent warm pool
        (``0`` = one per CPU, ``1`` = serial in-process).  The pool is
        spawned lazily on the first parallel :meth:`map_comparisons`
        and stays warm until :meth:`close`.
    """

    def __init__(self, store=None, jobs: int = 1):
        from ..scenario.store import as_store

        self.store = as_store(store)
        self.jobs = jobs
        self._executor: Optional[ParallelExecutor] = None
        self._lock = threading.Lock()
        #: Comparisons evaluated through this session (in-process).
        self.comparisons = 0
        #: Estimator runs actually computed (kernel/engine executions).
        self.estimator_runs_computed = 0
        #: Estimator runs replayed from the run store.
        self.estimator_runs_cached = 0
        #: Workload IR materializations (zero on full store hits).
        self.workload_builds = 0

    # -- lifecycle ----------------------------------------------------

    @property
    def executor(self) -> ParallelExecutor:
        """The session's persistent warm pool (created on first use)."""
        with self._lock:
            if self._executor is None:
                self._executor = ParallelExecutor(self.jobs)
            return self._executor

    def close(self) -> None:
        """Shut down the warm worker pool (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- counters -----------------------------------------------------

    def _count(self, **deltas) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def _absorb(self, comparison: Comparison) -> None:
        """Fold a worker-evaluated comparison into the counters."""
        cached = comparison.cached_runs
        computed = len(comparison.runs) - cached
        self._count(comparisons=1, estimator_runs_cached=cached,
                    estimator_runs_computed=computed)

    def stats(self) -> Dict[str, object]:
        """Snapshot of session, store, and pool counters (thread-safe)."""
        with self._lock:
            snapshot: Dict[str, object] = {
                "comparisons": self.comparisons,
                "estimator_runs_computed": self.estimator_runs_computed,
                "estimator_runs_cached": self.estimator_runs_cached,
                "workload_builds": self.workload_builds,
                "pool": {"jobs": self.jobs,
                         "warm": self._executor is not None},
            }
        snapshot["store"] = (self.store.stats()
                             if self.store is not None else None)
        return snapshot

    # -- the store probe ----------------------------------------------

    def probe(self, spec_hash: str,
              include: Sequence[str] = ESTIMATORS
              ) -> Optional[Dict[str, Dict]]:
        """All-or-nothing store probe for one spec's estimator payloads.

        Returns ``{estimator: payload}`` when **every** requested
        estimator artifact is present (counting store hits), else
        ``None``.  This is the warm path of the sweep supervisor and
        the service: a full hit answers without building anything.
        """
        if self.store is None:
            return None
        payloads = {estimator: self.store.get(spec_hash, estimator)
                    for estimator in include}
        if any(payload is None for payload in payloads.values()):
            return None
        return payloads

    # -- the per-cell sequence ----------------------------------------

    def comparison(self, workload,
                   model: Optional[ContentionModel] = None,
                   min_timeslice: float = 0.0,
                   annotation: str = "phase",
                   include: Sequence[str] = ESTIMATORS,
                   fault_plan=None,
                   budget=None) -> Comparison:
        """Evaluate a workload or scenario spec with every estimator.

        The canonical per-cell sequence (see
        :func:`~repro.experiments.runner.run_comparison` for the full
        parameter documentation): probe the session's run store per
        estimator, run the misses — the ISS on the
        :class:`~repro.cycle.EventEngine`, the hybrid kernel on its
        object engine — and commit each computed payload back to the
        store.
        """
        spec = None
        if not isinstance(workload, Workload):
            from ..scenario.spec import ScenarioSpec

            if not isinstance(workload, ScenarioSpec):
                raise TypeError(
                    f"expected a Workload or ScenarioSpec, "
                    f"got {type(workload).__name__}"
                )
            spec = workload
            for name, value, default in (
                    ("model", model, None),
                    ("fault_plan", fault_plan, None),
                    ("budget", budget, None),
                    ("min_timeslice", min_timeslice, 0.0),
                    ("annotation", annotation, "phase")):
                if value != default:
                    raise ConfigurationError(
                        f"pass {name!r} inside the scenario spec, not "
                        f"alongside it — the spec is the scenario's "
                        f"identity"
                    )
            model = spec.build_model()
            min_timeslice = spec.min_timeslice
            annotation = spec.annotation
            fault_plan = spec.build_fault_plan()
            budget = spec.build_budget()
        store = self.store if spec is not None else None
        spec_hash = spec.spec_hash() if spec is not None else None

        # The workload, its one lowering to cycle programs and its
        # characterization profiles are built lazily and shared by
        # every estimator of the cell: a comparison whose every
        # estimator hits the store finishes with zero workload builds
        # and zero kernel runs.  All of it is dropped with the cell.
        state: Dict[str, object] = {}

        def get_workload() -> Workload:
            if "workload" not in state:
                state["workload"] = (spec.build_workload()
                                     if spec is not None else workload)
                self._count(workload_builds=1)
            return state["workload"]

        def get_programs():
            if "programs" not in state:
                state["programs"] = lower_workload(get_workload())
            return state["programs"]

        def get_profiles():
            if "profiles" not in state:
                # One busy-time basis for every estimator's percentage:
                # the characterized zero-contention execution cycles
                # (excluding idle), identical to the cycle engines'
                # compute+service total.  The profiles are shared with
                # the whole-run analytical estimator below.
                state["profiles"] = characterize(get_workload(),
                                                 get_programs())
            return state["profiles"]

        def as_percent(queueing: float) -> float:
            busy_reference = sum(p.busy_cycles
                                 for p in get_profiles().values())
            if busy_reference <= 0:
                return 0.0
            return 100.0 * queueing / busy_reference

        runs: Dict[str, EstimatorRun] = {}
        computed = cached = 0
        for estimator in include:
            if store is not None:
                payload = store.get(spec_hash, estimator)
                if payload is not None:
                    runs[estimator] = EstimatorRun(
                        estimator=estimator,
                        queueing_cycles=payload["queueing_cycles"],
                        percent_queueing=payload["percent_queueing"],
                        wall_seconds=payload.get("wall_seconds", 0.0),
                        detail=payload.get("detail"),
                        cached=True)
                    cached += 1
                    continue
            if estimator == "iss":
                start = time.perf_counter()
                result = EventEngine(get_workload(), budget=budget,
                                     programs=get_programs()).run()
                elapsed = time.perf_counter() - start
                queueing = float(result.queueing_cycles)
            elif estimator == "mesh":
                start = time.perf_counter()
                if spec is not None and spec.kind == "workload":
                    result = build_mesh_kernel(
                        get_workload(), **spec.kernel_kwargs()).run()
                elif spec is not None:
                    result = spec.run()
                else:
                    result = run_hybrid(get_workload(), model=model,
                                        min_timeslice=min_timeslice,
                                        annotation=annotation,
                                        fault_plan=fault_plan,
                                        budget=budget)
                elapsed = time.perf_counter() - start
                queueing = result.queueing_cycles
            elif estimator == "analytical":
                start = time.perf_counter()
                result = estimate_queueing(get_workload(), model=model,
                                           models=(spec.build_models()
                                                   if spec is not None
                                                   else None),
                                           profiles=get_profiles())
                elapsed = time.perf_counter() - start
                queueing = result.queueing_cycles
            else:
                raise ValueError(f"unknown estimator {estimator!r}; "
                                 f"choose from {ESTIMATORS}")
            run = EstimatorRun(
                estimator=estimator,
                queueing_cycles=queueing,
                percent_queueing=as_percent(queueing),
                wall_seconds=elapsed, detail=result)
            runs[estimator] = run
            computed += 1
            if store is not None:
                store.put(spec_hash, estimator, {
                    "spec_hash": spec_hash,
                    "estimator": estimator,
                    "queueing_cycles": run.queueing_cycles,
                    "percent_queueing": run.percent_queueing,
                    "wall_seconds": run.wall_seconds,
                    "detail": _detail_payload(estimator, result),
                })
        self._count(comparisons=1, estimator_runs_computed=computed,
                    estimator_runs_cached=cached)
        return Comparison(runs=runs, spec_hash=spec_hash)

    # -- the grid-granularity sequence --------------------------------

    def prepass(self, specs: Sequence) -> Dict[str, object]:
        """Warm the run store's ``mesh`` artifacts from compiled programs.

        No front end calls this: :meth:`map_comparisons` computes every
        cold cell through :meth:`comparison`, which is faster because
        the prepass builds, lowers and characterizes each cell once
        more.  It stays as the SoA replay's end-to-end entry point for
        its equivalence tests and the benchmark tracer.

        Each cold cell inside the SoA compiled subset is built,
        compiled, characterized, replayed and committed, in
        deterministic ``spec_hash``-sorted order, with exactly the
        payload :meth:`comparison` would have written (only
        ``wall_seconds``, an environment measurement, differs).  A cell
        the compiler refuses (:func:`~repro.core.compile.
        soa_spec_fallback_reason` on the spec, or
        :class:`~repro.core.errors.UnsupportedFeatureError` from the
        kernel) counts in ``cells_skipped`` and stays cold, and a cell
        whose replay raises stays cold too.  Non-spec and
        non-``workload``-kind entries are ignored; duplicates collapse
        by ``spec_hash``.

        Returns a counter mapping: ``cells_total`` (unique eligible
        specs), ``cells_cold``, ``cells_batched`` (warmed),
        ``cells_skipped``, ``compiles`` and ``wall_seconds``.
        """
        from ..core.compile import compile_kernel, soa_spec_fallback_reason
        from ..core.errors import UnsupportedFeatureError
        from ..core.programstore import replay_batch
        from ..scenario.spec import ScenarioSpec

        counters: Dict[str, object] = {
            "cells_total": 0, "cells_cold": 0, "cells_batched": 0,
            "cells_skipped": 0, "compiles": 0, "wall_seconds": 0.0}
        store = self.store
        if store is None:
            return counters
        start = time.perf_counter()
        unique: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            if isinstance(spec, ScenarioSpec) and spec.kind == "workload":
                unique.setdefault(spec.spec_hash(), spec)
        ordered = sorted(unique.items())
        counters["cells_total"] = len(ordered)
        for spec_hash, spec in ordered:
            # A present but unreadable artifact is a miss, exactly as
            # on the per-cell path, so the prepass recomputes it.
            if store.get(spec_hash, "mesh") is not None:
                continue
            counters["cells_cold"] += 1
            if soa_spec_fallback_reason(spec) is not None:
                counters["cells_skipped"] += 1
                continue
            workload = spec.build_workload()
            self._count(workload_builds=1)
            kernel = build_mesh_kernel(workload, **spec.kernel_kwargs())
            try:
                program = compile_kernel(kernel)
            except UnsupportedFeatureError:
                counters["cells_skipped"] += 1
                continue
            counters["compiles"] += 1
            busy_reference = sum(
                p.busy_cycles for p in characterize(workload).values())
            cell_start = time.perf_counter()
            try:
                result, = replay_batch([(kernel, program)])
                queueing = result.queueing_cycles
                percent = (100.0 * queueing / busy_reference
                           if busy_reference > 0 else 0.0)
                store.put(spec_hash, "mesh", {
                    "spec_hash": spec_hash,
                    "estimator": "mesh",
                    "queueing_cycles": queueing,
                    "percent_queueing": percent,
                    "wall_seconds": time.perf_counter() - cell_start,
                    "detail": _detail_payload("mesh", result),
                })
            except Exception:
                # Leave this cell cold: the per-cell path reproduces
                # the canonical diagnostic with full error capture.
                continue
            counters["cells_batched"] += 1
        counters["wall_seconds"] = time.perf_counter() - start
        return counters

    # -- the batch sequence -------------------------------------------

    def map_comparisons(self, workloads: Sequence,
                        **kwargs) -> List[CellResult]:
        """Batch :meth:`comparison` over independent scenarios.

        Each entry is one cell on the session's persistent warm pool
        (results in input order, per-cell error capture); ``kwargs``
        are forwarded to :meth:`comparison` verbatim.  Comparisons
        evaluated by worker processes are folded into the session
        counters from their returned payloads.
        """
        items = list(workloads)
        all_specs = items and not any(isinstance(item, Workload)
                                      for item in items)
        cell_kwargs = dict(kwargs)
        cell_kwargs["store"] = self.store
        executor = self.executor
        serial = executor.serial
        if serial:
            # In-process cells count on this session directly — exact
            # counters (workload builds included) for the service.
            cell_kwargs["session"] = self
        fn = functools.partial(_comparison_cell, cell_kwargs)
        if all_specs:
            results = executor.map_specs(fn, items)
        else:
            results = executor.map(fn, items)
        if not serial:
            for result in results:
                if result.ok:
                    self._absorb(result.value)
        return results
