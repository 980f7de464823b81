"""The sweep supervisor: run shards, retry, quarantine, steal, resume.

This is the control loop that turns a grid of
:class:`~repro.scenario.spec.ScenarioSpec` cells plus a
:class:`~repro.scenario.store.RunStore` into a fault-tolerant sweep:

* **The store decides what is done.**  Every cell whose estimator
  artifacts are all present is *replayed* from the store (counted on
  the parent store's hit counters) and never dispatched — which is
  exactly why a killed sweep resumes with zero recomputation of
  completed cells.  The :class:`~repro.sweepfabric.manifest.
  ShardManifest` checkpoint carries what the store cannot: attempt
  history and quarantine state, rewritten atomically on every
  transition.
* **Transient failures retry with backoff.**  A worker that dies
  (``BrokenProcessPool`` after a SIGKILL/OOM) or hangs (per-cell
  timeout, surfaced as a tagged
  :data:`~repro.perf.parallel.TIMEOUT_TAG` failure) marks its shard's
  unfinished cells for another round, after a
  :class:`~repro.robustness.faults.RetryPolicy` backoff with
  deterministic seeded jitter.  Cells that completed before the crash
  are found in the store on the next round and replayed, not re-run.
* **Poison quarantines instead of killing the sweep.**  A shard still
  failing after ``max_retries`` rounds is quarantined: its unresolved
  cells become recorded failures, every other shard's results stand,
  and the sweep returns a partial result with a failure report.
* **Stragglers get stolen.**  A shard that exhausts its per-shard
  wall-clock budget (a :class:`~repro.robustness.budget.RunBudget`,
  the same guardrail the kernel uses) stops retrying locally; its
  leftover cells go to a final work-stealing pass that runs them at
  cell granularity on the shared warm pool.

Every number in the final :class:`SweepResult` is assembled in grid
order from per-estimator payloads that round-trip through JSON
losslessly, so a sharded, killed, resumed, chaos-ridden sweep is
bit-identical to the plain serial loop.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..engine.session import ExecutionSession
from ..experiments.runner import ESTIMATORS, run_comparison
from ..perf.parallel import TIMEOUT_TAG, ParallelExecutor
from ..robustness.budget import RunBudget
from ..robustness.faults import RetryPolicy
from ..scenario.spec import ScenarioSpec
from ..scenario.store import RunStore
from .chaos import ChaosPlan, maybe_kill_worker
from .manifest import ShardManifest
from .plan import ShardPlan

#: Default backoff for transient shard failures: exponential with
#: deterministic seeded jitter so a fleet of retrying shards does not
#: re-synchronize into a thundering herd.
DEFAULT_RETRY = RetryPolicy(kind="exponential", delay=0.1, factor=2.0,
                            cap=2.0, max_retries=3, jitter=0.5)

#: Substrings of cell error strings treated as transient (retryable):
#: a killed worker poisons every in-flight future with
#: ``BrokenProcessPool``, and a hung worker surfaces as a tagged
#: timeout.  Anything else is a deterministic cell failure.
TRANSIENT_MARKERS = ("BrokenProcessPool", TIMEOUT_TAG)


def is_transient(error: Optional[str]) -> bool:
    """Whether a cell error string names a retryable infrastructure
    failure rather than a deterministic in-cell exception."""
    if not error:
        return False
    return any(marker in error for marker in TRANSIENT_MARKERS)


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one grid cell after the sweep converged."""

    #: Grid position of the cell.
    index: int
    spec_hash: str
    #: ``"cache"`` (replayed from the store without dispatch),
    #: ``"computed"`` (dispatched this run), or ``"failed"``.
    source: str
    #: estimator -> payload summary (``queueing_cycles``,
    #: ``percent_queueing``, ``wall_seconds``); empty for failures.
    runs: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    error: Optional[str] = None
    #: Of this cell's estimator runs, how many were replayed from the
    #: store (for ``"cache"`` cells: all of them).
    cached_runs: int = 0
    #: Execution engine the cell's mesh estimator actually used
    #: (``"soa"`` / ``"object"``), ``"cached"`` when the mesh run was
    #: replayed from the store, or ``None`` when mesh was not included.
    mesh_engine: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the cell converged (from cache or computed)."""
        return self.error is None

    def queueing(self, estimator: str) -> float:
        """Queueing cycles one estimator reported for this cell."""
        return self.runs[estimator]["queueing_cycles"]


@dataclass
class SweepResult:
    """Everything a sharded sweep produced, plus its failure report."""

    plan: ShardPlan
    manifest: ShardManifest
    #: One outcome per grid cell, in grid order.
    cells: List[CellOutcome]
    counters: Dict[str, int]
    store_stats: Dict[str, int]
    #: Counters from the mesh prepass (see
    #: :func:`~repro.experiments.runner.batched_mesh_prepass`), or
    #: ``None`` when the prepass did not run.
    prepass: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """Whether every cell converged (no failures, no quarantine)."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[CellOutcome]:
        """The failed cells (empty when the sweep fully converged)."""
        return [cell for cell in self.cells if not cell.ok]

    @property
    def quarantined(self) -> List[str]:
        """Shard ids quarantined as poison this run."""
        return [record.shard_id
                for record in self.manifest.records.values()
                if record.state == "quarantined"]

    def summary(self) -> str:
        """Human-readable sweep report (greppable by the CI gate)."""
        c = self.counters
        states = self.manifest.states()
        lines = [
            (f"sharded sweep: {c['cells_total']} cells in "
             f"{self.plan.shard_count} shards "
             f"(plan {self.plan.plan_hash}, seed {self.plan.seed})"),
            (f"  shards: {states['done']} done, "
             f"{states['quarantined']} quarantined"),
            (f"  cells: {c['cells_from_cache']} replayed from store, "
             f"{c['cells_computed']} computed, "
             f"{c['cells_failed']} failed"),
            (f"  estimator runs: {c['estimator_runs_total']} total, "
             f"{c['estimator_runs_cached']} from cache, "
             f"recomputed estimator runs: "
             f"{c['estimator_runs_recomputed']}"),
            (f"  store: hits={self.store_stats['hits']} "
             f"misses={self.store_stats['misses']} "
             f"corrupt={self.store_stats['corrupt']} "
             f"tmp_swept={self.store_stats['tmp_swept']}"),
        ]
        lines.extend(self._tally_lines())
        if self.prepass:
            p = self.prepass
            lines.append(
                f"  batched prepass: warmed {p['cells_batched']} "
                f"cell(s), compiles={p['compiles']} "
                f"program_loads={p['program_loads']} "
                f"skipped={p['cells_skipped']}")
        if c.get("cells_stolen"):
            lines.append(f"  work stealing recovered "
                         f"{c['cells_stolen']} straggler cell(s)")
        for record in self.manifest.records.values():
            if record.state == "quarantined":
                lines.append(
                    f"  quarantined shard {record.shard_id} "
                    f"({record.attempts} attempts, "
                    f"{record.cells_done}/{record.cells_total} cells):")
                for error in record.errors:
                    lines.append(f"    {error}")
        return "\n".join(lines)

    def _tally_lines(self) -> List[str]:
        """Per-engine tally of the mesh runs, CI-greppable.

        A silent fallback regression (cells quietly dropping from SoA
        to the object engine) shows up as a changed tally, exactly like
        the "recomputed estimator runs: 0" contract line makes
        recomputation regressions greppable.
        """
        engines: Dict[str, int] = {}
        for cell in self.cells:
            if cell.mesh_engine is not None:
                engines[cell.mesh_engine] = \
                    engines.get(cell.mesh_engine, 0) + 1
        if not engines:
            return []
        return ["  engine_used: " + " ".join(
            f"{name}={engines[name]}" for name in sorted(engines))]


def _fabric_cell(config: Dict, spec: ScenarioSpec) -> Dict:
    """Worker-side cell: ensure one spec's runs are in the store.

    Module-level so the pool can import it.  Opens its own store handle
    (no tmp sweep — short-lived handles must not race live writers),
    lets :func:`run_comparison` replay whatever is already stored, and
    returns a small JSON-plain ack with the exact payload numbers.
    """
    spec_hash = spec.spec_hash()
    if os.getpid() != config["supervisor_pid"]:
        # Chaos kills only ever fire in a worker process; the serial
        # in-process fallback must never SIGKILL the supervisor.
        maybe_kill_worker(config.get("chaos"), spec_hash)
    store = RunStore(config["store_root"],
                     version=config["store_version"], tmp_max_age=None)
    include = tuple(config["include"])
    comparison = run_comparison(spec, include=include, store=store,
                                engine=config.get("engine"))
    mesh_engine = None
    mesh = comparison.runs.get("mesh")
    if mesh is not None:
        if mesh.cached:
            mesh_engine = "cached"
        else:
            mesh_engine = getattr(mesh.detail, "engine_used", "object")
    return {
        "spec_hash": spec_hash,
        "cached_runs": comparison.cached_runs,
        "mesh_engine": mesh_engine,
        "runs": {
            name: {"queueing_cycles": run.queueing_cycles,
                   "percent_queueing": run.percent_queueing,
                   "wall_seconds": run.wall_seconds}
            for name, run in comparison.runs.items()
        },
    }


def _as_budget(shard_budget) -> Optional[RunBudget]:
    """Coerce ``None`` / seconds / RunBudget to a per-shard budget."""
    if shard_budget is None or isinstance(shard_budget, RunBudget):
        return shard_budget
    return RunBudget(max_wall_seconds=float(shard_budget))


class SweepSupervisor:
    """One sharded sweep execution (see the module docstring).

    Instantiate via :func:`run_sharded_sweep` unless you need to hold
    the pieces (plan, manifest, store) between calls.
    """

    def __init__(self, specs: Sequence[ScenarioSpec],
                 store,
                 shards: int = 4,
                 seed: int = 0,
                 jobs: int = 0,
                 manifest_path=None,
                 resume: bool = False,
                 include: Sequence[str] = ESTIMATORS,
                 retry: Optional[RetryPolicy] = None,
                 shard_budget=None,
                 cell_timeout: Optional[float] = None,
                 chaos: Optional[ChaosPlan] = None,
                 engine: Optional[str] = None,
                 batch_cells: int = 0,
                 program_store=None,
                 sleep=time.sleep):
        #: The execution facade this sweep routes through: it owns the
        #: run store, the companion program store, and the engine
        #: selection shared by the probe, the prepass,
        #: and (transitively, via :func:`run_comparison` in the worker
        #: cells) every dispatched cell.
        self.session = ExecutionSession(store=store,
                                        program_store=program_store,
                                        engine=engine, jobs=jobs,
                                        batch_cells=batch_cells)
        self.store = self.session.store
        if self.store is None:
            raise ConfigurationError(
                "a sharded sweep needs a run store — it is the durable "
                "substrate resume and work stealing rely on")
        self.plan = ShardPlan(specs, shards=shards, seed=seed)
        self.include = tuple(include)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.shard_budget = _as_budget(shard_budget)
        self.cell_timeout = cell_timeout
        self.jobs = jobs
        self.chaos = chaos
        #: Hybrid execution engine for every mesh cell ("soa"/"object"/
        #: None).  Execution-only: never part of spec hashes, so cached
        #: payloads from either engine replay interchangeably.
        self.engine = engine
        #: Mesh prepass knob: non-zero warms cold mesh cells through
        #: the grid-granularity replay before probing (see
        #: :meth:`~repro.engine.session.ExecutionSession.prepass`).
        #: Execution-only — never part of spec hashes or the plan hash.
        self.batch_cells = batch_cells
        self.program_store = program_store
        #: Counters of the last prepass (``None`` until run).
        self.prepass_counters: Optional[Dict[str, object]] = None
        self.sleep = sleep
        if manifest_path is None:
            manifest_path = (self.store.root / "manifests"
                             / f"sweep-{self.plan.plan_hash}.json")
        self.manifest = self._open_manifest(manifest_path, resume)
        self._outcomes: Dict[int, CellOutcome] = {}
        self._steal_queue: List[int] = []

    def _open_manifest(self, path, resume: bool) -> ShardManifest:
        if resume and os.path.exists(path):
            manifest = ShardManifest.load(path)
            if not manifest.matches(self.plan):
                raise ConfigurationError(
                    f"manifest {path} checkpoints plan "
                    f"{manifest.plan_hash}, but this grid builds plan "
                    f"{self.plan.plan_hash} — resume needs the same "
                    f"specs, shard count, and seed")
            manifest.reset_running()
            return manifest
        return ShardManifest.for_plan(path, self.plan)

    # -- phases -------------------------------------------------------

    def _probe(self) -> None:
        """Replay every fully-stored cell; leave the rest pending.

        Parent-store ``hits`` count these replays — the counters that
        prove a resumed sweep recomputed nothing already done.
        """
        for index, spec_hash in enumerate(self.plan.spec_hashes):
            payloads = self.session.probe(spec_hash, self.include)
            if payloads is not None:
                self._outcomes[index] = CellOutcome(
                    index=index, spec_hash=spec_hash, source="cache",
                    runs={name: {
                        "queueing_cycles": payload["queueing_cycles"],
                        "percent_queueing": payload["percent_queueing"],
                        "wall_seconds": payload.get("wall_seconds", 0.0),
                    } for name, payload in payloads.items()},
                    cached_runs=len(self.include),
                    mesh_engine=("cached" if "mesh" in payloads
                                 else None))

    def _cell_config(self) -> Dict:
        return {
            "store_root": str(self.store.root),
            "store_version": self.store.version,
            "include": list(self.include),
            "chaos": self.chaos.to_dict() if self.chaos else None,
            "engine": self.engine,
            "supervisor_pid": os.getpid(),
        }

    def _dispatch(self, executor: ParallelExecutor,
                  cell_indices: Sequence[int]
                  ) -> List[Tuple[int, Optional[str]]]:
        """Run one round of cells; record successes, return failures.

        Returns ``(cell_index, error)`` pairs for the cells that did
        not complete this round.
        """
        fn = functools.partial(_fabric_cell, self._cell_config())
        specs = [self.plan.specs[index] for index in cell_indices]
        results = executor.map_specs(fn, specs,
                                     timeout=self.cell_timeout)
        failures: List[Tuple[int, Optional[str]]] = []
        for index, result in zip(cell_indices, results):
            if result.ok:
                ack = result.value
                self._outcomes[index] = CellOutcome(
                    index=index, spec_hash=ack["spec_hash"],
                    source="computed", runs=ack["runs"],
                    cached_runs=ack["cached_runs"],
                    mesh_engine=ack.get("mesh_engine"))
            else:
                failures.append((index, result.error))
        return failures

    def _fail_cell(self, index: int, error: Optional[str]) -> None:
        self._outcomes[index] = CellOutcome(
            index=index, spec_hash=self.plan.spec_hashes[index],
            source="failed", error=error or "unknown failure")

    def _run_shard(self, executor: ParallelExecutor, shard) -> None:
        """Drive one shard to done / quarantined / stolen."""
        record = self.manifest.record(shard.shard_id)
        record.cells_total = len(shard)
        pending = [index for index in shard.cell_indices
                   if index not in self._outcomes]
        record.cells_done = len(shard) - len(pending)
        if not pending:
            self.manifest.mark(shard.shard_id, "done")
            self.manifest.save()
            return
        self.manifest.mark(shard.shard_id, "running")
        self.manifest.save()
        meter = (self.shard_budget.start()
                 if self.shard_budget is not None
                 and not self.shard_budget.unlimited else None)
        attempt = 0
        while True:
            attempt += 1
            record.attempts += 1
            failures = self._dispatch(executor, pending)
            record.cells_done = sum(
                1 for index in shard.cell_indices
                if index in self._outcomes
                and self._outcomes[index].source != "failed")
            # Deterministic in-cell exceptions are final immediately;
            # only infrastructure failures earn another round.
            retryable: List[int] = []
            record.errors = []
            for index, error in failures:
                if is_transient(error):
                    retryable.append(index)
                    record.errors.append(
                        f"{self.plan.spec_hashes[index][:12]}: {error}")
                else:
                    self._fail_cell(index, error)
                    record.errors.append(
                        f"{self.plan.spec_hashes[index][:12]}: {error}")
            self.manifest.save()
            if not retryable and not any(
                    not self._outcomes[i].ok
                    for i in shard.cell_indices if i in self._outcomes):
                self.manifest.mark(shard.shard_id, "done")
                record.errors = []
                self.manifest.save()
                return
            if not retryable:
                # Only deterministic failures remain: quarantine now,
                # retrying them would reproduce the same exception.
                self.manifest.mark(shard.shard_id, "quarantined")
                self.manifest.save()
                return
            exhausted = meter is not None and meter.check(0.0, 0)
            if exhausted:
                # Straggler: stop burning this shard's budget; the
                # work-stealing pass picks its leftovers up.
                self._steal_queue.extend(retryable)
                self.manifest.save()
                return
            if attempt > self.retry.max_retries:
                for index in retryable:
                    self._fail_cell(
                        index,
                        f"quarantined after {attempt} attempts: "
                        f"{dict(failures)[index]}")
                self.manifest.mark(shard.shard_id, "quarantined")
                self.manifest.save()
                return
            self.sleep(self.retry.delay_of(attempt))
            pending = retryable

    def _steal(self, executor: ParallelExecutor) -> int:
        """Work-stealing pass: finish straggler cells one by one."""
        stolen_done = 0
        pending = list(self._steal_queue)
        attempt = 0
        while pending:
            attempt += 1
            failures = self._dispatch(executor, pending)
            failed_map = dict(failures)
            completed = [index for index in pending
                         if index not in failed_map]
            stolen_done += len(completed)
            for index in completed:
                record = self.manifest.record(
                    self.plan.shard_of(index).shard_id)
                record.cells_done += 1
                record.cells_stolen += 1
            retryable = [index for index, error in failures
                         if is_transient(error)]
            for index, error in failures:
                if not is_transient(error):
                    self._fail_cell(index, error)
            self.manifest.save()
            if not retryable:
                break
            if attempt > self.retry.max_retries:
                for index in retryable:
                    self._fail_cell(
                        index,
                        f"stolen cell still failing after {attempt} "
                        f"attempts: {failed_map[index]}")
                break
            self.sleep(self.retry.delay_of(attempt))
            pending = retryable
        self._steal_queue = []
        return stolen_done

    def _finalize_states(self) -> None:
        """Settle every shard to done/quarantined from cell outcomes."""
        for shard in self.plan.shards:
            record = self.manifest.record(shard.shard_id)
            unresolved = [
                index for index in shard.cell_indices
                if index not in self._outcomes
                or not self._outcomes[index].ok]
            record.cells_done = len(shard) - len(unresolved)
            if unresolved:
                for index in unresolved:
                    if index not in self._outcomes:
                        self._fail_cell(index, "never completed")
                record.errors = [
                    f"{self.plan.spec_hashes[index][:12]}: "
                    f"{self._outcomes[index].error}"
                    for index in unresolved]
                self.manifest.mark(shard.shard_id, "quarantined")
            else:
                record.errors = []
                self.manifest.mark(shard.shard_id, "done")
        self.manifest.save()

    # -- entry point --------------------------------------------------

    def run(self, executor: Optional[ParallelExecutor] = None
            ) -> SweepResult:
        """Drive the sweep to convergence and assemble the result."""
        owns_executor = executor is None
        executor = executor or self.session.executor
        if (self.chaos is not None and self.chaos.kill_hashes
                and executor.serial):
            if owns_executor:
                self.session.close()
            raise ConfigurationError(
                "chaos kills need jobs != 1: the serial in-process "
                "path cannot SIGKILL a worker (there is none), so the "
                "kill plan would silently not exercise anything")
        if self.batch_cells and "mesh" in self.include:
            self.prepass_counters = self.session.prepass(self.plan.specs)
        self._probe()
        try:
            for shard in self.plan.shards:
                self._run_shard(executor, shard)
            stolen = self._steal(executor) if self._steal_queue else 0
        finally:
            if owns_executor:
                self.session.close()
        self._finalize_states()
        cells = [self._outcomes[index]
                 for index in range(self.plan.cells)]
        counters = self._counters(cells, stolen)
        return SweepResult(plan=self.plan, manifest=self.manifest,
                           cells=cells, counters=counters,
                           store_stats=self.store.stats(),
                           prepass=self.prepass_counters)

    def _counters(self, cells: Sequence[CellOutcome],
                  stolen: int) -> Dict[str, int]:
        from_cache = sum(1 for c in cells if c.source == "cache")
        computed = sum(1 for c in cells if c.source == "computed")
        failed = sum(1 for c in cells if c.source == "failed")
        runs_total = len(self.include) * (from_cache + computed)
        runs_cached = sum(c.cached_runs for c in cells)
        return {
            "cells_total": len(cells),
            "cells_from_cache": from_cache,
            "cells_computed": computed,
            "cells_failed": failed,
            "cells_stolen": stolen,
            "estimator_runs_total": runs_total,
            "estimator_runs_cached": runs_cached,
            "estimator_runs_recomputed": runs_total - runs_cached,
            "attempts_total": sum(
                record.attempts
                for record in self.manifest.records.values()),
        }


def run_sharded_sweep(specs: Sequence[ScenarioSpec], store,
                      shards: int = 4, **kwargs) -> SweepResult:
    """Run a fault-tolerant sharded sweep (see :class:`SweepSupervisor`).

    ``specs`` is the grid in assembly order; ``store`` a
    :class:`~repro.scenario.store.RunStore` or its root path.  Keyword
    arguments mirror :class:`SweepSupervisor`; the common ones are
    ``jobs`` (``0`` = one worker per CPU), ``resume=True`` to continue
    a killed sweep from its manifest + store, ``cell_timeout`` /
    ``shard_budget`` for hang containment, and ``retry`` to tune
    backoff and the quarantine threshold.
    """
    executor = kwargs.pop("executor", None)
    supervisor = SweepSupervisor(specs, store, shards=shards, **kwargs)
    return supervisor.run(executor=executor)
