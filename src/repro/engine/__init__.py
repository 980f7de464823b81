"""The execution facade: one front door for every way a scenario runs.

:class:`~repro.engine.session.ExecutionSession` owns the pieces every
execution path used to wire together by hand — the content-addressed
:class:`~repro.scenario.store.RunStore` and a persistent warm
:class:`~repro.perf.parallel.ParallelExecutor` pool — and exposes the
canonical store-probe -> run -> store-commit sequence as methods.  The
CLI (:func:`~repro.experiments.runner.run_comparison` and friends), the
sweep fabric (:class:`~repro.sweepfabric.supervisor.SweepSupervisor`),
and the contention-modeling service (:mod:`repro.service`) all route
through it, so there is exactly one implementation of that sequence to
keep byte-identical.
"""

from .session import (ESTIMATORS, Comparison, EstimatorRun,
                      ExecutionSession, percent_error)

__all__ = [
    "ESTIMATORS",
    "Comparison",
    "EstimatorRun",
    "ExecutionSession",
    "percent_error",
]
