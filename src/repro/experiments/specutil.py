"""Shared helpers for spec-driven experiment grids.

The figure and table reproductions all follow the same shape: build one
:class:`~repro.scenario.spec.ScenarioSpec` per grid cell, evaluate the
cells on a :class:`~repro.perf.parallel.ParallelExecutor` (shipping
spec dicts, not workload objects), optionally flow everything through a
:class:`~repro.scenario.store.RunStore`, and fail loudly on any cell
error.  This module is that shape, written once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..scenario.spec import ScenarioSpec, as_model_spec
from .runner import Comparison, run_comparisons_parallel


def scenario_spec(generator: str, params: dict, model=None,
                  **spec_kwargs) -> ScenarioSpec:
    """Build a spec from a generator name, params, and a model.

    ``model`` may be ``None``, a registry name, a
    :class:`~repro.scenario.spec.ModelSpec`, or a live model instance
    (derived via :meth:`ModelSpec.from_model`; non-derivable custom
    instances raise — register the model to use it in spec-driven
    grids).
    """
    return ScenarioSpec(generator=generator, params=params,
                        model=as_model_spec(model), **spec_kwargs)


def comparisons_for_specs(specs: Sequence[ScenarioSpec],
                          jobs: int = 1,
                          store=None,
                          **kwargs) -> List[Comparison]:
    """Evaluate one comparison per spec, strictly and in order.

    Thin strict wrapper over
    :func:`~repro.experiments.runner.run_comparisons_parallel`: any
    failed cell raises :class:`~repro.perf.parallel.CellError` (whose
    message carries the cell's spec hash), matching the behavior the
    figure scripts had with ``ParallelExecutor.run``.  Extra keyword
    arguments (``include=...``) are forwarded
    verbatim to :func:`~repro.experiments.runner.run_comparison`.
    """
    from ..perf.parallel import CellError

    cells = run_comparisons_parallel(list(specs), jobs=jobs,
                                     store=store, **kwargs)
    for cell in cells:
        if not cell.ok:
            raise CellError(cell)
    return [cell.value for cell in cells]


def cached_run_count(comparisons: Sequence[Comparison]) -> int:
    """Total estimator runs replayed from the store across a grid."""
    return sum(comparison.cached_runs for comparison in comparisons)


def maybe_store(cache_dir) -> Optional[object]:
    """Coerce a ``--cache-dir`` value to a store (``None`` passthrough)."""
    from ..scenario.store import as_store

    return as_store(cache_dir)
