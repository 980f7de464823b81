"""Figure 4 reproduction: SPLASH-2 FFT queueing cycles vs processors.

The paper's Figure 4 plots queueing cycles predicted by the purely
analytical Chen-Lin model, the MESH hybrid, and the cycle-accurate ISS
for the FFT benchmark at 512KB and 8KB caches over a range of processor
counts, and reports the headline error averages: analytical ~70% /
MESH ~14.5% (512KB) and analytical 44% / MESH 18% (8KB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..contention.base import ContentionModel
from .report import series_block
from .runner import finite_mean
from .specutil import comparisons_for_specs, scenario_spec

#: Paper-reported average errors, for EXPERIMENTS.md bookkeeping.
PAPER_AVG_ERRORS = {
    512: {"analytical": 70.0, "mesh": 14.5},
    8: {"analytical": 44.0, "mesh": 18.0},
}

DEFAULT_PROCS = (2, 4, 8, 16)


@dataclass(frozen=True)
class Fig4Row:
    """One configuration's results: queueing cycles from each estimator."""

    processors: int
    cache_kb: int
    iss: float
    mesh: float
    analytical: float
    mesh_error: float
    analytical_error: float


def fig4_specs(cache_kb: int = 512,
               proc_counts: Sequence[int] = DEFAULT_PROCS,
               points: int = 4096,
               model: Optional[ContentionModel] = None,
               seed: int = 0):
    """One :class:`ScenarioSpec` per processor-count configuration."""
    return [
        scenario_spec("fft",
                      {"points": points, "processors": processors,
                       "cache_kb": cache_kb, "seed": seed},
                      model=model)
        for processors in proc_counts
    ]


def run_fig4(cache_kb: int = 512,
             proc_counts: Sequence[int] = DEFAULT_PROCS,
             points: int = 4096,
             model: Optional[ContentionModel] = None,
             seed: int = 0,
             jobs: int = 1,
             store=None,
             engine: Optional[str] = None) -> List[Fig4Row]:
    """Run the FFT sweep for one cache size.

    Each configuration is a :class:`ScenarioSpec` evaluated through
    :func:`~repro.experiments.specutil.comparisons_for_specs` —
    ``jobs > 1`` ships spec dicts to a process pool (``0`` = one worker
    per CPU) with serial-identical row ordering, and ``store`` (a
    :class:`~repro.scenario.store.RunStore` or path) makes re-runs warm
    cache hits.  ``engine`` selects the hybrid execution engine
    (``"soa"``/``"object"``) without changing spec hashes.
    """
    specs = fig4_specs(cache_kb=cache_kb, proc_counts=proc_counts,
                       points=points, model=model, seed=seed)
    comparisons = comparisons_for_specs(specs, jobs=jobs, store=store,
                                        engine=engine)
    return [
        Fig4Row(
            processors=processors,
            cache_kb=cache_kb,
            iss=comparison.queueing("iss"),
            mesh=comparison.queueing("mesh"),
            analytical=comparison.queueing("analytical"),
            mesh_error=comparison.error("mesh"),
            analytical_error=comparison.error("analytical"),
        )
        for processors, comparison in zip(proc_counts, comparisons)
    ]


def average_errors(rows: Sequence[Fig4Row]) -> Dict[str, float]:
    """Mean |error| over the sweep for each contestant estimator.

    Each estimator's mean is taken over its own finite errors, so one
    zero-reference (infinite-error) point for the analytical model does
    not discard the MESH data at that configuration.
    """
    return {
        "mesh": finite_mean([r.mesh_error for r in rows])[0],
        "analytical": finite_mean([r.analytical_error for r in rows])[0],
    }


def render_fig4(rows: Sequence[Fig4Row]) -> str:
    """Figure-4-style text rendering of one cache configuration."""
    cache_kb = rows[0].cache_kb if rows else 0
    xs = [r.processors for r in rows]
    block = series_block(
        f"Figure 4 — FFT, {cache_kb}KB cache: queueing cycles vs "
        f"#processors",
        xs,
        [("ISS", [r.iss for r in rows]),
         ("MESH", [r.mesh for r in rows]),
         ("Analytical", [r.analytical for r in rows])],
    )
    averages = average_errors(rows)
    paper = PAPER_AVG_ERRORS.get(cache_kb, {})
    footer = (f"  avg error vs ISS: MESH {averages['mesh']:.1f}% "
              f"(paper ~{paper.get('mesh', float('nan'))}%), "
              f"Analytical {averages['analytical']:.1f}% "
              f"(paper ~{paper.get('analytical', float('nan'))}%)")
    excluded = (finite_mean([r.mesh_error for r in rows])[1]
                + finite_mean([r.analytical_error for r in rows])[1])
    if excluded:
        footer += (f" [{excluded} non-finite error point(s) excluded "
                   f"from the averages]")
    return block + "\n" + footer
