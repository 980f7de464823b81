"""Figure 6 reproduction: model degradation vs workload unbalance.

The paper's Figure 6 plots the average error of MESH and the purely
analytical model as the idle fraction of the second processor grows.
Balanced workloads suit both; "as one of the processors exhibits over
60% less shared resource accesses than the other, the purely analytical
approach breaks down and is outperformed by the MESH hybrid model".

Each point averages the absolute queueing-cycle error over a small
sweep of bus delays (the same sweep Figure 5 uses), matching the
paper's "average error" framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..contention.base import ContentionModel
from .report import series_block
from .runner import finite_mean
from .specutil import comparisons_for_specs, scenario_spec

DEFAULT_IDLE_SWEEP = (0.0, 0.15, 0.30, 0.45, 0.60, 0.75, 0.90)
DEFAULT_BUS_DELAYS = (4, 8, 12)


@dataclass(frozen=True)
class Fig6Row:
    """Average estimator error at one unbalance level."""

    idle_fraction: float
    mesh_error: float
    analytical_error: float


def fig6_specs(idle_sweep: Sequence[float] = DEFAULT_IDLE_SWEEP,
               bus_delays: Sequence[float] = DEFAULT_BUS_DELAYS,
               busy_cycles_target: float = 120_000.0,
               model: Optional[ContentionModel] = None,
               seeds: Sequence[int] = (1, 2, 3)):
    """One :class:`ScenarioSpec` per (idle, bus_delay, seed) cell."""
    return [
        scenario_spec("phm",
                      {"busy_cycles_target": busy_cycles_target,
                       "idle_fractions": [0.06, idle],
                       "bus_service": bus_delay, "seed": seed},
                      model=model)
        for idle in idle_sweep
        for bus_delay in bus_delays
        for seed in seeds
    ]


def run_fig6(idle_sweep: Sequence[float] = DEFAULT_IDLE_SWEEP,
             bus_delays: Sequence[float] = DEFAULT_BUS_DELAYS,
             busy_cycles_target: float = 120_000.0,
             model: Optional[ContentionModel] = None,
             seeds: Sequence[int] = (1, 2, 3),
             jobs: int = 1,
             store=None,
             engine: Optional[str] = None) -> List[Fig6Row]:
    """Sweep the second processor's idle fraction.

    Each point averages over ``bus_delays`` x ``seeds`` scenario
    instances; a single random kernel mix has enough variance to hide
    the degradation trend the figure is about.  The full idle x
    bus-delay x seed cross product is a grid of :class:`ScenarioSpec`
    cells: ``jobs > 1`` spreads them over a process pool (``0`` = one
    worker per CPU) and ``store`` replays cached estimator runs;
    per-point averages are accumulated in the serial loop's exact
    order, so rows are bit-identical.
    """
    specs = fig6_specs(idle_sweep=idle_sweep, bus_delays=bus_delays,
                       busy_cycles_target=busy_cycles_target,
                       model=model, seeds=seeds)
    comparisons = comparisons_for_specs(specs, jobs=jobs, store=store,
                                        engine=engine)
    values = [(comparison.error("mesh"), comparison.error("analytical"))
              for comparison in comparisons]
    per_point = len(bus_delays) * len(seeds)
    rows: List[Fig6Row] = []
    for offset, idle in enumerate(idle_sweep):
        chunk = values[offset * per_point:(offset + 1) * per_point]
        rows.append(Fig6Row(
            idle_fraction=idle,
            mesh_error=finite_mean([mesh for mesh, _ in chunk])[0],
            analytical_error=finite_mean(
                [analytical for _, analytical in chunk])[0],
        ))
    return rows


def render_fig6(rows: Sequence[Fig6Row]) -> str:
    """Figure-6-style text rendering."""
    xs = [f"{r.idle_fraction:.0%}" for r in rows]
    block = series_block(
        "Figure 6 — average % error vs idle fraction of processor 2",
        xs,
        [("MESH err %", [r.mesh_error for r in rows]),
         ("Analytical err %", [r.analytical_error for r in rows])],
    )
    return block + ("\n  (paper: analytical degrades sharply past ~60% "
                    "unbalance; MESH stays low)")
