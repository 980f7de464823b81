"""Performance layer: parallel cell execution and benchmark tooling.

Cooperating pieces in the direction the roadmap points ("as fast as
the hardware allows"):

* :mod:`repro.perf.parallel` — :class:`ParallelExecutor` maps
  independent simulation cells ((x, seed) sweep pairs, figure grid
  points, calibration candidates) over a process pool with
  deterministic ordering, per-cell error capture, and an in-process
  serial fallback;
* :mod:`repro.perf.bench` — JSON benchmark-trajectory recording for
  ``benchmarks/out/``;
* :mod:`repro.perf.profile` — hot-path benchmark harness recording
  ``BENCH_hotpath.json`` (commit throughput, slice-analysis rate,
  cycle-engine rate, sweep-cell throughput);
* :mod:`repro.perf.gate` — CI regression gate comparing a fresh bench
  record against the committed baseline.
"""

from .bench import DEFAULT_OUT_DIR, environment_info, record_bench
from .parallel import (TIMEOUT_TAG, CellError, CellResult,
                       ParallelExecutor, resolve_jobs)

# repro.perf.profile and repro.perf.gate are runnable modules
# (``python -m repro.perf.profile``); import them directly rather than
# through the package so ``-m`` execution stays warning-free.

__all__ = [
    "CellError", "CellResult", "DEFAULT_OUT_DIR", "ParallelExecutor",
    "TIMEOUT_TAG", "environment_info", "record_bench", "resolve_jobs",
]
