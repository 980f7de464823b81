"""Layer spans and exact work counters, installed from outside the program.

The program under test carries no instrumentation of its own, so this
module wraps the public entry point of each layer (a class method or a
module function) in a recorder before the program runs.  Each wrapped
call becomes a span ``(name, start, end, parent, cell)``; a span's cell
is the spec hash of the scenario it serves, inherited from its parent.
Spans stay in memory and are written out once, when the program ends.
Counters that need no span (cache accesses) are read from the objects
the layer creates.

Run as a launcher, it installs the wrappers and then hands control to
the program in the same process, so a traced run has the same process
layout as an untraced one::

    python3 perfbench/tracer.py --out trace.json all
    python3 perfbench/tracer.py --out trace.json serve --port 0
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Counters a traced run reports; every one is an exact count of work
#: done, so two traced runs of the same code give the same values.
EXACT_COUNTERS = (
    "workloads.builds", "memory.cache_accesses",
    "cycle.lower.calls", "cycle.lower.ops",
    "analytical.characterize.calls", "analytical.whole_run.calls",
    "cycle.event.runs", "cycle.event.sim_cycles",
    "cycle.stepped.runs", "cycle.stepped.sim_cycles",
    "core.kernel.runs", "core.kernel.regions_committed",
    "core.kernel.slices_analyzed", "core.kernel.slices_merged",
    "core.kernel.engine_used.object", "core.kernel.engine_used.soa",
    "core.replay.cells", "core.replay.regions_committed",
    "core.replay.slices_analyzed",
    "to_mesh.build_kernel.calls", "core.compile.calls",
    "store.get.calls", "store.get.hits", "store.put.calls",
    "session.comparisons", "session.estimator_runs_computed",
    "session.estimator_runs_cached", "table1.cells",
)


class Recorder:
    """In-memory span list plus named counters, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cache_stats: List[object] = []

    def wrap(self, name: str, fn: Callable,
             cell_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``cell_of(args, kwargs)`` names the cell of a span with no
        enclosing cell; ``on_result(result, args, kwargs)`` adds
        counters from the call's outcome.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            cell = parent[4] if parent is not None else None
            if cell is None and cell_of is not None:
                cell = cell_of(args, kwargs)
            # [name, start, end, parent index, cell, child seconds, index]
            span = [name, 0.0, 0.0,
                    parent[6] if parent is not None else None,
                    cell, 0.0, None]
            with recorder._lock:
                span[6] = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                duration = span[2] - span[1]
                if parent is not None:
                    parent[5] += duration
                with recorder._lock:
                    recorder.counters[name + ".calls"] += 1
                    recorder.self_s[name] += duration - span[5]
            if on_result is not None:
                with recorder._lock:
                    on_result(result, args, kwargs)
            return result

        return traced

    def add(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (call under the lock)."""
        self.counters[name] += value

    def snapshot(self) -> Dict[str, object]:
        """Everything recorded so far, as plain JSON data."""
        with self._lock:
            counters = dict(self.counters)
            self_s = dict(self.self_s)
            spans = [{"name": s[0], "start": s[1], "end": s[2],
                      "parent": s[3], "cell": s[4],
                      "self_s": (s[2] - s[1]) - s[5]}
                     for s in self.spans]
            counters["memory.cache_accesses"] = float(sum(
                stats.reads + stats.writes for stats in self._cache_stats))
        return {"counters": counters, "self_s": self_s, "spans": spans}


def _replace_everywhere(module, attr: str, wrapper) -> None:
    """Point every loaded ``repro`` module's binding of ``attr`` at ``wrapper``.

    Modules that imported the function by name hold their own binding,
    so patching only the defining module would miss their calls.
    """
    original = getattr(module, attr)
    setattr(module, attr, wrapper)
    for name, loaded in list(sys.modules.items()):
        if not name.startswith("repro") or loaded is None:
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the entry point of every measured layer of the program."""
    import repro.cli  # noqa: F401  - load every module the CLI binds
    import repro.service.server  # noqa: F401
    from repro.core.kernel import HybridKernel
    from repro.cycle.eventdriven import EventEngine
    from repro.cycle.stepped import SteppedEngine
    from repro.engine.session import ExecutionSession
    from repro.memory.cache import Cache
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.store import RunStore

    # import_module, not ``from ... import``: some packages rebind a
    # submodule's name to the function it defines.
    characterize_mod = importlib.import_module(
        "repro.analytical.characterize")
    whole_run = importlib.import_module("repro.analytical.whole_run")
    compile_mod = importlib.import_module("repro.core.compile")
    programstore = importlib.import_module("repro.core.programstore")
    program_mod = importlib.import_module("repro.cycle.program")
    to_mesh = importlib.import_module("repro.workloads.to_mesh")
    table1 = importlib.import_module("repro.experiments.table1")

    add = recorder.add

    def spec_cell(args, kwargs):
        spec = args[0] if args else None
        return spec.spec_hash() if isinstance(spec, ScenarioSpec) else None

    def comparison_cell(args, kwargs):
        spec = args[1] if len(args) > 1 else kwargs.get("workload")
        return spec.spec_hash() if isinstance(spec, ScenarioSpec) else None

    def store_cell(args, kwargs):
        return args[1] if len(args) > 1 else kwargs.get("spec_hash")

    def on_build(result, args, kwargs):
        add("workloads.builds")

    def on_lower(result, args, kwargs):
        add("cycle.lower.ops", sum(len(p.ops) for p in result))

    def on_cycle(prefix):
        def count(result, args, kwargs):
            add(prefix + ".runs")
            add(prefix + ".sim_cycles", result.makespan)
        return count

    def on_kernel(result, args, kwargs):
        add("core.kernel.runs")
        add("core.kernel.regions_committed", result.regions_committed)
        add("core.kernel.slices_analyzed", result.slices_analyzed)
        add("core.kernel.slices_merged", result.slices_merged)
        add("core.kernel.engine_used." + result.engine_used)

    def on_replay(results, args, kwargs):
        for result in results:
            add("core.replay.cells")
            add("core.replay.regions_committed", result.regions_committed)
            add("core.replay.slices_analyzed", result.slices_analyzed)

    def on_get(result, args, kwargs):
        if result is not None:
            add("store.get.hits")

    def on_comparison(result, args, kwargs):
        add("session.comparisons")
        cached = result.cached_runs
        add("session.estimator_runs_cached", cached)
        add("session.estimator_runs_computed", len(result.runs) - cached)

    def on_table1(result, args, kwargs):
        add("table1.cells")

    wrap = recorder.wrap
    ScenarioSpec.build_workload = wrap(
        "workloads.build", ScenarioSpec.build_workload,
        cell_of=spec_cell, on_result=on_build)
    EventEngine.run = wrap("cycle.event", EventEngine.run,
                           on_result=on_cycle("cycle.event"))
    SteppedEngine.run = wrap("cycle.stepped", SteppedEngine.run,
                             on_result=on_cycle("cycle.stepped"))
    HybridKernel.run = wrap("core.kernel", HybridKernel.run,
                            on_result=on_kernel)
    RunStore.get = wrap("store.get", RunStore.get, cell_of=store_cell,
                        on_result=on_get)
    RunStore.put = wrap("store.put", RunStore.put, cell_of=store_cell)
    ExecutionSession.comparison = wrap(
        "session", ExecutionSession.comparison, cell_of=comparison_cell,
        on_result=on_comparison)
    ExecutionSession.prepass = wrap("session.prepass",
                                    ExecutionSession.prepass)
    for module, attr, name, hook in (
            (program_mod, "lower_workload", "cycle.lower", on_lower),
            (characterize_mod, "characterize",
             "analytical.characterize", None),
            (whole_run, "estimate_queueing", "analytical.whole_run", None),
            (to_mesh, "build_kernel", "to_mesh.build_kernel", None),
            (compile_mod, "compile_kernel", "core.compile", None),
            (programstore, "replay_batch", "core.replay", on_replay)):
        _replace_everywhere(module, attr,
                            wrap(name, getattr(module, attr),
                                 on_result=hook))
    table1._table1_cell = wrap("table1.cell", table1._table1_cell,
                               on_result=on_table1)

    cache_init = Cache.__init__

    def counting_init(self, *args, **kwargs):
        cache_init(self, *args, **kwargs)
        with recorder._lock:
            recorder._cache_stats.append(self.stats)

    Cache.__init__ = counting_init


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        usage="%(prog)s --out TRACE.json REPRO-ARGS...")
    parser.add_argument("--out", required=True,
                        help="where to write the spans and counters")
    # Everything else is passed on to repro.cli.main unchanged.
    options, cli_args = parser.parse_known_args(argv)
    recorder = Recorder()
    install(recorder)
    code = 0
    started = time.perf_counter()
    try:
        from repro.cli import main as cli_main

        code = cli_main(cli_args)
    finally:
        trace = recorder.snapshot()
        trace["wall_s"] = time.perf_counter() - started
        tmp = options.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        os.replace(tmp, options.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
