"""The benchmark's tracer still finds every layer entry point it wraps.

``perfbench/tracer.py`` (the ``--trace 1`` mode of the end-to-end
benchmark) instruments the program from outside: it wraps a fixed list
of classes' methods and module functions by name.  Deleting or
renaming one of them, or rebinding a call site so it no longer goes
through the module attribute, breaks traced runs without failing any
other test.  This suite installs the tracer in a fresh interpreter —
loading it from its file without writing bytecode next to it — and
checks that every wrapped name resolves to a traced wrapper and that a
tiny prepass and comparison are counted through them.
"""

import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

_PROBE = r"""
import importlib
import importlib.util
import json
import sys
import tempfile

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
recorder = tracer.Recorder()
tracer.install(recorder)

ENTRY_POINTS = {
    "repro.scenario.spec": ["ScenarioSpec.build_workload"],
    "repro.cycle.eventdriven": ["EventEngine.run"],
    "repro.cycle.stepped": ["SteppedEngine.run"],
    "repro.core.kernel": ["HybridKernel.run"],
    "repro.scenario.store": ["RunStore.get", "RunStore.put"],
    "repro.engine.session": ["ExecutionSession.comparison",
                             "ExecutionSession.prepass"],
    "repro.cycle.program": ["lower_workload"],
    "repro.analytical.characterize": ["characterize"],
    "repro.analytical.whole_run": ["estimate_queueing"],
    "repro.workloads.to_mesh": ["build_kernel"],
    "repro.core.compile": ["compile_kernel"],
    "repro.core.programstore": ["replay_batch"],
    "repro.experiments.table1": ["_table1_cell"],
}
unwrapped = []
for module_name, names in ENTRY_POINTS.items():
    module = importlib.import_module(module_name)
    for name in names:
        target = module
        for part in name.split("."):
            target = getattr(target, part)
        if not hasattr(target, "__wrapped__"):
            unwrapped.append(f"{module_name}.{name}")

from repro.core import numpy_available
from repro.engine import ExecutionSession
from repro.scenario import ScenarioSpec

cell = ScenarioSpec(generator="uniform",
                    params={"threads": 2, "phases": 3, "accesses": 24,
                            "seed": 0})
with tempfile.TemporaryDirectory() as root:
    with ExecutionSession(store=root) as session:
        session.prepass([cell])
        comparison = session.comparison(cell, include=("mesh",))
print(json.dumps({"unwrapped": unwrapped, "numpy": numpy_available(),
                  "cached_runs": comparison.cached_runs,
                  "counters": recorder.snapshot()["counters"]}))
"""


def test_tracer_wraps_every_entry_point_and_counts_a_prepass():
    path = [str(ROOT / "src")] + [
        entry for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(TRACER)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["unwrapped"] == []
    counters = defaultdict(float, report["counters"])
    if not report["numpy"]:
        # Without NumPy nothing compiles: the prepass skips the cell
        # and the comparison computes it.
        assert report["cached_runs"] == 0
        assert counters["session.prepass.calls"] == 1
        return
    assert report["cached_runs"] == 1
    assert counters["session.prepass.calls"] == 1
    assert counters["core.compile.calls"] == 1
    assert counters["core.replay.cells"] == 1
    assert counters["store.put.calls"] == 1
    assert counters["session.comparisons"] == 1
