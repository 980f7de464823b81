"""End-to-end benchmark of the reproduction: one command per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-all --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that installs ``tracer.py``'s layer
wrappers in the program process and reports the per-layer metrics.
Every run checks the program's outputs, prints a digest of its simulated
results and an environment record, and ends with one JSON line::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

The exit code is 0 when every output matched its reference, 1 when
the program failed or gave a wrong output (the JSON line still comes),
and 2, with no JSON line, when there is no program here or it does not
import.
``--write-reference`` recomputes the default-seed references in
``perfbench/reference/`` from the checkout's own code.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import paper_all  # noqa: E402
import service_mixed  # noqa: E402
import tracer  # noqa: E402
from common import (OUT, PROGRAM_CPU, PYTHON, ROOT, WORK,  # noqa: E402
                    BenchError, adjusted, digest, environment, fresh_dir,
                    median, metric, remove_dir, run_child, run_on,
                    speed_probe)

WORKLOADS = ("paper-all", "service-mixed")
#: Fresh-interpreter set-up samples per run (their median is reported).
SETUP_SAMPLES = 9
#: Launch-only server starts per service run, beside each episode's own.
SERVICE_SETUP_PROBES = 4
WARM_UP_ARGV = [PYTHON, "-c", "import repro.cli, repro.service.server"]
#: Traced program runs per traced benchmark run (their counters must match).
TRACED_UNITS = 2


class Outcome:
    """What one benchmark run found: checks, metrics and report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.report: List[str] = []
        self.digest: Optional[str] = None

    def check(self, ok: bool, what: str, count: int = 1,
              failed: Optional[int] = None) -> None:
        self.attempted += count
        bad = (0 if ok else count) if failed is None else failed
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} of {count} failed")

    def result(self) -> Dict[str, object]:
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": max(self.attempted, 1),
                "failed": self.failed, "metrics": self.metrics}


def setup_times(argv: List[str], samples: int = SETUP_SAMPLES) -> List[float]:
    """Launch-to-exit times of fresh interpreters importing the entry."""
    times = []
    for _ in range(samples):
        child = run_child(argv, capture=False)
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed: {' '.join(argv[1:])}")
        times.append(child.wall_s)
    return times


def repeat_for(seconds: float, started: float, unit: Callable) -> tuple:
    """Run ``unit`` until ``seconds`` have passed (once at least).

    A speed probe runs before the first unit and after every unit;
    returns ``(results, probes)`` with one more probe than results.
    """
    results, probes = [], [speed_probe()]
    while not results or time.perf_counter() - started < seconds:
        results.append(unit())
        probes.append(speed_probe())
    return results, probes


def wall_report(walls: List[float], probes: List[float]) -> str:
    return (f"wall_s: {median(walls):.3f} s raw median "
            f"({', '.join(f'{w:.3f}' for w in walls)}); speed probe "
            f"{median(probes):.4f} s median "
            f"({', '.join(f'{p:.4f}' for p in probes)})")


# -- paper-all ---------------------------------------------------------------

def paper_all_timed(seed: int, seconds: float, out: Outcome) -> None:
    started = time.perf_counter()
    expected = paper_all.reference()
    setups = setup_times(paper_all.SETUP_ARGV)
    units, probes = repeat_for(seconds, started, paper_all.run_unit)
    walls = [u.wall_s for u in units]
    for unit in units:
        out.check(paper_all.check(unit, expected), "repro all stdout")
    text = units[0].stdout.decode("utf-8", "replace")
    out.digest = digest(paper_all.normalize(text))
    out.metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_adj_s": metric(median(adjusted(walls, probes)), "s"),
        "peak_rss_mb": metric(median([u.peak_rss_mb for u in units]), "MB"),
    }
    acc = paper_all.accuracy(text)
    out.report += [
        f"units: {len(units)} x repro all",
        wall_report(walls, probes),
        f"mesh_err_pct: {acc['mesh_err_pct']:.2f} % over {acc['cells']} "
        f"comparisons (paper: ~18% max)",
        f"analytical_err_pct: {acc['analytical_err_pct']:.2f} %",
    ]


def _traced(run_unit: Callable[[Path], object], workload: str) -> list:
    """Run ``TRACED_UNITS`` traced units; returns ``(unit, trace)`` pairs.

    The trace is None when the traced process left none behind.
    """
    pairs = []
    for index in range(TRACED_UNITS):
        path = OUT / f"trace-{workload}-{index}.json"
        path.unlink(missing_ok=True)
        unit = run_unit(path)
        pairs.append((unit, common.load_json(path) if path.exists()
                      else None))
    return pairs


def paper_all_traced(seed: int, seconds: float, out: Outcome) -> None:
    expected = paper_all.reference()
    plain = paper_all.run_unit()
    out.check(paper_all.check(plain, expected), "repro all stdout")
    traces = []
    for unit, trace in _traced(lambda path: run_child(
            [PYTHON, str(common.BENCH / "tracer.py"), "--out", str(path),
             "all"]), "paper-all"):
        out.check(paper_all.check(unit, expected), "traced repro all stdout")
        if trace is not None:
            trace["wall_s"] = unit.wall_s
        traces.append(trace)
    out.digest = digest(paper_all.normalize(
        plain.stdout.decode("utf-8", "replace")))
    finish_traced(out, traces, plain.wall_s, "paper-all")


# -- service-mixed -----------------------------------------------------------

def _episode(documents, order, trace_path=None):
    store = fresh_dir(WORK / "store")
    return service_mixed.run_episode(store, documents, order, trace_path)


def _check_episode(out: Outcome, episode, expected) -> None:
    out.check(True, "analyze requests", count=service_mixed.REQUESTS,
              failed=service_mixed.failures(episode, expected))
    if episode.fault is not None:
        out.problems.append(episode.fault)
    rejected = episode.stats.get("service", {}).get("quota_rejections", 0)
    if rejected:
        out.problems.append(f"{rejected} requests hit the quota")


def _served(out: Outcome, episodes) -> Dict[str, float]:
    """Digest and accuracy of the numbers the server returned."""
    cells = service_mixed.observed(episodes)
    out.digest = digest(cells)
    return service_mixed.accuracy(cells)


def service_mixed_timed(seed: int, seconds: float, out: Outcome) -> None:
    started = time.perf_counter()
    documents = service_mixed.specs(seed)
    order = service_mixed.sequence(seed)
    setups = [service_mixed.setup_only(fresh_dir(WORK / "store"))
              for _ in range(SERVICE_SETUP_PROBES)]
    out.check(True, "launch-only server starts", count=len(setups),
              failed=setups.count(None))
    episodes, probes = repeat_for(seconds, started,
                                  lambda: _episode(documents, order))
    expected = service_mixed.reference(seed, documents)
    for episode in episodes:
        _check_episode(out, episode, expected)
    setups = [s for s in setups + [e.setup_s for e in episodes]
              if s is not None]
    if not setups:
        return
    replies = [reply for episode in episodes for reply in episode.replies]
    lat = service_mixed.latency_summary(replies)
    walls = [e.wall_s for e in episodes if e.wall_s > 0]
    # A faulted episode has no wall time; its probes still bracket it.
    adjusted_walls = [wall for wall in adjusted(
        [e.wall_s for e in episodes], probes) if wall > 0]
    out.metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_adj_s": metric(median(adjusted_walls), "s"),
        "peak_rss_mb": metric(median([e.peak_rss_mb for e in episodes]),
                              "MB"),
    }
    tail = common.tail_percentile(lat["requests"])
    acc = _served(out, episodes)
    out.report += [
        f"episodes: {len(episodes)} x {service_mixed.REQUESTS} requests",
        wall_report(walls, probes),
        f"req_p50_ms: {lat['p50_ms']:.3f} ms (n={lat['requests']})",
        f"req_p90_ms: {lat['p90_ms']:.3f} ms (n={lat['requests']}; "
        f"highest percentile with >=10 samples beyond it: "
        f"p{round(100 * tail) if tail else 'none'})",
        f"req_per_s: {median([service_mixed.REQUESTS / w for w in walls]):.2f}"
        f" 1/s (median over episodes)",
        f"warm_p50_ms: {lat['warm_p50_ms']:.3f} ms, "
        f"cold_p50_ms: {lat['cold_p50_ms']:.3f} ms",
        f"mesh_err_pct: {acc['mesh_err_pct']:.2f} %, analytical_err_pct: "
        f"{acc['analytical_err_pct']:.2f} % over the served specs",
    ]


def service_mixed_traced(seed: int, seconds: float, out: Outcome) -> None:
    documents = service_mixed.specs(seed)
    order = service_mixed.sequence(seed)
    plain = _episode(documents, order)
    episodes, traces = [plain], []
    for episode, trace in _traced(
            lambda path: _episode(documents, order, path), "service-mixed"):
        episodes.append(episode)
        if trace is not None:
            trace["service"] = episode
        traces.append(trace)
    expected = service_mixed.reference(seed, documents)
    for episode in episodes:
        _check_episode(out, episode, expected)
    _served(out, episodes)
    finish_traced(out, traces, plain.wall_s, "service-mixed")


# -- per-layer metrics -------------------------------------------------------

#: Counters that depend on request timing in the service (a repeat that
#: lands while its spec is in flight joins it instead of hitting the
#: store), so they are excluded from the exact-counter check there.
TIMING_DEPENDENT = {"service-mixed": {"store.get.hits"}}

def layer_units() -> Dict[str, str]:
    """name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = common.load_json(ROOT / "BENCHMARK.json")
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def layer_values(trace: Dict) -> Dict[str, float]:
    """Per-layer metric values from one traced program run."""
    counters = trace["counters"]
    self_s = trace["self_s"]

    def count(name):
        return float(counters.get(name, 0.0))

    def busy(name):
        return float(self_s.get(name, 0.0))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    cells = count("session.comparisons") + count("table1.cells")
    values = {
        "cells": cells,
        "workloads.builds": count("workloads.builds"),
        "workloads.builds_per_cell": rate(count("workloads.builds"), cells),
        "workloads.self_s": busy("workloads.build"),
        "memory.cache_accesses": count("memory.cache_accesses"),
        "cycle.lower.calls": count("cycle.lower.calls"),
        "cycle.lower.ops": count("cycle.lower.ops"),
        "cycle.lower.self_s": busy("cycle.lower"),
        "analytical.characterize.calls":
            count("analytical.characterize.calls"),
        "analytical.characterize.self_s": busy("analytical.characterize"),
        "analytical.whole_run.calls": count("analytical.whole_run.calls"),
        "analytical.whole_run.self_s": busy("analytical.whole_run"),
        "cycle.event.runs": count("cycle.event.runs"),
        "cycle.event.self_s": busy("cycle.event"),
        "cycle.event.sim_cycles": count("cycle.event.sim_cycles"),
        "cycle.event.sim_cycles_per_s": rate(
            count("cycle.event.sim_cycles"), busy("cycle.event")),
        "cycle.stepped.runs": count("cycle.stepped.runs"),
        "cycle.stepped.self_s": busy("cycle.stepped"),
        "cycle.stepped.sim_cycles_per_s": rate(
            count("cycle.stepped.sim_cycles"), busy("cycle.stepped")),
        "core.kernel.runs": count("core.kernel.runs"),
        "core.kernel.self_s": busy("core.kernel"),
        "core.kernel.regions_committed":
            count("core.kernel.regions_committed"),
        "core.kernel.slices_analyzed": count("core.kernel.slices_analyzed"),
        "core.kernel.slices_merged": count("core.kernel.slices_merged"),
        "core.kernel.regions_per_s": rate(
            count("core.kernel.regions_committed"), busy("core.kernel")),
        "core.kernel.engine_used.object":
            count("core.kernel.engine_used.object"),
        "core.kernel.engine_used.soa": count("core.kernel.engine_used.soa"),
        "core.replay.cells": count("core.replay.cells"),
        "core.replay.self_s": busy("core.replay"),
        "to_mesh.build_kernel.self_s": busy("to_mesh.build_kernel"),
        "core.compile.calls": count("core.compile.calls"),
        "core.compile.self_s": busy("core.compile"),
        "store.get.calls": count("store.get.calls"),
        "store.get.hits": count("store.get.hits"),
        "store.put.calls": count("store.put.calls"),
        "store.get.self_s": busy("store.get"),
        "store.put.self_s": busy("store.put"),
        "session.self_s": busy("session"),
        "session.prepass.self_s": busy("session.prepass"),
        "session.estimator_runs_computed":
            count("session.estimator_runs_computed"),
        "session.estimator_runs_cached":
            count("session.estimator_runs_cached"),
        "trace.wall_s": float(trace.get("wall_s", 0.0)),
    }
    episode = trace.get("service")
    stats = episode.stats if episode is not None else {}
    program_store = (stats.get("session", {}) or {}).get("program_store") \
        or {}
    service = stats.get("service", {})
    values["programstore.compiles"] = float(program_store.get("compiles", 0))
    values["programstore.hits"] = float(program_store.get("hits", 0))
    values["service.warm_requests"] = float(service.get("warm_requests", 0))
    values["service.cold_requests"] = float(service.get("cold_requests", 0))
    values["service.batches_drained"] = float(
        service.get("batches_drained", 0))
    values["service.coalesce_joins"] = float(
        stats.get("coalescing", {}).get("joins", 0))
    if episode is not None:
        lat = service_mixed.latency_summary(episode.replies)
        values["service.requests"] = float(lat["requests"])
        values["service.req_p50_ms"] = lat["p50_ms"]
        values["service.req_p90_ms"] = lat["p90_ms"]
        values["service.req_per_s"] = rate(len(episode.replies),
                                           episode.wall_s)
        values["service.warm_p50_ms"] = lat["warm_p50_ms"]
        values["service.cold_p50_ms"] = lat["cold_p50_ms"]
        values["trace.wall_s"] = episode.wall_s
    else:
        for name in ("service.requests", "service.req_p50_ms",
                     "service.req_p90_ms", "service.req_per_s",
                     "service.warm_p50_ms", "service.cold_p50_ms"):
            values[name] = 0.0
    return values


def finish_traced(out: Outcome, traces: List[Optional[Dict]],
                  plain_wall: float, workload: str) -> None:
    """Per-layer metrics, the exact-counter check and the overhead."""
    out.check(True, "traced units left a trace", count=len(traces),
              failed=traces.count(None))
    traces = [trace for trace in traces if trace is not None]
    if len(traces) < 2:
        return
    skip = TIMING_DEPENDENT.get(workload, set())
    first, second = traces[0]["counters"], traces[1]["counters"]
    differing = [name for name in tracer.EXACT_COUNTERS
                 if name not in skip
                 and first.get(name, 0) != second.get(name, 0)]
    out.check(not differing, "exact work counters of two traced runs")
    if differing:
        out.report.append("counters differing between traced runs: "
                          + ", ".join(differing))
    units = layer_units()
    runs = [layer_values(trace) for trace in traces]
    values = {name: median([run[name] for run in runs])
              for name in units if name != "trace.overhead_s"}
    values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
    out.metrics = {name: metric(values[name], unit)
                   for name, unit in units.items()}
    total = values["trace.wall_s"]
    shares = sorted(((busy, name[:-len(".self_s")])
                     for name, busy in values.items()
                     if name.endswith(".self_s") and busy > 0),
                    reverse=True)
    out.report.append("layer self-time shares of traced wall: " + ", ".join(
        f"{name} {100 * busy / total:.1f}%" for busy, name in shares))
    out.report.append(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
                      f"(traced {total:.3f} s, untraced {plain_wall:.3f} s)")
    out.report.append(f"spans: {len(traces[0]['spans'])} in "
                      f"{OUT.name}/trace-{workload}-0.json")


# -- entry point -------------------------------------------------------------

RUNNERS = {
    ("paper-all", False): paper_all_timed,
    ("paper-all", True): paper_all_traced,
    ("service-mixed", False): service_mixed_timed,
    ("service-mixed", True): service_mixed_traced,
}


def write_references() -> None:
    """Recompute the committed default-seed references from this checkout."""
    common.REFERENCE.mkdir(exist_ok=True)
    unit = paper_all.run_unit()
    if unit.returncode != 0:
        raise BenchError("repro all failed")
    with open(paper_all.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        handle.write(paper_all.normalize(unit.stdout.decode("utf-8")))
    seed = service_mixed.DEFAULT_SEED
    documents = service_mixed.specs(seed)
    common.save_json(service_mixed.reference_file(seed),
                     {"specs": documents,
                      "cells": service_mixed.compute_reference(documents)},
                     indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # A server is stopped with SIGINT.  Started in the background, this
    # process may inherit SIGINT ignored and would pass that on to the
    # server; a handler here is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    run_on([PROGRAM_CPU])
    try:
        fresh_dir(WORK)
        OUT.mkdir(exist_ok=True)
        # Users run with compiled bytecode cached; so does every unit.
        if run_child(WARM_UP_ARGV, capture=False).returncode != 0:
            raise BenchError("the program does not import")
        if args.write_reference:
            write_references()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        out = Outcome()
        try:
            RUNNERS[(args.workload, bool(args.trace))](args.seed,
                                                       args.seconds, out)
        except BenchError:
            raise
        except Exception as err:  # the program misbehaved: a failed run
            traceback.print_exc()
            out.check(False, f"the run stopped: {err!r}")
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        remove_dir(WORK)
    env = environment()
    result = out.result()
    print(f"workload: {args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    for line in out.report:
        print(line)
    for problem in out.problems:
        print(f"MISMATCH: {problem}")
    print(f"digest: {out.digest}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, value in out.metrics.items():
        print(f"{name}: {value['value']:.6g} {value['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
