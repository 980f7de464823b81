"""Process launching, CPU pinning, the speed probe, statistics and the
environment record.

Every program process the benchmark starts goes through
:func:`run_child` or :class:`Server`, which reap it with
``os.wait4`` so its peak resident set size is read from the kernel,
not sampled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Root of the checkout being measured (the benchmark lives one below).
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
#: Scratch space for stores and spec files; emptied at every start.
WORK = ROOT / ".perfbench_work"
#: Traces and run records kept after the run ends.
OUT = ROOT / ".perfbench_out"
PYTHON = sys.executable or "python3"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken launch)."""


def child_env() -> Dict[str, str]:
    """Environment of a program process: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # Cache compiled bytecode, as an installed program does; a host-wide
    # PYTHONDONTWRITEBYTECODE would otherwise recompile every module in
    # every process.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def remove_dir(path: Path) -> None:
    """Remove ``path`` and everything under it (inside the checkout only)."""
    if ROOT not in path.resolve().parents:
        raise BenchError(f"refusing to touch {path} outside the checkout")
    shutil.rmtree(path, ignore_errors=True)


def fresh_dir(path: Path) -> Path:
    """Recreate ``path`` empty."""
    remove_dir(path)
    path.mkdir(parents=True)
    return path


@dataclass
class ChildResult:
    wall_s: float
    returncode: int
    stdout: bytes
    peak_rss_mb: float


def _reap(proc: subprocess.Popen) -> tuple:
    """Wait for ``proc`` with ``wait4``; returns ``(status, rusage)``."""
    while True:
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            break
        except InterruptedError:
            continue
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def run_child(argv: Sequence[str], timeout: float = 150.0,
              capture: bool = True) -> ChildResult:
    """Run one program process to completion, timing launch to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=str(ROOT), env=child_env(),
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read() if capture else b""
        stderr = proc.stderr.read()
        _status, usage = _reap(proc)
    finally:
        killer.cancel()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode("utf-8", "replace")[-4000:])
    return ChildResult(wall, proc.returncode, stdout,
                       usage.ru_maxrss / 1024.0)


class Server:
    """A ``repro serve`` process: started, polled until healthy, stopped."""

    def __init__(self, argv: Sequence[str]):
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=str(ROOT), env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True)
        self.port: Optional[int] = None
        self.peak_rss_mb = 0.0

    def wait_listening(self, timeout: float = 60.0) -> None:
        """Read the port the server prints once its socket is bound."""
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            killer.cancel()
        marker = "http://"
        if marker not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def alive(self) -> bool:
        """Whether the server is still running; never reaps it."""
        if self.proc.returncode is not None:
            return False
        try:
            exited = os.waitid(os.P_PID, self.proc.pid,
                               os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:
            return False
        return exited is None

    def stop(self, timeout: float = 30.0) -> int:
        """Interrupt the server like a user at the terminal, then reap it."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        if self.alive():
            self.proc.send_signal(signal.SIGINT)
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            self.proc.stdout.read()
            _status, usage = _reap(self.proc)
        finally:
            killer.cancel()
            self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> Optional[float]:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for share in (0.99, 0.9, 0.5):
        if count * (1.0 - share) >= 10:
            return share
    return None


def digest(data) -> str:
    """Stable sha256 of JSON-serialisable simulated results."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Iterations of one speed-probe loop, and loops per probe (median).
PROBE_ITERATIONS = 3_000_000
PROBE_LOOPS = 3
#: A probe's time at reference speed: an adjusted time reads as if the
#: CPU ran at the speed that gives this probe time (about the probe's
#: median on the 2-vCPU VM the benchmark was built on).
PROBE_REFERENCE_S = 0.15


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop on the calling thread's CPU.

    On a shared host the speed of one vCPU drifts by tens of percent
    over minutes; the loop, run on the CPU the program runs on right
    before and after each unit of work, tracks that drift.
    """
    times = []
    for _ in range(PROBE_LOOPS):
        start = time.perf_counter()
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value
        times.append(time.perf_counter() - start)
    return median(times)


def adjusted(walls: Sequence[float], probes: Sequence[float]) -> list:
    """Unit times rescaled to reference CPU speed.

    ``probes[i]`` and ``probes[i + 1]`` are the speed probes taken right
    before and right after unit ``i``.
    """
    return [wall * PROBE_REFERENCE_S / ((probes[i] + probes[i + 1]) / 2)
            for i, wall in enumerate(walls)]


def _affinity() -> list:
    return (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else [])


#: The CPU every program process runs on, with the speed probe (the
#: highest one this process may use); the benchmark's own client threads
#: run on the others.  Pinning makes the probe see the CPU the program
#: saw: unpinned, a unit and a probe land on either vCPU, and a probe on
#: one says little about the other.
ALL_CPUS = _affinity()
PROGRAM_CPU = ALL_CPUS[-1] if ALL_CPUS else None
CLIENT_CPUS = [cpu for cpu in ALL_CPUS if cpu != PROGRAM_CPU] or ALL_CPUS


def run_on(cpus: Sequence[int]) -> None:
    """Move the calling thread, and what it starts from now on, to ``cpus``."""
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))


def environment() -> Dict[str, object]:
    """What a reader needs to tell host drift from a regression."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import importlib.util
        numba = importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        numba = False
    return {"nproc": os.cpu_count(), "affinity": ALL_CPUS,
            "program_cpu": PROGRAM_CPU,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy_version, "numba_present": numba,
            "machine": platform.machine(),
            "speed_probe": {"iterations": PROBE_ITERATIONS,
                            "loops": PROBE_LOOPS,
                            "median_s": speed_probe(),
                            "reference_s": PROBE_REFERENCE_S}}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Make the checkout's program importable in this process."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def reference_cells(path: Path, documents, compute):
    """Committed reference cells for ``documents``, else ``compute(documents)``."""
    if not path.exists():
        return compute(documents)
    committed = load_json(path)
    if committed["specs"] != json.loads(json.dumps(documents)):
        raise BenchError(f"{path.name} was made for other specs; "
                         f"refresh it with --write-reference")
    return committed["cells"]


def save_json(path: Path, data, indent: Optional[int] = None) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)

