"""service-mixed: ``repro serve`` on a fresh store under a closed loop.

One episode starts the server the way a user does (``repro serve`` with
the CLI defaults; only the quota is raised so the loop never sees a
429), waits for the first 200 from ``/v1/healthz``, then two client
connections drive 300 ``/v1/analyze`` requests: each connection sends
its next request only after the previous reply.  Of the 300, 60 name a
spec for the first time (cold: all three estimators, compiled through
the batched SoA prepass) and 240 repeat an earlier spec (warm store
reads, or coalesced joins while the first is still running).  The load
generator uses only ``http.client`` so a change to the program cannot
change its load.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from common import (BENCH, CLIENT_CPUS, PROGRAM_CPU, PYTHON, REFERENCE,
                    BenchError, Server, import_program, percentile,
                    reference_cells, run_on)

DEFAULT_SEED = 0
REQUESTS = 300
NEW_SPECS = 60
CONNECTIONS = 2
ESTIMATORS = ("iss", "mesh", "analytical")
IDLE = (0.06, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9)
BUS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0)
#: The quota is the one setting changed from the CLI defaults.
QUOTA = ["--quota-capacity", "1000000", "--quota-refill", "1000000"]


def reference_file(seed: int) -> Path:
    return REFERENCE / f"service_mixed_seed{seed}.json"


def specs(seed: int) -> List[Dict]:
    """``NEW_SPECS`` phm documents; the seed picks generator seeds only."""
    rng = random.Random(f"service-mixed:{seed}")
    return [{"generator": "phm",
             "params": {"seed": rng.randrange(1 << 30),
                        "idle_fractions": [0.06, IDLE[i % len(IDLE)]],
                        "bus_service": BUS[(i // len(IDLE)) % len(BUS)]}}
            for i in range(NEW_SPECS)]


def sequence(seed: int) -> List[int]:
    """Spec index of each request: first sight of a spec or a repeat."""
    rng = random.Random(f"service-mixed-order:{seed}")
    first = {0} | set(rng.sample(range(1, REQUESTS), NEW_SPECS - 1))
    order: List[int] = []
    issued = 0
    for position in range(REQUESTS):
        if position in first:
            order.append(issued)
            issued += 1
        else:
            order.append(rng.randrange(issued))
    return order


def server_argv(store: Path, trace_out: Optional[Path] = None) -> List[str]:
    serve = ["serve", "--port", "0", "--cache-dir", str(store)] + QUOTA
    if trace_out is None:
        return [PYTHON, "-m", "repro"] + serve
    return [PYTHON, str(BENCH / "tracer.py"), "--out",
            str(trace_out)] + serve


@dataclass
class Reply:
    index: int
    latency_s: float
    status: int
    source: str
    queueing: Dict[str, str] = field(default_factory=dict)


@dataclass
class Episode:
    setup_s: Optional[float]
    wall_s: float
    peak_rss_mb: float
    replies: List[Reply]
    stats: Dict
    #: What went wrong with the server itself, if anything.
    fault: Optional[str] = None


def _get(port: int, path: str) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _queueing(payload) -> Optional[Dict[str, str]]:
    """Each estimator's ``queueing_cycles`` as a hex float.

    None when the payload does not have that shape.
    """
    try:
        return {estimator: float(run["queueing_cycles"]).hex()
                for estimator, run in payload["runs"].items()}
    except (KeyError, TypeError, AttributeError, ValueError):
        return None


def _client(port: int, documents: List[Dict], order: List[int],
            cursor: List[int], lock: threading.Lock,
            replies: List[Reply]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            if position >= len(order):
                return
            index = order[position]
            body = json.dumps({"spec": documents[index],
                               "tenant": "bench"})
            start = time.perf_counter()
            try:
                conn.request("POST", "/v1/analyze", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read() or b"null")
                status = response.status
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=120)
                payload, status = None, 0
            latency = time.perf_counter() - start
            queueing = _queueing(payload) if status == 200 else None
            source = (payload.get("source", "error")
                      if isinstance(payload, dict) else "error")
            replies.append(Reply(index, latency, status, source,
                                 queueing or {}))
    finally:
        conn.close()


def _healthy(server: Server) -> Optional[float]:
    """Seconds from launch to the first 200 from ``/v1/healthz``.

    None when the server never gets there: it did not start, or it
    did not answer within a minute.
    """
    try:
        server.wait_listening()
    except BenchError:
        return None
    while True:
        try:
            status, _ = _get(server.port, "/v1/healthz")
        except OSError:
            status = 0
        if status == 200:
            return time.perf_counter() - server.launched
        if (time.perf_counter() - server.launched > 60
                or not server.alive()):
            return None
        time.sleep(0.002)


def setup_only(store: Path) -> Optional[float]:
    """One server launch on a fresh store, stopped once healthy.

    None when the server did not become healthy or did not exit cleanly.
    """
    server = Server(server_argv(store))
    try:
        setup = _healthy(server)
    finally:
        code = server.stop()
    return setup if code == 0 else None


def run_episode(store: Path, documents: List[Dict], order: List[int],
                trace_out: Optional[Path] = None) -> Episode:
    """One server lifetime: launch, health, closed loop, stats, stop.

    A server that dies or misbehaves does not end the benchmark: the
    episode records what went wrong in ``fault`` and every one of its
    requests counts as failed.
    """
    server = Server(server_argv(store, trace_out))
    replies: List[Reply] = []
    stats = None
    fault = None
    wall = 0.0
    try:
        setup = _healthy(server)
        if setup is None:
            fault = "server did not become healthy"
        else:
            lock = threading.Lock()
            cursor = [0]
            clients = [threading.Thread(
                target=_client,
                args=(server.port, documents, order, cursor, lock, replies))
                for _ in range(CONNECTIONS)]
            # The server stays on the program CPU it started on; the
            # load generator runs on the others.
            run_on(CLIENT_CPUS)
            try:
                start = time.perf_counter()
                for client in clients:
                    client.start()
                for client in clients:
                    client.join()
                wall = time.perf_counter() - start
            finally:
                run_on([PROGRAM_CPU])
            try:
                status, stats = _get(server.port, "/v1/stats")
            except (OSError, http.client.HTTPException, ValueError):
                status = 0
            if status != 200 or not isinstance(stats, dict):
                fault, stats = "no /v1/stats reply", None
    finally:
        code = server.stop()
    if code != 0:
        fault = f"server exited with code {code}"
    return Episode(setup, wall, server.peak_rss_mb, replies, stats or {},
                   fault)


def compute_reference(documents: List[Dict]) -> List[Dict[str, str]]:
    """Every spec's three estimators, called one by one, no session.

    The server answers through the session, the store, the coalescer and
    the batched SoA prepass; this calls each estimator's engine directly
    (the MESH kernel on the object engine), so none of those layers is
    shared with the reference.
    """
    import_program()
    from repro.analytical import characterize, estimate_queueing
    from repro.cycle import EventEngine
    from repro.scenario import ScenarioSpec

    cells = []
    for document in documents:
        spec = ScenarioSpec.from_dict(document)
        workload = spec.build_workload()
        analytical = estimate_queueing(
            workload, model=spec.build_model(), models=spec.build_models(),
            profiles=characterize(workload))
        cells.append({
            "iss": float(EventEngine(workload).run().queueing_cycles).hex(),
            "mesh": float(spec.run().queueing_cycles).hex(),
            "analytical": float(analytical.queueing_cycles).hex(),
        })
    return cells


def reference(seed: int, documents: List[Dict]) -> List[Dict[str, str]]:
    return reference_cells(reference_file(seed), documents,
                           compute_reference)


def failures(episode: Episode, expected: List[Dict[str, str]]) -> int:
    """Requests not answered by a 200 carrying the reference's numbers.

    Counted against all ``REQUESTS``, so requests a client never sent
    count as failed; so does every request of an episode whose server
    faulted.
    """
    if episode.fault is not None:
        return REQUESTS
    good = sum(1 for reply in episode.replies
               if reply.status == 200
               and reply.queueing == expected[reply.index])
    return REQUESTS - good


def observed(episodes: List[Episode]) -> List[Optional[Dict[str, str]]]:
    """Each spec's numbers as the server returned them: its first 200 reply."""
    cells: List[Optional[Dict[str, str]]] = [None] * NEW_SPECS
    for episode in episodes:
        for reply in episode.replies:
            if reply.status == 200 and cells[reply.index] is None:
                cells[reply.index] = reply.queueing
    return cells


def accuracy(cells: List[Optional[Dict[str, str]]]) -> Dict[str, float]:
    """Mean |estimator - ISS| / ISS over the served specs, in percent."""
    out = {}
    for estimator in ("mesh", "analytical"):
        errors = []
        for cell in cells:
            if not cell or not all(k in cell for k in ESTIMATORS):
                continue
            iss = float.fromhex(cell["iss"])
            if iss > 0:
                errors.append(100.0 * abs(float.fromhex(cell[estimator])
                                          - iss) / iss)
        out[estimator + "_err_pct"] = (sum(errors) / len(errors)
                                       if errors else float("nan"))
    return out


def latency_summary(replies: List[Reply]) -> Dict[str, float]:
    """Client-side latency split by how the server answered."""
    every = [reply.latency_s * 1e3 for reply in replies]
    warm = [reply.latency_s * 1e3 for reply in replies
            if reply.source == "store"]
    cold = [reply.latency_s * 1e3 for reply in replies
            if reply.source in ("computed", "mixed")]
    return {"requests": len(every),
            "p50_ms": percentile(every, 0.5) if every else 0.0,
            "p90_ms": percentile(every, 0.9) if every else 0.0,
            "warm_p50_ms": percentile(warm, 0.5) if warm else 0.0,
            "cold_p50_ms": percentile(cold, 0.5) if cold else 0.0}
