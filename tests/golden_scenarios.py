"""Deterministic kernel scenarios + snapshots for golden equivalence tests.

The golden equivalence suite (``test_core_kernel_equivalence.py``) pins
the hybrid kernel's observable behavior bit-for-bit: every scenario here
is run across the full configuration matrix (sync policy x min_timeslice
x fault plan) and the complete outcome — statistics and trace event
stream — is serialized with exact float values (``float.hex``).  The
committed snapshot file ``data/golden_kernel.json`` was generated by the
*seed* kernel (pre-optimization) via ``generate_golden.py``; optimized
kernel paths must reproduce it exactly.

The snapshot file predates the removal of the kernel's slice-memo cache
and still carries that axis: every configuration has a ``memo=0`` and a
``memo=1`` entry, each with a ``memo`` hit/miss/eviction counter
triple.  A memoized run was the same run plus counters, so both entries
of a configuration are checked against one memo-less run on every field
except that triple (:func:`iter_golden_entries`, :func:`golden_expected`).

Scenarios deliberately cover the kernel features that interact with
slice accounting: multi-resource demand, regions without accesses,
fractional access counts, zero-duration regions, ``extra_time``, burst
transfers, staggered start times (idle jumps), processor affinity,
priorities, every synchronization primitive, and dynamic thread spawn.
"""

from __future__ import annotations

from repro.contention import ChenLinModel, MD1Model, MM1Model
from repro.core import (HybridKernel, LogicalThread, Processor,
                        SharedResource)
from repro.core.events import (acquire, barrier_wait, cond_notify,
                               cond_wait, consume, release, sem_acquire,
                               sem_release, spawn)
from repro.core.scheduler import PriorityScheduler
from repro.core.sync import Barrier, ConditionVariable, Mutex, Semaphore
from repro.robustness.faults import FaultPlan, FaultWindow

SYNC_POLICIES = ("eager", "deferred")
MIN_TIMESLICES = (0.0, 6.0)


def make_fault_plan() -> FaultPlan:
    """The fault plan used by every ``fault=True`` configuration."""
    return FaultPlan([
        FaultWindow(resource="bus", start=10.0, end=60.0,
                    service_factor=1.5),
        FaultWindow(resource="bus", start=30.0, end=120.0,
                    fail_prob=0.35),
    ], seed=7)


def _basic(**kw) -> HybridKernel:
    """Four threads, two resources, mixed/fractional/absent accesses."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.5)]
    bus = SharedResource("bus", ChenLinModel(), service_time=2.0)
    mem = SharedResource("mem", MM1Model(), service_time=3.0)
    kernel = HybridKernel(procs, [bus, mem], **kw)

    def worker(idx):
        def body():
            for i in range(7):
                yield consume(40 + 11 * ((idx + i) % 5),
                              {"bus": 3 + (i + idx) % 4,
                               "mem": 1.5 + 0.5 * (i % 3)})
                if i % 3 == idx % 2:
                    yield consume(25 + idx)  # region with no accesses
        return body

    for idx in range(4):
        kernel.add_thread(
            LogicalThread(f"t{idx}", worker(idx), priority=idx % 3),
            start_time=5.0 * idx)
    return kernel


def _sync(**kw) -> HybridKernel:
    """Mutex / semaphore / condvar / barrier interplay on one bus."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    bus = SharedResource("bus", ChenLinModel(), service_time=2.0)
    kernel = HybridKernel(procs, [bus], **kw)
    lock = Mutex("m")
    sem = Semaphore(0, "s")
    bar = Barrier(3, "b")
    cond = ConditionVariable("c")
    guard = Mutex("cm")

    def producer():
        for i in range(5):
            yield consume(30 + i, {"bus": 4})
            yield acquire(lock)
            yield consume(10, {"bus": 2})
            yield release(lock)
            yield sem_release(sem)
        yield barrier_wait(bar)
        yield consume(20, {"bus": 3})

    def consumer():
        for i in range(5):
            yield sem_acquire(sem)
            yield acquire(lock)
            yield consume(12 + i, {"bus": 3})
            yield release(lock)
        yield barrier_wait(bar)
        yield consume(25, {"bus": 2})

    def watcher():
        yield consume(8)
        yield acquire(guard)
        yield cond_wait(cond, guard)
        yield consume(15, {"bus": 5})
        yield release(guard)
        yield barrier_wait(bar)

    def notifier():
        yield consume(40, {"bus": 6})
        yield acquire(guard)
        yield cond_notify(cond)
        yield release(guard)
        yield consume(18, {"bus": 2})

    kernel.add_thread(LogicalThread("prod", producer))
    kernel.add_thread(LogicalThread("cons", consumer))
    kernel.add_thread(LogicalThread("watch", watcher))
    kernel.add_thread(LogicalThread("notif", notifier), start_time=3.0)
    return kernel


def _burst(**kw) -> HybridKernel:
    """Burst transfers, zero-duration regions, and extra_time."""
    procs = [Processor("p0", 2.0), Processor("p1", 1.0)]
    bus = SharedResource("bus", ChenLinModel(), service_time=2.0)
    dma = SharedResource("dma", MD1Model(), service_time=4.0)
    kernel = HybridKernel(procs, [bus, dma], **kw)

    def dma_master():
        for i in range(6):
            yield consume(20 + i, {"dma": 2 + i % 2}, burst={"dma": 8})
            yield consume(0, {"bus": 2})  # zero-duration point access
        yield consume(30, {"bus": 4, "dma": 1}, burst={"dma": 4})

    def cpu(idx):
        def body():
            for i in range(8):
                yield consume(15 + idx + i % 4, {"bus": 3 + i % 3},
                              extra_time=6.0 if i % 4 == idx else 0.0)
                yield consume(10, {"dma": 0.5 * (1 + i % 2)})
        return body

    kernel.add_thread(LogicalThread("dma0", dma_master))
    kernel.add_thread(LogicalThread("cpu0", cpu(0)))
    kernel.add_thread(LogicalThread("cpu1", cpu(1)), start_time=4.0)
    return kernel


def _staggered(**kw) -> HybridKernel:
    """Priority scheduling, affinity pinning, and idle-time jumps."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    bus = SharedResource("bus", ChenLinModel(), service_time=2.0)
    kernel = HybridKernel(procs, [bus], scheduler=PriorityScheduler(),
                          **kw)

    def sparse(idx, start_gap):
        def body():
            for i in range(4):
                yield consume(12 + 3 * idx + i, {"bus": 2 + (i + idx) % 3})
        return body

    kernel.add_thread(
        LogicalThread("hi", sparse(0, 0), priority=5, affinity="p0"))
    kernel.add_thread(
        LogicalThread("lo", sparse(1, 0), priority=1, affinity="p0"),
        start_time=2.0)
    kernel.add_thread(
        LogicalThread("late", sparse(2, 0), priority=3),
        start_time=90.0)  # arrives after an idle gap
    return kernel


def _spawny(**kw) -> HybridKernel:
    """Dynamic thread spawn mid-run."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.0)]
    bus = SharedResource("bus", ChenLinModel(), service_time=2.0)
    kernel = HybridKernel(procs, [bus], **kw)

    def child(idx):
        def body():
            for i in range(3):
                yield consume(14 + idx + i, {"bus": 2 + i % 2})
        return body

    def parent():
        yield consume(20, {"bus": 3})
        yield spawn(LogicalThread("kid0", child(0)))
        yield consume(25, {"bus": 4})
        yield spawn(LogicalThread("kid1", child(1), priority=2))
        yield consume(15, {"bus": 2})

    def sibling():
        for i in range(5):
            yield consume(18 + i, {"bus": 3 + i % 2})

    kernel.add_thread(LogicalThread("parent", parent))
    kernel.add_thread(LogicalThread("sib", sibling), start_time=1.0)
    return kernel


SCENARIOS = {
    "basic": _basic,
    "sync": _sync,
    "burst": _burst,
    "staggered": _staggered,
    "spawny": _spawny,
}

# Each golden scenario doubles as a kernel-kind spec generator so the
# spec layer can be proven bit-identical against the same snapshots
# (replace=True keeps module re-imports idempotent).
from repro.scenario import ScenarioSpec, register_generator  # noqa: E402

for _name, _factory in SCENARIOS.items():
    register_generator(f"golden-{_name}", _factory, kind="kernel",
                       replace=True)


def spec_for(scenario: str, policy: str, mts: float,
             fault: bool) -> ScenarioSpec:
    """The :class:`ScenarioSpec` equivalent of one configuration cell."""
    return ScenarioSpec(
        generator=f"golden-{scenario}",
        sync_policy=policy,
        min_timeslice=mts,
        fault_plan=make_fault_plan().to_dict() if fault else None,
        trace=True,
    )


def run_config_from_spec(scenario: str, policy: str, mts: float,
                         fault: bool) -> dict:
    """Run one configuration spec-driven and return its snapshot.

    The spec is round-tripped through its canonical JSON first, so the
    snapshot certifies the *serialized* form — the thing a run store
    keys on — not just the in-memory object.
    """
    import json

    spec = ScenarioSpec.from_dict(
        json.loads(spec_for(scenario, policy, mts, fault)
                   .canonical_json()))
    kernel = spec.build_kernel()
    result = kernel.run()
    return snapshot(kernel, result)


def iter_configs():
    """Every (scenario, sync_policy, min_timeslice, fault) cell."""
    for scenario in SCENARIOS:
        for policy in SYNC_POLICIES:
            for mts in MIN_TIMESLICES:
                for fault in (False, True):
                    yield scenario, policy, mts, fault


def iter_golden_entries():
    """Every snapshot-file entry as ``(config, memo)``.

    Two entries per configuration: the file's ``memo=0`` and ``memo=1``
    keys (see the module docstring).
    """
    for config in iter_configs():
        for memo in (False, True):
            yield config, memo


def config_key(scenario: str, policy: str, mts: float, fault: bool,
               memo: bool = False) -> str:
    """Stable snapshot-dictionary key for one configuration entry."""
    return (f"{scenario}|{policy}|mts={mts:g}|fault={int(fault)}"
            f"|memo={int(memo)}")


def golden_expected(golden: dict, config, memo: bool) -> dict:
    """One entry's snapshot without its ``memo`` counter triple.

    A ``memo=0`` entry must carry all-zero counters, as every run does
    now; a ``memo=1`` entry's counters describe a cache that is gone.
    """
    expected = dict(golden[config_key(*config, memo)])
    counters = expected.pop("memo")
    if not memo:
        assert counters == [0, 0, 0]
    return expected


def run_config(scenario: str, policy: str, mts: float, fault: bool,
               **kernel_kwargs) -> dict:
    """Run one configuration and return its serialized snapshot.

    Extra ``kernel_kwargs`` reach the :class:`HybridKernel` constructor,
    letting the equivalence suite select alternative kernel paths (e.g.
    ``slice_accounting="rescan"``) against the same golden data.
    """
    kernel = SCENARIOS[scenario](
        sync_policy=policy,
        min_timeslice=mts,
        fault_plan=make_fault_plan() if fault else None,
        trace=True,
        **kernel_kwargs)
    result = kernel.run()
    return snapshot(kernel, result)


def _hex(value) -> str:
    return float(value).hex()


def _ser(value):
    """Recursively hex-serialize floats, preserving dict order."""
    if isinstance(value, float):
        return _hex(value)
    if isinstance(value, dict):
        return {key: _ser(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ser(item) for item in value]
    return value


def snapshot(kernel, result) -> dict:
    """Exact-float serialization of one finished kernel run."""
    return {
        "makespan": _hex(result.makespan),
        "regions_committed": result.regions_committed,
        "slices_analyzed": result.slices_analyzed,
        "slices_merged": result.slices_merged,
        "queueing": _hex(result.queueing_cycles),
        "threads": {
            name: [_hex(t.base_time), _hex(t.penalty), t.regions,
                   _hex(t.finish_time)]
            for name, t in result.threads.items()
        },
        "processors": {
            name: [_hex(p.busy_time), p.regions]
            for name, p in result.processors.items()
        },
        "resources": {
            name: [_hex(r.accesses), _hex(r.penalty), r.active_slices,
                   {t: _hex(v) for t, v in r.penalty_by_thread.items()},
                   _hex(r.faults_injected), _hex(r.retries_modeled),
                   _hex(r.accesses_dropped), _hex(r.retry_backoff),
                   r.degraded_slices]
            for name, r in result.resources.items()
        },
        "trace": [[e.kind, _hex(e.time), e.thread, e.processor,
                   _ser(e.detail)]
                  for e in kernel.trace.events],
    }
