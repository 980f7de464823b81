"""Property-based equivalence: stepped vs event-driven cycle engines.

The event engine is only allowed to exist because it is bit-identical to
the honest cycle-stepped reference; these tests enforce that on random
workloads, arbiters, platforms, barrier and lock structures, multi-port
resources, grant logs, and the budget and event-limit abort paths.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import BudgetExceededError
from repro.cycle import EventEngine, SteppedEngine
from repro.robustness.budget import RunBudget
from repro.workloads.synthetic import random_workload
from repro.workloads.trace import (BarrierOp, IdleOp, LockOp, Phase,
                                   ProcessorSpec, ResourceSpec,
                                   ThreadTrace, UnlockOp, Workload)

ARBITERS = ["fifo", "roundrobin", "priority"]


def assert_same_stats(stepped, event):
    """Every reported figure except ``cycles_executed`` (which counts
    cycles for one engine and events for the other) must match."""
    assert stepped.makespan == event.makespan
    assert stepped.queueing_cycles == event.queueing_cycles
    assert stepped.threads == event.threads
    assert stepped.resources == event.resources
    assert stepped.grants == event.grants


def assert_identical(workload, arbiter="fifo", record_grants=False):
    stepped = SteppedEngine(workload, arbiter=arbiter,
                            record_grants=record_grants).run()
    event = EventEngine(workload, arbiter=arbiter,
                        record_grants=record_grants).run()
    assert_same_stats(stepped, event)
    logged = sum(r.grants for r in event.resources.values())
    assert len(event.grants) == (logged if record_grants else 0)
    return stepped


def rich_workload(rng: random.Random) -> Workload:
    """A random workload using every trace feature the engines model.

    Threads mix phases of every placement pattern and burst length
    over two resources (each with 1-3 ports), idle gaps, non-nested
    critical sections on two mutexes, and barriers.  Barriers are
    crossed in one global order by a random subset of threads each,
    and no lock is held across a barrier, so every workload runs to
    completion.
    """
    n_threads = rng.randint(1, 4)
    barriers = [(f"b{k}", [t for t in range(n_threads)
                           if rng.random() < 0.7])
                for k in range(rng.randint(0, 3))]
    resources = ["bus", "dma"]

    def phase():
        return Phase(work=rng.randint(0, 300),
                     accesses=rng.randint(0, 10),
                     resource=rng.choice(resources),
                     pattern=rng.choice(["uniform", "front", "back",
                                         "random"]),
                     seed=rng.getrandbits(16),
                     burst=rng.choice([1, 1, 2, 3]))

    def segment():
        items = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.55:
                items.append(phase())
            elif roll < 0.75:
                items.append(IdleOp(rng.randint(0, 200)))
            else:
                lock = rng.choice(["m0", "m1"])
                items += [LockOp(lock), phase(), UnlockOp(lock)]
        return items

    threads = []
    for t in range(n_threads):
        items = segment()
        for barrier_id, members in barriers:
            if t in members:
                items.append(BarrierOp(barrier_id))
            items += segment()
        threads.append(ThreadTrace(
            f"t{t}", items, priority=rng.randint(0, 2),
            affinity=f"p{t}" if rng.random() < 0.5 else None))
    return Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}",
                                  rng.choice([0.5, 1.0, 1.5, 2.0]))
                    for i in range(n_threads)],
        resources=[ResourceSpec(name, rng.randint(1, 6),
                                ports=rng.randint(1, 3))
                   for name in resources],
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       arbiter=st.sampled_from(ARBITERS))
def test_rich_workloads_identical_with_grant_logs(seed, arbiter):
    workload = rich_workload(random.Random(seed))
    assert_identical(workload, arbiter, record_grants=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       arbiter=st.sampled_from(ARBITERS),
       pick=st.floats(min_value=0.0, max_value=1.0))
def test_budget_exhaustion_identical(seed, arbiter, pick):
    """Both engines abort at the same cycle with the same reason and
    the same partial statistics.

    The limit sits one cycle before a grant, so the first cycle past
    it is an event time — the only times the event engine checks.
    """
    workload = rich_workload(random.Random(seed))
    full = EventEngine(workload, arbiter=arbiter,
                       record_grants=True).run()
    times = sorted({g.grant_time for g in full.grants
                    if g.grant_time > 0})
    assume(times)
    limit = times[int(pick * (len(times) - 1))] - 1
    budget = RunBudget(max_virtual_time=limit)
    aborted = []
    for engine in (SteppedEngine, EventEngine):
        with pytest.raises(BudgetExceededError) as info:
            engine(workload, arbiter=arbiter, record_grants=True,
                   budget=budget).run()
        aborted.append(info.value)
    stepped, event = aborted
    assert stepped.reason == event.reason
    assert stepped.partial_result.makespan == limit + 1
    assert_same_stats(stepped.partial_result, event.partial_result)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       arbiter=st.sampled_from(ARBITERS))
def test_max_events_overflow_boundary(seed, arbiter):
    """The event limit admits exactly the run's event count."""
    workload = rich_workload(random.Random(seed))
    full = EventEngine(workload, arbiter=arbiter).run()
    exact = EventEngine(workload, arbiter=arbiter,
                        max_events=full.cycles_executed).run()
    assert exact == full
    limit = full.cycles_executed - 1
    with pytest.raises(RuntimeError, match=f"exceeded {limit} events"):
        EventEngine(workload, arbiter=arbiter, max_events=limit).run()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       arbiter=st.sampled_from(["fifo", "roundrobin", "priority"]))
def test_random_workloads_identical(seed, arbiter):
    workload = random_workload(random.Random(seed))
    assert_identical(workload, arbiter)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_threads=st.integers(min_value=2, max_value=4),
       n_phases=st.integers(min_value=1, max_value=5),
       service=st.integers(min_value=1, max_value=8))
def test_barrier_locked_workloads_identical(seed, n_threads, n_phases,
                                            service):
    rng = random.Random(seed)
    threads = []
    for t in range(n_threads):
        items = []
        for p in range(n_phases):
            items.append(Phase(work=rng.randint(0, 800),
                               accesses=rng.randint(0, 30),
                               pattern="random",
                               seed=rng.getrandbits(20)))
            items.append(BarrierOp(f"b{p}"))
        threads.append(ThreadTrace(f"t{t}", items, affinity=f"p{t}"))
    workload = Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}",
                                  rng.choice([0.5, 1.0, 2.0]))
                    for i in range(n_threads)],
        resources=[ResourceSpec("bus", service)],
    )
    assert_identical(workload)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_multi_resource_workloads_identical(seed):
    rng = random.Random(seed)
    threads = []
    for t in range(3):
        items = [Phase(work=rng.randint(10, 500),
                       accesses=rng.randint(0, 20),
                       resource=rng.choice(["bus", "dma"]),
                       pattern="random", seed=rng.getrandbits(16))
                 for _ in range(4)]
        threads.append(ThreadTrace(f"t{t}", items, affinity=f"p{t}"))
    workload = Workload(
        threads=threads,
        processors=[ProcessorSpec(f"p{i}") for i in range(3)],
        resources=[ResourceSpec("bus", 4), ResourceSpec("dma", 2)],
    )
    assert_identical(workload)


def test_fft_workload_identical():
    from repro.workloads.fft import fft_workload

    workload = fft_workload(points=1024, processors=2, cache_kb=8)
    assert_identical(workload)


def test_phm_workload_identical():
    from repro.workloads.phm import phm_workload

    workload = phm_workload(busy_cycles_target=30_000, seed=5)
    assert_identical(workload)


def test_event_engine_is_cheaper_than_stepped():
    """The event engine must touch far fewer events than cycles."""
    from repro.workloads.synthetic import uniform_workload

    workload = uniform_workload(threads=2, phases=4, work=20_000,
                                accesses=50)
    stepped = SteppedEngine(workload).run()
    event = EventEngine(workload).run()
    assert event.cycles_executed < stepped.cycles_executed / 10
