"""Event-driven twin of the cycle-stepped engine.

Produces **bit-identical** results to :class:`~repro.cycle.stepped.
SteppedEngine` — same grants, same waits, same makespan — while skipping
every uneventful cycle, so it runs orders of magnitude faster.  The
experiments use it as the ground-truth generator for accuracy sweeps
(Figures 4-6) while the stepped engine provides the honest runtime
baseline for Table 1; an equivalence test suite keeps the twins locked
together.

Equivalence is by construction: events are processed in per-cycle
batches replicating the stepped engine's phase order (completions, then
advances in processor-index order, then one grant per free port), and
non-FIFO policies call the same arbiter objects the stepped engine
does.  A grant can only become newly possible at a completion or a new
request — both of which are events — so granting only at event times
loses nothing.

FIFO arbitration is a head pop: every request is appended at the
current batch time with the next global sequence number, and batch
times never decrease, so each queue is always sorted by
``(time, seq)`` — exactly the order :class:`~repro.cycle.arbiter.
FifoArbiter` would pick in.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

from ..core.errors import BudgetExceededError
from ..workloads.trace import Workload
from .arbiter import Request, make_arbiter
from .program import Program
from .program import coerce_workload as _coerce_workload
from .program import lower_workload
from .stats import CycleResult, GrantRecord, StatsBuilder


class _Lock:
    """A trace-level mutex: owner processor index plus FIFO waiters."""

    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters: List[int] = []


class EventEngine:
    """Exact event-driven shared-bus multiprocessor simulator.

    ``programs``, when given, must be ``lower_workload(workload)``:
    callers that already lowered the workload (the per-cell execution
    session shares one lowering between this engine and
    :func:`~repro.analytical.characterize`) pass it instead of paying
    for a second expansion.

    An optional ``budget`` (:class:`~repro.robustness.budget.RunBudget`)
    is checked once per event batch; exceeding it raises
    :class:`~repro.core.errors.BudgetExceededError` with the partial
    result so far.
    """

    def __init__(self, workload: Workload, arbiter: str = "fifo",
                 max_events: int = 200_000_000,
                 record_grants: bool = False,
                 budget=None,
                 programs: Optional[List[Program]] = None):
        workload, budget = _coerce_workload(workload, budget)
        self.workload = workload
        self.programs = (programs if programs is not None
                         else lower_workload(workload))
        self._arbiter_name = arbiter
        self._priorities = {p.thread_name: p.priority
                            for p in self.programs}
        self.max_events = int(max_events)
        self.record_grants = bool(record_grants)
        self.budget = budget

    def run(self) -> CycleResult:
        """Simulate to completion and return ground-truth statistics."""
        programs = self.programs
        specs = self.workload.resources
        total = len(programs)
        names = [program.thread_name for program in programs]
        ops_of = [program.ops for program in programs]
        lengths = [len(ops) for ops in ops_of]
        pcs = [0] * total
        compute = [0] * total
        wait = [0] * total
        service_of = [0] * total
        accesses = [0] * total
        finish = [0] * total
        finished = [False] * total

        resource_index = {spec.name: ri for ri, spec in enumerate(specs)}
        res_names = [spec.name for spec in specs]
        res_service = [max(1, int(round(spec.service_time)))
                       for spec in specs]
        res_ports = [spec.ports for spec in specs]
        queues: List[List[Request]] = [[] for _ in specs]
        busy = [0] * len(specs)
        fifo = self._arbiter_name == "fifo"
        # make_arbiter also rejects unknown policy names up front.
        arbiters = [make_arbiter(self._arbiter_name, self._priorities)
                    for _ in specs]
        grants = [0] * len(specs)
        busy_cycles = [0] * len(specs)
        res_wait = [0] * len(specs)
        grant_log: Optional[list] = [] if self.record_grants else None

        parties = self.workload.barrier_parties()
        arrivals = {name: [] for name in parties}
        locks = {name: _Lock() for name in self.workload.lock_ids()}

        def build(makespan: int, cycles_executed: int) -> CycleResult:
            stats = StatsBuilder(record_grants=self.record_grants)
            for index, program in enumerate(programs):
                name = names[index]
                stats.register_thread(name, program.processor.name)
                stats.compute[name] = compute[index]
                stats.service[name] = service_of[index]
                stats.wait[name] = wait[index]
                stats.accesses[name] = accesses[index]
                stats.finish[name] = finish[index]
            for ri, name in enumerate(res_names):
                stats.register_resource(name, res_service[ri])
                stats.resource_grants[name] = grants[ri]
                stats.resource_busy[name] = busy_cycles[ri]
                stats.resource_wait[name] = res_wait[ri]
            if grant_log is not None:
                stats.grant_log = grant_log
            return stats.build(makespan=makespan,
                               cycles_executed=cycles_executed)

        # Heap entries are (time, processor, resource): resource -1 is
        # a "ready" event, otherwise the processor's service on that
        # resource completes.  A processor never has two pending
        # events, so entries are unique and their order within one
        # time is irrelevant: the whole batch is drained first.
        heap = [(0, index, -1) for index in range(total)]
        seq = 0
        events = 0
        max_events = self.max_events
        meter = self.budget.start() if self.budget is not None else None

        while heap:
            t = heap[0][0]
            if meter is not None:
                reason = meter.check(t, events)
                if reason is not None:
                    raise BudgetExceededError(
                        reason,
                        partial_result=build(t, events),
                        budget=self.budget)
            # Phase 1+2a: drain the batch; completions free resources.
            work = []
            while heap and heap[0][0] == t:
                _, index, ri = heappop(heap)
                if ri >= 0:
                    busy[ri] -= 1
                work.append(index)
            events += len(work)
            if events > max_events:
                raise RuntimeError(
                    f"event simulation exceeded {max_events} events")
            # Phase 2b: advance in index order; barrier and lock
            # releases join the work heap within the same cycle.
            if len(work) > 1:
                heapify(work)
            while work:
                index = heappop(work)
                ops = ops_of[index]
                end = lengths[index]
                pc = pcs[index]
                while True:
                    if pc >= end:
                        finish[index] = t
                        finished[index] = True
                        break
                    kind, arg = ops[pc]
                    pc += 1
                    if kind == "compute":
                        cycles = int(arg)
                        compute[index] += cycles
                        heappush(heap, (t + cycles, index, -1))
                        break
                    if kind == "access":
                        burst = 1
                        if arg.__class__ is not str:
                            if isinstance(arg, tuple):
                                arg, burst = arg[0], int(arg[1])
                            arg = str(arg)
                        ri = resource_index[arg]
                        queues[ri].append(
                            Request(index, names[index], t, seq, burst))
                        seq += 1
                        break
                    if kind == "idle":
                        heappush(heap, (t + int(arg), index, -1))
                        break
                    if kind == "barrier":
                        barrier_id = str(arg)
                        arrived = arrivals[barrier_id]
                        arrived.append(index)
                        if len(arrived) < parties[barrier_id]:
                            break
                        for other in arrived:
                            if other != index:
                                heappush(work, other)
                        arrivals[barrier_id] = []
                        continue
                    if kind == "lock":
                        lock = locks[str(arg)]
                        if lock.owner is None:
                            lock.owner = index
                            continue
                        lock.waiters.append(index)
                        break
                    if kind == "unlock":
                        lock = locks[str(arg)]
                        if lock.owner != index:
                            raise RuntimeError(
                                f"thread {names[index]!r} unlocked "
                                f"{arg!r} held by {lock.owner!r}"
                            )
                        if lock.waiters:
                            lock.owner = lock.waiters.pop(0)
                            heappush(work, lock.owner)
                        else:
                            lock.owner = None
                        continue
                    raise TypeError(f"unknown micro-op {kind!r}")
                pcs[index] = pc
            # Phase 3: one grant per free port.
            for ri, queue in enumerate(queues):
                while queue and busy[ri] < res_ports[ri]:
                    request = (queue.pop(0) if fifo
                               else arbiters[ri].pick(queue))
                    owner = request.proc_index
                    service = res_service[ri] * request.burst
                    waited = t - request.time
                    wait[owner] += waited
                    service_of[owner] += service
                    accesses[owner] += 1
                    grants[ri] += 1
                    busy_cycles[ri] += service
                    res_wait[ri] += waited
                    if grant_log is not None:
                        grant_log.append(GrantRecord(
                            resource=res_names[ri], thread=names[owner],
                            request_time=request.time, grant_time=t,
                            service=service))
                    busy[ri] += 1
                    heappush(heap, (t + service, owner, ri))

        if not all(finished):
            blocked = [names[index] for index in range(total)
                       if not finished[index]]
            raise RuntimeError(
                f"event simulation stalled; threads parked forever at "
                f"barriers: {blocked}"
            )
        return build(max(finish) if finish else 0, events)
