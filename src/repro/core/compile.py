"""Lowering an assembled hybrid kernel to a flat array program.

The structure-of-arrays engine (:mod:`repro.core.soa`) runs the paper's
Fig. 2 commit loop over flat parallel arrays instead of Python objects.
This module is the compiler in front of it: it probes a fully assembled
— but never run — :class:`~repro.core.kernel.HybridKernel` and lowers
everything the engine needs into plain arrays:

* per-thread region streams (complexity, power-independent extra time,
  shared-resource access counts, burst beat factors), enumerated once
  from each thread's body generator at compile time;
* region durations, resolved against processor power with a vectorized
  NumPy pass whenever the placement is static (pinned threads, or a
  homogeneous processor pool) and handed back as plain Python floats so
  the runtime loop never touches array scalars;
* resource metadata (service times, ports, models) with exact-type
  fast-path kernels recognized for
  :class:`~repro.contention.constant.ConstantModel` and
  :class:`~repro.contention.constant.NullModel`.

Everything outside the compiled subset raises
:class:`~repro.core.errors.UnsupportedFeatureError`; the kernel catches
it and routes the run to the object engine with the feature recorded as
the fallback reason (never silent divergence).  The subset is exactly
the configurations whose object-engine semantics the array program can
reproduce bit for bit: FIFO-family scheduling, ``consume`` bodies plus
barrier-only synchronization and non-nested FIFO mutexes under the
eager wake policy (no semaphores, condition variables, or spawns), no
tracing, no fault plans, no budgets, and NumPy present.

Synchronization lowers to per-thread *op streams*: each thread body
becomes a sequence of ``(opcode, arg)`` tuples (:data:`OP_REGION`,
:data:`OP_BARRIER`, :data:`OP_ACQUIRE`, :data:`OP_RELEASE`) over the
same flat region arrays.  A static validation pass proves the program
deadlock-free before it is accepted: every barrier's party count must
equal the number of threads referencing it and each of those threads
must arrive the same number of times; mutex acquisitions must be
non-nested and balanced, never interleaved with a barrier wait, and
every primitive must start clean (no owner, no waiters, no pre-arrived
parties).  Anything violating those rules routes to the object engine,
which raises the canonical :class:`SynchronizationError` /
:class:`DeadlockError` diagnostics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import UnsupportedFeatureError
from .events import Acquire, BarrierWait, Consume, Release
from .scheduler import FifoScheduler, PinnedScheduler

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


def numpy_available() -> bool:
    """Whether the SoA engine's compile pass can run in this interpreter."""
    return _np is not None


#: Scheduler spec names whose pick policy the SoA engine replicates
#: (the FIFO family: single ready-order scan honoring affinity).
_SOA_SCHEDULERS = (None, "fifo", "pinned")

#: Version of the compiled subset / :class:`SoAProgram` layout.  Bumped
#: whenever the lowering or the program's array semantics change, it is
#: folded into :func:`repro.core.programstore.program_hash` so cached
#: serialized programs from an older lowering can never be replayed by
#: a newer runtime.  (v1: consume-only subset; v2: widened sync subset
#: + op streams; v3: hoisted NumPy segment boundaries + serializable
#: program layout; v4: interpreter-only replay, segment and JIT caches
#: dropped from the program.)
COMPILE_SUBSET_VERSION = 4

#: Op-stream opcodes.  ``OP_REGION``'s arg is the thread-local region
#: index; the sync opcodes carry a program-wide barrier/mutex index.
OP_REGION = 0
OP_BARRIER = 1
OP_ACQUIRE = 2
OP_RELEASE = 3


def soa_spec_fallback_reason(spec) -> Optional[str]:
    """Spec-level SoA routing probe — never materializes the workload.

    Returns the feature string that will route a
    :class:`~repro.scenario.spec.ScenarioSpec` to the object engine, or
    ``None`` when the spec *may* lower (the definitive probe runs on
    the assembled kernel, where thread bodies can be enumerated).  This
    is the check :func:`~repro.experiments.runner.run_comparison` and
    the sweep fabric consult before building anything, so a store-warm
    comparison with ``engine="soa"`` still does zero workload builds.
    """
    if _np is None:
        return "running without NumPy"
    if spec.trace:
        return "tracing"
    if spec.fault_plan is not None:
        return "fault plans"
    if spec.budget is not None:
        return "run budgets"
    if spec.scheduler not in _SOA_SCHEDULERS:
        return f"the {spec.scheduler!r} scheduler (FIFO family only)"
    return None


class SoAProgram:
    """A hybrid-kernel scenario lowered to flat parallel arrays.

    Thread-major region streams plus resource metadata; every value is
    a plain Python scalar, list, tuple, or dict so the runtime loop in
    :class:`~repro.core.soa.SoAKernelEngine` runs allocation-free over
    native types (NumPy is a compile-time tool here, not a runtime
    container — at in-flight set sizes of one region per processor,
    array dispatch costs more than it saves).
    """

    __slots__ = (
        "thread_names", "thread_priorities", "thread_affinity",
        "thread_release", "region_counts", "region_durations",
        "region_complexity", "region_extra", "region_accesses",
        "region_bursts", "resource_names", "resource_service",
        "resource_ports", "resource_models", "resource_uses_priorities",
        "resource_fast", "min_timeslice", "processor_powers",
        "processor_names", "registered_regions", "has_bursts",
        "thread_ops", "barriers", "barrier_parties", "mutexes",
        "has_sync",
    )

    def __init__(self) -> None:
        # -- threads (index-aligned with kernel.threads) ----------------
        self.thread_names: List[str] = []
        self.thread_priorities: List[int] = []
        #: Processor index the thread is pinned to, or ``None``.
        self.thread_affinity: List[Optional[int]] = []
        self.thread_release: List[float] = []
        self.region_counts: List[int] = []
        # -- per-thread region streams ----------------------------------
        #: Pre-resolved region durations (``None`` for unpinned threads
        #: on heterogeneous pools — resolved per placement at runtime).
        self.region_durations: List[Optional[List[float]]] = []
        self.region_complexity: List[List[float]] = []
        self.region_extra: List[List[float]] = []
        #: ``((resource_index, count), ...)`` per region, in the
        #: annotation's access-dict order (first-touch order downstream).
        self.region_accesses: List[List[Tuple[Tuple[int, float], ...]]] = []
        #: ``{resource_index: beats}`` per region, or ``None``.
        self.region_bursts: List[List[Optional[Dict[int, float]]]] = []
        # -- resources (index-aligned with kernel.shared_resources) -----
        self.resource_names: List[str] = []
        self.resource_service: List[float] = []
        self.resource_ports: List[int] = []
        self.resource_models: List[object] = []
        self.resource_uses_priorities: List[bool] = []
        #: ``("const", delay)`` / ``("null", None)`` exact-type fast
        #: kernels, or ``None`` for the generic ``model.penalties`` path.
        self.resource_fast: List[Optional[Tuple[str, Optional[float]]]] = []
        self.min_timeslice: float = 0.0
        self.processor_powers: List[float] = []
        #: Processor names, index-aligned with :attr:`processor_powers`
        #: — lets :mod:`repro.core.programstore` rebuild a replayable
        #: kernel from the serialized program without the workload.
        self.processor_names: List[str] = []
        #: Regions with accesses (the incremental-accounting
        #: ``regions_registered`` counter, known statically).
        self.registered_regions: int = 0
        #: Whether any region carries burst beat factors (gates the
        #: flat all-fast analysis mode in the runtime).
        self.has_bursts: bool = False
        # -- synchronization (the widened compiled subset) ---------------
        #: Per-thread ``(opcode, arg)`` streams.  ``OP_REGION`` args are
        #: thread-local region indices into the region arrays above; the
        #: sync opcodes index :attr:`barriers` / :attr:`mutexes`.
        self.thread_ops: List[List[Tuple[int, int]]] = []
        #: Live :class:`~repro.core.sync.Barrier` objects, in first-use
        #: order (generation counts are written back after a replay).
        self.barriers: List[object] = []
        self.barrier_parties: List[int] = []
        #: Live :class:`~repro.core.sync.Mutex` objects, in first-use
        #: order (contended-acquire counts are written back).
        self.mutexes: List[object] = []
        #: Whether any op stream contains a sync opcode (selects the
        #: sync-aware scheduling path in the runtime).
        self.has_sync: bool = False


def compile_kernel(kernel) -> SoAProgram:
    """Lower an assembled (never run) kernel into a :class:`SoAProgram`.

    Raises :class:`UnsupportedFeatureError` for anything outside the
    SoA engine's compiled subset.  The probe enumerates each thread
    body through a *fresh* generator (``thread._body()``), leaving the
    thread's own lazily-materialized generator untouched so the object
    engine can still run the kernel after a failed compile.
    """
    if _np is None:
        raise UnsupportedFeatureError("running without NumPy")
    if kernel.trace is not None:
        raise UnsupportedFeatureError("tracing")
    if kernel.fault_plan is not None:
        raise UnsupportedFeatureError("fault plans")
    if kernel.budget is not None:
        raise UnsupportedFeatureError("run budgets")
    scheduler = kernel.scheduler
    if type(scheduler) is not FifoScheduler \
            and type(scheduler) is not PinnedScheduler:
        raise UnsupportedFeatureError(
            f"the {type(scheduler).__name__} scheduler (FIFO family only)"
        )

    program = SoAProgram()
    program.min_timeslice = kernel.us.min_timeslice
    powers = [processor.power for processor in kernel.processors]
    program.processor_powers = powers
    program.processor_names = [processor.name
                               for processor in kernel.processors]
    homogeneous = len(set(powers)) == 1
    processor_index = {processor.name: index
                       for index, processor in enumerate(kernel.processors)}

    resource_index: Dict[str, int] = {}
    from ..contention.constant import ConstantModel, NullModel

    for index, resource in enumerate(kernel.shared_resources):
        resource_index[resource.name] = index
        program.resource_names.append(resource.name)
        program.resource_service.append(resource.service_time)
        program.resource_ports.append(resource.ports)
        model = resource.model
        program.resource_models.append(model)
        program.resource_uses_priorities.append(model.uses_priorities)
        # Exact types only: subclasses (and GuardedModel wrappers) may
        # observe their calls, so they keep the generic dispatch.
        if type(model) is NullModel:
            program.resource_fast.append(("null", None))
        elif type(model) is ConstantModel:
            program.resource_fast.append(("const", model.delay))
        else:
            program.resource_fast.append(None)

    for thread in kernel.threads:
        if thread._gen is not None or not callable(thread._body):
            raise UnsupportedFeatureError(
                "live-generator thread bodies (pass a generator factory)"
            )
    barrier_ids: Dict[int, int] = {}
    mutex_ids: Dict[int, int] = {}
    #: Per-barrier list of arrival counts, one entry per referencing
    #: thread — the static rendezvous-alignment proof obligation.
    barrier_arrivals: List[List[int]] = []
    for thread in kernel.threads:
        events = _probe_body(thread)
        program.thread_names.append(thread.name)
        program.thread_priorities.append(thread.priority)
        affinity = (processor_index[thread.affinity]
                    if thread.affinity is not None else None)
        program.thread_affinity.append(affinity)
        program.thread_release.append(thread.release_time)
        complexity = []
        extra = []
        accesses = []
        bursts = []
        ops: List[Tuple[int, int]] = []
        holding: Optional[int] = None
        my_arrivals: Dict[int, int] = {}
        for event in events:
            if type(event) is not Consume:
                # Any sync op: the array replay implements the eager
                # wake policy only (wakes at the exact unblocking time,
                # matching the default object-engine semantics).
                if kernel.sync_policy != "eager":
                    raise UnsupportedFeatureError(
                        f"synchronization under "
                        f"sync_policy={kernel.sync_policy!r} (eager only)"
                    )
                if type(event) is BarrierWait:
                    if holding is not None:
                        raise UnsupportedFeatureError(
                            f"barrier waits while holding a mutex "
                            f"(thread {thread.name!r})"
                        )
                    barrier = event.barrier
                    index = barrier_ids.get(id(barrier))
                    if index is None:
                        index = len(program.barriers)
                        barrier_ids[id(barrier)] = index
                        program.barriers.append(barrier)
                        program.barrier_parties.append(barrier.parties)
                        barrier_arrivals.append([])
                    my_arrivals[index] = my_arrivals.get(index, 0) + 1
                    ops.append((OP_BARRIER, index))
                elif type(event) is Acquire:
                    if holding is not None:
                        raise UnsupportedFeatureError(
                            f"nested mutex acquisition "
                            f"(thread {thread.name!r})"
                        )
                    mutex = event.mutex
                    index = mutex_ids.get(id(mutex))
                    if index is None:
                        index = len(program.mutexes)
                        mutex_ids[id(mutex)] = index
                        program.mutexes.append(mutex)
                    holding = index
                    ops.append((OP_ACQUIRE, index))
                else:  # Release — _probe_body admits nothing else
                    index = mutex_ids.get(id(event.mutex))
                    if index is None or holding != index:
                        # The object engine raises the canonical
                        # SynchronizationError with full context.
                        raise UnsupportedFeatureError(
                            f"mutex release without a matching acquire "
                            f"(thread {thread.name!r})"
                        )
                    holding = None
                    ops.append((OP_RELEASE, index))
                program.has_sync = True
                continue
            ops.append((OP_REGION, len(complexity)))
            complexity.append(event.complexity)
            extra.append(event.extra_time)
            pairs = []
            for name, count in event.accesses.items():
                target = resource_index.get(name)
                if target is None:
                    # The object engine raises the canonical
                    # ConfigurationError with full context when this
                    # region starts; route there instead of duplicating
                    # the diagnosis here.
                    raise UnsupportedFeatureError(
                        f"accesses to unregistered shared resource "
                        f"{name!r}"
                    )
                pairs.append((target, count))
            accesses.append(tuple(pairs))
            if event.burst:
                bursts.append({resource_index[name]: beats
                               for name, beats in event.burst.items()
                               if name in resource_index})
                program.has_bursts = True
            else:
                bursts.append(None)
        if holding is not None:
            raise UnsupportedFeatureError(
                f"thread {thread.name!r} ends holding a mutex"
            )
        for index, count in my_arrivals.items():
            barrier_arrivals[index].append(count)
        program.thread_ops.append(ops)
        program.region_counts.append(len(complexity))
        program.region_complexity.append(complexity)
        program.region_extra.append(extra)
        program.region_accesses.append(accesses)
        program.region_bursts.append(bursts)
        program.registered_regions += sum(1 for pairs in accesses if pairs)
        if complexity and (affinity is not None or homogeneous):
            # Static placement: resolve every duration in one
            # vectorized pass.  float64 element-wise divide/add are the
            # same IEEE-754 operations the object engine performs one
            # region at a time, so the handed-back Python floats are
            # bit-identical to Processor.duration_of() + extra_time.
            power = powers[affinity if affinity is not None else 0]
            durations = (_np.asarray(complexity, dtype=_np.float64) / power
                         + _np.asarray(extra, dtype=_np.float64))
            program.region_durations.append(durations.tolist())
        elif complexity:
            program.region_durations.append(None)
        else:
            program.region_durations.append([])

    # Static deadlock-freedom proof for the widened subset: aligned
    # barrier generations (each party arrives the same number of times,
    # party count equals the referencing threads) plus non-nested
    # balanced mutexes mean every blocked thread is eventually woken —
    # mutex holders run only finite regions before their release, and
    # by induction every barrier generation fills.
    for index, barrier in enumerate(program.barriers):
        if barrier.arrived:
            raise UnsupportedFeatureError(
                f"barrier {barrier.name!r} with pre-arrived waiters"
            )
        counts = barrier_arrivals[index]
        if barrier.parties != len(counts):
            raise UnsupportedFeatureError(
                f"barrier {barrier.name!r} parties ({barrier.parties}) "
                f"!= referencing threads ({len(counts)})"
            )
        if len(set(counts)) > 1:
            raise UnsupportedFeatureError(
                f"barrier {barrier.name!r} with uneven per-thread "
                f"arrival counts"
            )
    for mutex in program.mutexes:
        if mutex.owner is not None or mutex.waiters:
            raise UnsupportedFeatureError(
                f"mutex {mutex.name!r} that starts held or contended"
            )
    return program


#: Event types the op-stream lowering understands (exact types only —
#: subclasses may carry semantics the static validation cannot see).
_COMPILED_EVENTS = (Consume, BarrierWait, Acquire, Release)


def _probe_body(thread) -> List[object]:
    """Enumerate one thread body's events within the compiled subset.

    Admits plain consumes plus the widened sync subset (barrier waits
    and mutex acquire/release); everything else — semaphores, condition
    variables, spawns — routes to the object engine.
    """
    body = thread._body()
    if not hasattr(body, "__next__"):
        raise UnsupportedFeatureError(
            f"thread {thread.name!r} body factories that do not return "
            f"a generator"
        )
    events: List[object] = []
    for event in body:
        if type(event) not in _COMPILED_EVENTS:
            raise UnsupportedFeatureError(
                f"{type(event).__name__} events "
                f"(thread {thread.name!r})"
            )
        events.append(event)
    return events
