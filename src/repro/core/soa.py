"""Structure-of-arrays execution engine for the Fig. 2 commit loop.

:func:`run_program` executes a compiled :class:`~repro.core.compile.
SoAProgram` — the paper's priority-queue commit loop (schedule, pop the
earliest end time, close the timeslice, fold analytical penalties) over
flat parallel arrays instead of ``AnnotationRegion`` / generator
objects.  Per committed region the object engine resumes a generator,
validates and copies a ``Consume`` event, allocates a region, and walks
a web of attribute loads; here every region is a pre-lowered row of
scalars indexed by its processor slot, so the loop touches only local
lists, tuples, and dicts.

Bit-identity with the object engine is a construction invariant, not an
aspiration; the correspondence rests on three structural facts:

* **Slot = processor.**  Each processor holds at most one in-flight
  region (the popped-for-commit region still occupies its processor
  until finalized), so region state lives in parallel lists indexed by
  processor — no allocation, no retirement bookkeeping.
* **Mirror heap.**  The commit queue is a ``heapq`` of ``(end_time,
  count, slot)`` scalar tuples built by the exact push/pop sequence of
  :class:`~repro.core.pqueue.RegionQueue`.  Compiled runs never shelve
  a region — synchronization in the widened subset blocks threads only
  *between* regions, never mid-flight — so the object queue holds zero
  stale entries and never compacts; both heap arrays evolve through
  identical sift operations and share one layout.  The slice-collection walk iterates that array
  in place, which reproduces the object engine's first-touch order, the
  only order that matters for float-sum identity downstream (each
  thread has at most one in-flight region, so any one window receives
  at most one contribution per (resource, thread) cell).
* **Same scalar ops.**  Every float expression — overlap fractions,
  demand accumulation, penalty folds, the analyze window bookkeeping —
  is transcribed from ``kernel.py`` / ``us.py`` operation for
  operation, including the epsilon thresholds (1e-9 kernel, 1e-12 US)
  and in-check vs ``.get``-based dict accumulation per code path.

NumPy does its work at compile time (vectorized duration lowering); the
runtime loop is pure Python over native scalars, where it beats array
dispatch at the in-flight set sizes this kernel sees (one region per
processor).  Closed-form fast paths are inlined for exact-type
``ConstantModel`` / ``NullModel`` resources; every other model takes
the generic :class:`~repro.contention.base.SliceDemand` +
``model.penalties()`` path, so guarded chains, priority models, and
user subclasses observe exactly the calls the object engine would make.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict

from ..contention.base import SliceDemand
from .errors import SimulationError
from .stats import SimulationResult, build_result
from .thread import ThreadState
from .us import _check_penalties

#: Shared read-only stand-ins mirroring the us-module singletons: an
#: empty mean-service map for burst-free windows, an empty priority map
#: for models with ``uses_priorities = False``, and an empty penalties
#: result for the NullModel fast path.  Never mutated.
_EMPTY_MEAN: Dict[str, float] = {}
_EMPTY_PRIORITIES: Dict[str, int] = {}
_EMPTY_PENALTIES: Dict[str, float] = {}

_GENERIC, _NULL, _CONST = 0, 1, 2


class SoAKernelEngine:
    """Thin façade pairing a kernel with its compiled array program.

    :class:`~repro.core.kernel.HybridKernel` constructs one after a
    successful compile; :meth:`run` executes the program and returns
    the same :class:`~repro.core.stats.SimulationResult` the object
    engine would have produced, bit for bit.
    """

    __slots__ = ("kernel", "program")

    def __init__(self, kernel, program):
        self.kernel = kernel
        self.program = program

    def run(self) -> SimulationResult:
        """Execute the program; see :func:`run_program`."""
        return run_program(self.kernel, self.program)


def run_program(kernel, program) -> SimulationResult:
    """Run a compiled program to completion on its kernel.

    Mutates the kernel's thread/processor/resource objects with the
    final statistics (exactly the values the object engine would have
    accumulated in place) and assembles the result through the shared
    :func:`~repro.core.stats.build_result` path.
    """
    us = kernel.us
    threads = kernel.threads
    processors = kernel.processors
    resources = kernel.shared_resources
    priorities = kernel._priorities

    nprocs = len(processors)
    nres = len(resources)

    # -- immutable program views ----------------------------------------
    tname = program.thread_names
    taff = [-1 if a is None else a for a in program.thread_affinity]
    tcount = program.region_counts
    tdurs = program.region_durations
    tcomp = program.region_complexity
    textra = program.region_extra
    tacc = program.region_accesses
    tburst = program.region_bursts
    tindex = {name: t for t, name in enumerate(tname)}
    powers = program.processor_powers
    r_names = program.resource_names
    service = program.resource_service
    ports = program.resource_ports
    models = program.resource_models
    uses_prio = program.resource_uses_priorities
    fast_code = []
    fast_delay = []
    for kind in program.resource_fast:
        if kind is None:
            fast_code.append(_GENERIC)
            fast_delay.append(0.0)
        elif kind[0] == "null":
            fast_code.append(_NULL)
            fast_delay.append(0.0)
        else:
            fast_code.append(_CONST)
            fast_delay.append(kind[1])
    min_timeslice = us.min_timeslice

    # -- mutable thread state (seeded from the live objects, so the
    # engine accumulates on whatever the kernel assembly left there,
    # exactly as the object engine's in-place ``+=`` would) -------------
    t_release = [thread.release_time for thread in threads]
    t_carry = [thread.carry_penalty for thread in threads]
    t_penalty = [thread.total_penalty for thread in threads]
    t_base = [thread.total_base_time for thread in threads]
    t_regions = [thread.regions_committed for thread in threads]
    t_finish = [thread.finish_time for thread in threads]
    t_next = [0] * len(threads)
    inflight = [-1] * len(threads)

    # -- in-flight region state, one slot per processor ------------------
    free = [True] * nprocs
    #: Count of ``True`` entries in ``free`` — lets the fill fixpoint
    #: stop the moment the platform is saturated instead of re-scanning
    #: every processor to discover nothing can be placed.
    nfree = nprocs
    r_thread = [-1] * nprocs
    r_base_start = [0.0] * nprocs
    r_base_end = [0.0] * nprocs
    r_end = [0.0] * nprocs
    r_pending = [0.0] * nprocs
    r_acc = [()] * nprocs
    r_burst = [None] * nprocs
    r_usdone = [True] * nprocs
    p_busy = [processor.busy_time for processor in processors]
    p_regions = [processor.regions_executed for processor in processors]

    # -- resource statistics / analysis window ---------------------------
    res_accesses = [resource.total_accesses for resource in resources]
    res_penalty = [resource.total_penalty for resource in resources]
    res_slices = [resource.active_slices for resource in resources]
    res_by_thread = [resource.penalty_by_thread for resource in resources]
    window_start = us.window_start
    collected_upto = us.collected_upto
    slices_analyzed = us.slices_analyzed
    slices_merged = us.slices_merged
    demand = [{} for _ in range(nres)]
    units_map = [None] * nres

    # -- flat analysis mode: when every resource takes a closed-form
    # fast path (ConstantModel / NullModel with a finite non-negative
    # delay), no region carries burst beats, and the per-thread penalty
    # ledgers start empty, the whole window pipeline runs over
    # thread-index lists — zero string hashing on the hot path.  The
    # per-(resource, thread) float-accumulation order is the heap-walk
    # first-touch order either way, so the flat mode is bit-identical
    # to the dict mode by the same argument that makes the dict mode
    # bit-identical to the object engine.
    nthreads = len(threads)
    flat = not program.has_bursts
    if flat:
        for ridx in range(nres):
            code = fast_code[ridx]
            if code == _GENERIC or \
                    (code == _CONST and not fast_delay[ridx] >= 0.0):
                flat = False
                break
        else:
            if any(res_by_thread):
                flat = False
    if flat:
        f_dem = [[0.0] * nthreads for _ in range(nres)]
        f_seen = [bytearray(nthreads) for _ in range(nres)]
        f_order = [[] for _ in range(nres)]
        f_tot_val = [0.0] * nthreads
        f_tot_seen = bytearray(nthreads)
        by_acc = [[0.0] * nthreads for _ in range(nres)]
        by_seen = [bytearray(nthreads) for _ in range(nres)]
        by_order = [[] for _ in range(nres)]
        f_acc = [0.0] * nres
        f_npos = [0] * nres
    #: Fused collection: with no window merging every analysis window
    #: closes at the commit that opened it, so each (resource, thread)
    #: pair receives at most one contribution per window (one walk per
    #: commit, at most one in-flight region per thread).  The walk can
    #: then write demand slots unconditionally and pre-aggregate the
    #: per-resource access sum / positive-demand count in stride, and
    #: the analyzer skips its accumulate and reset passes entirely.
    #: The float operation sequences are unchanged — ``f_acc`` starts
    #: at 0.0 and adds contributions in first-touch order, exactly the
    #: accumulate pass it replaces.
    fused = flat and not min_timeslice
    #: Flat mode: demand pending in the open window (replaces
    #: ``any(f_order)`` checks and gates the empty-window shortcut — a
    #: demand-free window only advances ``window_start`` and the slice
    #: counter, which the shortcut does without entering the analyzer).
    f_any = False
    #: In-flight regions not yet fully collected (``r_usdone`` False).
    #: Zero means the collection walk has nothing to visit — the
    #: pure-compute stretches the commit loop fast-forwards through.
    n_active = 0

    heap = []
    counter = 0
    ready = list(range(len(threads)))
    now = kernel.now
    regions_committed = kernel.regions_committed

    def analyze_window(start_w, end_w):
        """Evaluate every demanding resource's model over the window.

        The per-resource pipeline of ``SharedResourceScheduler.analyze``
        (legacy path) fused with ``_build_slice`` + ``_finish_resource``,
        healthy branch only — fault plans never compile.
        Batch grouping is deliberately absent: the batch layer is
        bit-identical to per-resource calls by contract, so the cheaper
        path is always safe here.
        """
        nonlocal window_start, slices_analyzed
        totals = {}
        for ridx in range(nres):
            demands = demand[ridx]
            if not demands:
                continue
            code = fast_code[ridx]
            if code == _CONST:
                delay = fast_delay[ridx]
                result = {tn: count * delay
                          for tn, count in demands.items() if count > 0}
                penalties = result if len(result) >= 2 else _EMPTY_PENALTIES
            elif code == _NULL:
                penalties = _EMPTY_PENALTIES
            else:
                units = units_map[ridx]
                if units is not None:
                    mean_service = {}
                    stime = service[ridx]
                    for tn, count in demands.items():
                        if count <= 0:
                            continue
                        beats = units.get(tn, count)
                        if abs(beats - count) > 1e-12 * max(1.0, abs(count)):
                            mean_service[tn] = stime * beats / count
                else:
                    mean_service = _EMPTY_MEAN
                if not uses_prio[ridx]:
                    trimmed = _EMPTY_PRIORITIES
                elif priorities.keys() <= demands.keys():
                    trimmed = priorities
                else:
                    trimmed = {tn: priorities[tn] for tn in demands
                               if tn in priorities}
                penalties = models[ridx].penalties(SliceDemand(
                    start_w, end_w, service[ridx], demands, trimmed,
                    ports[ridx], mean_service))
            accesses = sum(demands.values())
            res_accesses[ridx] += accesses
            if accesses > 0:
                res_slices[ridx] += 1
            if penalties:
                rtotal = res_penalty[ridx]
                by_thread = res_by_thread[ridx]
                for tn, pen in penalties.items():
                    if tn not in demands or not (pen >= 0.0):
                        _check_penalties(penalties, demands,
                                         resources[ridx])
                    if pen > 0:
                        if tn in totals:
                            totals[tn] = totals[tn] + pen
                        else:
                            totals[tn] = pen
                    rtotal += pen
                    if tn in by_thread:
                        by_thread[tn] = by_thread[tn] + pen
                    else:
                        by_thread[tn] = pen
                res_penalty[ridx] = rtotal
            demand[ridx] = {}
            units_map[ridx] = None
        window_start = end_w
        slices_analyzed += 1
        return totals

    def analyze_flat(end_w):
        """Flat-mode :func:`analyze_window`: index lists, no dicts.

        Returns the thread indices that took a positive penalty, in the
        order the dict mode would have inserted them into ``totals``;
        the per-thread amounts are left in ``f_tot_val`` for the caller
        to distribute (and reset).
        """
        nonlocal window_start, slices_analyzed, f_any
        t_order = []
        tv = f_tot_val
        ts = f_tot_seen
        for ridx in range(nres):
            o = f_order[ridx]
            if not o:
                continue
            d = f_dem[ridx]
            accesses = 0.0
            npos = 0
            for ti in o:
                c = d[ti]
                accesses += c
                if c > 0:
                    npos += 1
            res_accesses[ridx] += accesses
            if accesses > 0:
                res_slices[ridx] += 1
            if npos >= 2 and fast_code[ridx] == _CONST:
                delay = fast_delay[ridx]
                rtotal = res_penalty[ridx]
                ba = by_acc[ridx]
                bs = by_seen[ridx]
                bo = by_order[ridx]
                for ti in o:
                    c = d[ti]
                    if c <= 0:
                        continue
                    pen = c * delay
                    if pen > 0.0:
                        if ts[ti]:
                            tv[ti] = tv[ti] + pen
                        else:
                            ts[ti] = 1
                            t_order.append(ti)
                            tv[ti] = pen
                    elif not (pen >= 0.0):
                        # NaN from a degenerate count: rebuild the
                        # dicts and raise through the shared check.
                        _check_penalties(
                            {tname[i]: d[i] * delay
                             for i in o if d[i] > 0},
                            {tname[i]: d[i] for i in o},
                            resources[ridx])
                    rtotal += pen
                    ba[ti] = ba[ti] + pen
                    if not bs[ti]:
                        bs[ti] = 1
                        bo.append(ti)
                res_penalty[ridx] = rtotal
            s = f_seen[ridx]
            for ti in o:
                d[ti] = 0.0
                s[ti] = 0
            f_order[ridx] = []
        window_start = end_w
        slices_analyzed += 1
        f_any = False
        return t_order

    #: All-unpinned fast path: the affinity clause of the pick scan is
    #: vacuous, so drop it from the inner loop.
    no_affinity = max(taff, default=-1) < 0

    # -- synchronization state (the widened compiled subset) -------------
    # Live Barrier / Mutex objects were validated clean at compile time;
    # the replay tracks their state in parallel int lists and writes the
    # observable counters (generation, contended_acquires) back as
    # deltas after the run.  Sync-free programs never touch any of this
    # — the fill fixpoint below branches once per outer iteration.
    has_sync = program.has_sync
    if has_sync:
        tops = program.thread_ops
        ocount = [len(ops) for ops in tops]
        bar_parties = program.barrier_parties
        bar_arrived = [[] for _ in program.barriers]
        bar_generations = [0] * len(program.barriers)
        mux_owner = [-1] * len(program.mutexes)
        mux_waiters = [[] for _ in program.mutexes]
        mux_contended = [0] * len(program.mutexes)
        blocked = 0

    while True:
        # -- scheduling (Fig. 2 lines 2-7): fixpoint fill ----------------
        placed = True
        deadline = now + 1e-9
        if has_sync:
            # Op-stream fill: each pick advances the thread through its
            # ``(opcode, arg)`` stream in zero time — sync ops resolve
            # inline (the object engine's _advance_thread loop) until
            # the thread places a region, blocks, or exhausts.  A
            # blocked or exhausted pick leaves the processor free, so
            # the inner scan retries it against the remaining ready
            # set, exactly like the object fill.
            while placed and ready and nfree:
                placed = False
                for p in range(nprocs):
                    while free[p]:
                        picked = -1
                        for i, t in enumerate(ready):
                            a = taff[t]
                            if t_release[t] <= deadline and \
                                    (a < 0 or a == p):
                                del ready[i]
                                picked = t
                                break
                        if picked < 0:
                            break
                        placed = True
                        ops = tops[picked]
                        nops = ocount[picked]
                        while True:
                            idx = t_next[picked]
                            if idx >= nops:
                                # Stream exhausted, exactly where the
                                # object engine's generator would raise
                                # StopIteration.
                                t_finish[picked] = now
                                break
                            opcode, arg = ops[idx]
                            t_next[picked] = idx + 1
                            if opcode == 0:  # OP_REGION
                                carried = t_carry[picked]
                                t_carry[picked] = 0.0
                                durs = tdurs[picked]
                                duration = (
                                    durs[arg] if durs is not None
                                    else tcomp[picked][arg] / powers[p]
                                    + textra[picked][arg])
                                bend = now + duration
                                end = bend + carried
                                r_thread[p] = picked
                                r_base_start[p] = now
                                r_base_end[p] = bend
                                r_end[p] = end
                                r_pending[p] = 0.0
                                acc = tacc[picked][arg]
                                r_acc[p] = acc
                                r_burst[p] = tburst[picked][arg]
                                if acc:
                                    r_usdone[p] = False
                                    n_active += 1
                                else:
                                    r_usdone[p] = True
                                free[p] = False
                                nfree -= 1
                                inflight[picked] = p
                                counter += 1
                                heappush(heap, (end, counter, p))
                                break
                            if opcode == 1:  # OP_BARRIER
                                arrived = bar_arrived[arg]
                                arrived.append(picked)
                                if len(arrived) < bar_parties[arg]:
                                    blocked += 1
                                    break
                                # Last arriver: wake the waiters in
                                # arrival order (the object engine's
                                # max(release, now) + ready append),
                                # then continue this stream in zero
                                # time on the same processor.
                                for w in arrived:
                                    if w != picked:
                                        if now > t_release[w]:
                                            t_release[w] = now
                                        ready.append(w)
                                blocked -= len(arrived) - 1
                                bar_arrived[arg] = []
                                bar_generations[arg] += 1
                                continue
                            if opcode == 2:  # OP_ACQUIRE
                                if mux_owner[arg] < 0:
                                    mux_owner[arg] = picked
                                    continue
                                # Contended: count first, then queue —
                                # Mutex.enqueue order.
                                mux_contended[arg] += 1
                                mux_waiters[arg].append(picked)
                                blocked += 1
                                break
                            # OP_RELEASE: hand off FIFO, waking the new
                            # owner; the releaser keeps running.
                            waiters = mux_waiters[arg]
                            if waiters:
                                w = waiters.pop(0)
                                mux_owner[arg] = w
                                if now > t_release[w]:
                                    t_release[w] = now
                                ready.append(w)
                                blocked -= 1
                            else:
                                mux_owner[arg] = -1
                            continue
        else:
            while placed and ready and nfree:
                placed = False
                for p in range(nprocs):
                    while free[p]:
                        picked = -1
                        if no_affinity:
                            for i, t in enumerate(ready):
                                if t_release[t] <= deadline:
                                    del ready[i]
                                    picked = t
                                    break
                        else:
                            for i, t in enumerate(ready):
                                a = taff[t]
                                if t_release[t] <= deadline and \
                                        (a < 0 or a == p):
                                    del ready[i]
                                    picked = t
                                    break
                        if picked < 0:
                            break
                        placed = True
                        idx = t_next[picked]
                        if idx >= tcount[picked]:
                            # Region stream exhausted at pick time,
                            # exactly where the object engine's
                            # generator would raise StopIteration.
                            t_finish[picked] = now
                            continue
                        t_next[picked] = idx + 1
                        carried = t_carry[picked]
                        t_carry[picked] = 0.0
                        durs = tdurs[picked]
                        duration = (durs[idx] if durs is not None
                                    else tcomp[picked][idx] / powers[p]
                                    + textra[picked][idx])
                        bend = now + duration
                        end = bend + carried
                        r_thread[p] = picked
                        r_base_start[p] = now
                        r_base_end[p] = bend
                        r_end[p] = end
                        r_pending[p] = 0.0
                        acc = tacc[picked][idx]
                        r_acc[p] = acc
                        r_burst[p] = tburst[picked][idx]
                        if acc:
                            r_usdone[p] = False
                            n_active += 1
                        else:
                            r_usdone[p] = True
                        free[p] = False
                        nfree -= 1
                        inflight[picked] = p
                        counter += 1
                        heappush(heap, (end, counter, p))

        if heap:
            # -- pop the earliest end, folding pending penalty lazily ----
            while True:
                _end, _cnt, cp = heappop(heap)
                pend = r_pending[cp]
                if pend > 1e-9:
                    r_end[cp] = r_end[cp] + pend
                    r_pending[cp] = 0.0
                    counter += 1
                    heappush(heap, (r_end[cp], counter, cp))
                    continue
                r_pending[cp] = 0.0
                break

            # -- commit: advance time, close the slice -------------------
            t_i = r_end[cp]
            if t_i < now - 1e-9:
                raise SimulationError(
                    f"non-monotonic commit: {t_i} < {now}"
                )
            if t_i > now:
                now = t_i

            # Collection walk over the heap array in place (the object
            # engine's us.advance over queue._heap), then the popped
            # tail, mirroring us._contribute.  ``n_active == 0`` means
            # every in-flight region is already fully collected, so the
            # walk would visit nothing — skip it wholesale (this is the
            # fast-forward through pure-compute stretches).
            if n_active:
                start = collected_upto
                for _e, _c, p in heap:
                    if r_usdone[p]:
                        continue
                    base_start = r_base_start[p]
                    base_end = r_base_end[p]
                    duration = base_end - base_start
                    if duration <= 1e-12:
                        if start - 1e-12 <= base_start <= now + 1e-12:
                            r_usdone[p] = True
                            n_active -= 1
                            fraction = 1.0
                        else:
                            if base_start < start - 1e-12:
                                r_usdone[p] = True
                                n_active -= 1
                            continue
                    else:
                        lo = start if start > base_start else base_start
                        hi = now if now < base_end else base_end
                        if base_end <= now:
                            r_usdone[p] = True
                            n_active -= 1
                        if hi <= lo:
                            continue
                        fraction = (hi - lo) / duration
                    if fused:
                        ti = r_thread[p]
                        f_any = True
                        for ridx, count in r_acc[p]:
                            c = count * fraction
                            f_dem[ridx][ti] = c
                            f_order[ridx].append(ti)
                            f_acc[ridx] += c
                            if c > 0.0:
                                f_npos[ridx] += 1
                        continue
                    if flat:
                        ti = r_thread[p]
                        f_any = True
                        for ridx, count in r_acc[p]:
                            d = f_dem[ridx]
                            s = f_seen[ridx]
                            if s[ti]:
                                d[ti] = d[ti] + count * fraction
                            else:
                                s[ti] = 1
                                f_order[ridx].append(ti)
                                d[ti] = count * fraction
                        continue
                    tn = tname[r_thread[p]]
                    burst = r_burst[p]
                    for ridx, count in r_acc[p]:
                        per_thread = demand[ridx]
                        value = count * fraction
                        units = units_map[ridx]
                        if burst is not None:
                            beat = burst.get(ridx, 1.0)
                            if units is None and beat != 1.0:
                                units = dict(per_thread)
                                units_map[ridx] = units
                        else:
                            beat = 1.0
                        if tn in per_thread:
                            per_thread[tn] = per_thread[tn] + value
                        else:
                            per_thread[tn] = value
                        if units is not None:
                            units[tn] = units.get(tn, 0.0) + value * beat
                if not r_usdone[cp]:
                    base_start = r_base_start[cp]
                    base_end = r_base_end[cp]
                    duration = base_end - base_start
                    fraction = 0.0
                    if duration <= 1e-12:
                        if start - 1e-12 <= base_start <= now + 1e-12:
                            r_usdone[cp] = True
                            n_active -= 1
                            fraction = 1.0
                        elif base_start < start - 1e-12:
                            r_usdone[cp] = True
                            n_active -= 1
                    else:
                        lo = start if start > base_start else base_start
                        hi = now if now < base_end else base_end
                        if base_end <= now:
                            r_usdone[cp] = True
                            n_active -= 1
                        if hi > lo:
                            fraction = (hi - lo) / duration
                    if fraction and fused:
                        ti = r_thread[cp]
                        f_any = True
                        for ridx, count in r_acc[cp]:
                            c = count * fraction
                            f_dem[ridx][ti] = c
                            f_order[ridx].append(ti)
                            f_acc[ridx] += c
                            if c > 0.0:
                                f_npos[ridx] += 1
                    elif fraction and flat:
                        ti = r_thread[cp]
                        f_any = True
                        for ridx, count in r_acc[cp]:
                            d = f_dem[ridx]
                            s = f_seen[ridx]
                            if not s[ti]:
                                s[ti] = 1
                                f_order[ridx].append(ti)
                            # d[ti] starts at 0.0, so the unseen case
                            # is the object engine's
                            # ``.get(tn, 0.0) + value``.
                            d[ti] = d[ti] + count * fraction
                    elif fraction:
                        tn = tname[r_thread[cp]]
                        burst = r_burst[cp]
                        for ridx, count in r_acc[cp]:
                            per_thread = demand[ridx]
                            value = count * fraction
                            beat = (burst.get(ridx, 1.0)
                                    if burst is not None else 1.0)
                            units = units_map[ridx]
                            if units is None and beat != 1.0:
                                units = dict(per_thread)
                                units_map[ridx] = units
                            per_thread[tn] = per_thread.get(tn, 0.0) + value
                            if units is not None:
                                units[tn] = (units.get(tn, 0.0)
                                             + value * beat)
            if now > collected_upto:
                collected_upto = now

            # -- analysis (the inline early exits of us.analyze) ---------
            width = collected_upto - window_start
            if min_timeslice and width + 1e-12 < min_timeslice:
                if width > 1e-12:
                    slices_merged += 1
                totals = None
            elif fused:
                if f_any:
                    # Fused analyzer: accesses / positive-demand counts
                    # were pre-aggregated during the walk, and the
                    # single-contribution invariant means demand slots
                    # need no reset (the next window overwrites them).
                    totals = []
                    for ridx in range(nres):
                        o = f_order[ridx]
                        if not o:
                            continue
                        accesses = f_acc[ridx]
                        f_acc[ridx] = 0.0
                        res_accesses[ridx] += accesses
                        if accesses > 0:
                            res_slices[ridx] += 1
                        npos = f_npos[ridx]
                        f_npos[ridx] = 0
                        if npos >= 2 and fast_code[ridx] == _CONST:
                            d = f_dem[ridx]
                            delay = fast_delay[ridx]
                            rtotal = res_penalty[ridx]
                            ba = by_acc[ridx]
                            bs = by_seen[ridx]
                            bo = by_order[ridx]
                            for ti in o:
                                c = d[ti]
                                if c <= 0:
                                    continue
                                pen = c * delay
                                if pen > 0.0:
                                    if f_tot_seen[ti]:
                                        f_tot_val[ti] = f_tot_val[ti] + pen
                                    else:
                                        f_tot_seen[ti] = 1
                                        totals.append(ti)
                                        f_tot_val[ti] = pen
                                elif not (pen >= 0.0):
                                    _check_penalties(
                                        {tname[i]: d[i] * delay
                                         for i in o if d[i] > 0},
                                        {tname[i]: d[i] for i in o},
                                        resources[ridx])
                                rtotal += pen
                                ba[ti] = ba[ti] + pen
                                if not bs[ti]:
                                    bs[ti] = 1
                                    bo.append(ti)
                            res_penalty[ridx] = rtotal
                        f_order[ridx] = []
                    window_start = collected_upto
                    slices_analyzed += 1
                    f_any = False
                elif width <= 1e-12:
                    totals = None
                else:
                    # Demand-free window: the analyzer would skip every
                    # resource and only close the window.
                    window_start = collected_upto
                    slices_analyzed += 1
                    totals = None
            elif flat:
                if f_any:
                    # Inline copy of analyze_flat (the cold flush path
                    # below still calls the function — keep in sync).
                    totals = []
                    for ridx in range(nres):
                        o = f_order[ridx]
                        if not o:
                            continue
                        d = f_dem[ridx]
                        accesses = 0.0
                        npos = 0
                        for ti in o:
                            c = d[ti]
                            accesses += c
                            if c > 0:
                                npos += 1
                        res_accesses[ridx] += accesses
                        if accesses > 0:
                            res_slices[ridx] += 1
                        if npos >= 2 and fast_code[ridx] == _CONST:
                            delay = fast_delay[ridx]
                            rtotal = res_penalty[ridx]
                            ba = by_acc[ridx]
                            bs = by_seen[ridx]
                            bo = by_order[ridx]
                            for ti in o:
                                c = d[ti]
                                if c <= 0:
                                    continue
                                pen = c * delay
                                if pen > 0.0:
                                    if f_tot_seen[ti]:
                                        f_tot_val[ti] = f_tot_val[ti] + pen
                                    else:
                                        f_tot_seen[ti] = 1
                                        totals.append(ti)
                                        f_tot_val[ti] = pen
                                elif not (pen >= 0.0):
                                    _check_penalties(
                                        {tname[i]: d[i] * delay
                                         for i in o if d[i] > 0},
                                        {tname[i]: d[i] for i in o},
                                        resources[ridx])
                                rtotal += pen
                                ba[ti] = ba[ti] + pen
                                if not bs[ti]:
                                    bs[ti] = 1
                                    bo.append(ti)
                            res_penalty[ridx] = rtotal
                        s = f_seen[ridx]
                        for ti in o:
                            d[ti] = 0.0
                            s[ti] = 0
                        f_order[ridx] = []
                    window_start = collected_upto
                    slices_analyzed += 1
                    f_any = False
                elif width <= 1e-12:
                    totals = None
                else:
                    # Demand-free window: the analyzer would skip every
                    # resource and only close the window.
                    window_start = collected_upto
                    slices_analyzed += 1
                    totals = None
            elif width <= 1e-12 and not any(demand):
                totals = None
            else:
                totals = analyze_window(window_start, collected_upto)

            # -- penalty distribution (Fig. 2 lines 16-18) ---------------
            if totals and flat:
                reinserted = False
                ct = r_thread[cp]
                tv = f_tot_val
                ts = f_tot_seen
                for t in totals:
                    pen = tv[t]
                    tv[t] = 0.0
                    ts[t] = 0
                    t_penalty[t] += pen
                    if t == ct:
                        r_pending[cp] += pen
                        amount = r_pending[cp]
                        if amount:
                            r_end[cp] += amount
                            r_pending[cp] = 0.0
                        counter += 1
                        heappush(heap, (r_end[cp], counter, cp))
                        reinserted = True
                    else:
                        p2 = inflight[t]
                        if p2 >= 0:
                            r_pending[p2] += pen
                        else:
                            t_carry[t] += pen
                if reinserted:
                    continue
            elif totals:
                reinserted = False
                ct = r_thread[cp]
                for tn, pen in totals.items():
                    t = tindex[tn]
                    t_penalty[t] += pen
                    if t == ct:
                        r_pending[cp] += pen
                        amount = r_pending[cp]
                        if amount:
                            r_end[cp] += amount
                            r_pending[cp] = 0.0
                        counter += 1
                        heappush(heap, (r_end[cp], counter, cp))
                        reinserted = True
                    else:
                        p2 = inflight[t]
                        if p2 >= 0:
                            r_pending[p2] += pen
                        else:
                            t_carry[t] += pen
                if reinserted:
                    continue

            # -- retirement ----------------------------------------------
            t = r_thread[cp]
            t_base[t] += r_base_end[cp] - r_base_start[cp]
            t_regions[t] += 1
            p_busy[cp] += r_end[cp] - r_base_start[cp]
            p_regions[cp] += 1
            free[cp] = True
            nfree += 1
            regions_committed += 1
            inflight[t] = -1
            t_release[t] = r_end[cp]
            ready.append(t)
            continue

        # No in-flight regions: idle-jump to the next release, or done.
        if ready:
            next_release = t_release[ready[0]]
            for t in ready:
                release = t_release[t]
                if release < next_release:
                    next_release = release
            if next_release > now + 1e-9:
                now = next_release
                continue
            raise SimulationError(
                "internal error: eligible threads could not be placed "
                "on an idle platform"
            )
        if has_sync and blocked:
            # Statically unreachable: compile-time validation proves
            # aligned barriers and balanced non-nested mutexes cannot
            # deadlock.  Guard anyway rather than silently dropping
            # threads.
            raise SimulationError(
                f"internal error: {blocked} thread(s) still blocked on "
                f"a compiled sync primitive at termination"
            )
        break

    # -- final flush: whatever the min-timeslice knob still holds --------
    if now > collected_upto:
        collected_upto = now
    width = collected_upto - window_start
    if not (width <= 1e-12
            and not (f_any if flat else any(demand))):
        # Simulation is over: count the queueing estimate but do not
        # extend any end time.
        if flat:
            for t in analyze_flat(collected_upto):
                t_penalty[t] += f_tot_val[t]
        else:
            totals = analyze_window(window_start, collected_upto)
            for tn, pen in totals.items():
                t_penalty[tindex[tn]] += pen

    # -- write the accumulated statistics back onto the live objects ----
    kernel.now = now
    kernel.regions_committed = regions_committed
    us.window_start = window_start
    us.collected_upto = collected_upto
    us.slices_analyzed = slices_analyzed
    us.slices_merged = slices_merged
    us.regions_registered += program.registered_regions
    for ridx, name in enumerate(r_names):
        # Post-flush the window state is always drained (flat mode
        # tracks it in index lists; hand back the dict form).
        us._window_demand[name] = {} if flat else demand[ridx]
        us._window_units[name] = None if flat else units_map[ridx]
        if flat:
            by_thread = res_by_thread[ridx]
            ba = by_acc[ridx]
            for ti in by_order[ridx]:
                by_thread[tname[ti]] = ba[ti]
    for t, thread in enumerate(threads):
        thread.total_base_time = t_base[t]
        thread.total_penalty = t_penalty[t]
        thread.regions_committed = t_regions[t]
        thread.finish_time = t_finish[t]
        thread.release_time = t_release[t]
        thread.carry_penalty = t_carry[t]
        thread.state = ThreadState.DONE
    for p, processor in enumerate(processors):
        processor.busy_time = p_busy[p]
        processor.regions_executed = p_regions[p]
    for ridx, resource in enumerate(resources):
        resource.total_accesses = res_accesses[ridx]
        resource.total_penalty = res_penalty[ridx]
        resource.active_slices = res_slices[ridx]
        # penalty_by_thread was accumulated in place on the resource.
    if has_sync:
        # Observable sync counters accumulate as deltas on the live
        # primitives (arrived/waiters drained by construction — the
        # run cannot end with a blocked thread).
        for bidx, barrier in enumerate(program.barriers):
            barrier.generation += bar_generations[bidx]
        for midx, mutex in enumerate(program.mutexes):
            mutex.contended_acquires += mux_contended[midx]
    kernel._finished = True
    return build_result(kernel)
