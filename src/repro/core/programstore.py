"""Content-addressed, on-disk store of compiled :class:`SoAProgram` s.

A sweep grid compiles the same scenarios over and over — across
processes, resumed shards, and warm service runs.  The
:class:`ProgramStore` makes each compilation a durable artifact
addressed by :func:`program_hash`:

* ``spec_hash`` — the scenario's content address, so a hit is
  guaranteed to describe the *same* inputs;
* :data:`~repro.core.compile.COMPILE_SUBSET_VERSION` — the compiled
  subset / program-layout version, so programs from an older lowering
  can never be replayed by a newer runtime;
* ``code_version`` — the whole-package source digest, mirroring the
  :class:`~repro.scenario.store.RunStore` namespace discipline.

Neither ``program_hash`` nor any store path enters ``spec_hash``:
program caching is a pure execution choice, invisible to the
scenario's content address.

Artifacts are ``.npz`` bundles of the program's CSR arrays written with
the RunStore's discipline — atomic temp-file + rename writes, corrupt
or unreadable artifacts count as misses and are recompiled, and
orphaned ``*.tmp`` debris is swept on open.  Live objects (contention
models, barriers, mutexes) are *not* pickled: models rebind from the
spec on load (:func:`bind_program`), and sync primitives are rebuilt
fresh — the replay's write-backs are pure deltas, so fresh objects are
exactly what a cold compile would have produced.

:func:`build_replay_kernel` rebuilds a *hollow* kernel — processors,
resources, and threads with empty bodies — from a loaded program plus
its spec, skipping the workload build entirely; :func:`replay_batch`
replays many such cells on the array interpreter, one after another.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .compile import COMPILE_SUBSET_VERSION, SoAProgram
from .kernel import HybridKernel
from .resource import Processor
from .shared import SharedResource
from .sync import Barrier, Mutex
from .thread import LogicalThread

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: On-disk layout version of the serialized bundle itself (array names,
#: dtypes, and blob packing).  Folded into every artifact and checked on
#: load; a mismatch counts as corruption (recompiling is always correct).
FORMAT_VERSION = 1


def program_hash(spec_hash: str, subset_version: Optional[int] = None,
                 version: Optional[str] = None) -> str:
    """Content address of one compiled program.

    SHA-256 over ``(spec_hash, compile-subset version, code version)``
    — the exact inputs that determine the compiled arrays.  The
    defaults are the running interpreter's
    :data:`~repro.core.compile.COMPILE_SUBSET_VERSION` and
    :func:`~repro.scenario.store.code_version`.
    """
    from ..scenario.store import code_version

    subset = (COMPILE_SUBSET_VERSION if subset_version is None
              else subset_version)
    ver = version or code_version()
    return hashlib.sha256(
        f"{spec_hash}\0{subset}\0{ver}".encode("utf-8")).hexdigest()


# -- serialization ----------------------------------------------------


def _flatten_program(program: SoAProgram) -> Dict[str, object]:
    """Lower a program's Python lists to the flat ``.npz`` array bundle.

    Every ragged structure becomes a CSR pair (flat values + offsets);
    optional values carry explicit kind/flag arrays so ``None`` and
    empty round-trip distinctly.  float64 arrays round-trip bit-exactly
    through the npz binary format, so a loaded program replays
    hex-identically to the freshly compiled one.
    """
    nthreads = len(program.thread_names)
    dur_kind = _np.zeros(nthreads, dtype=_np.uint8)
    dur_flat: List[float] = []
    comp_flat: List[float] = []
    extra_flat: List[float] = []
    acc_ptr = [0]
    acc_res: List[int] = []
    acc_cnt: List[float] = []
    burst_flag: List[int] = []
    burst_ptr = [0]
    burst_res: List[int] = []
    burst_beats: List[float] = []
    ops_ptr = [0]
    ops_code: List[int] = []
    ops_arg: List[int] = []
    for t in range(nthreads):
        durations = program.region_durations[t]
        if durations is not None:
            dur_kind[t] = 1
            dur_flat.extend(durations)
        comp_flat.extend(program.region_complexity[t])
        extra_flat.extend(program.region_extra[t])
        for pairs in program.region_accesses[t]:
            for res, count in pairs:
                acc_res.append(res)
                acc_cnt.append(count)
            acc_ptr.append(len(acc_res))
        for burst in program.region_bursts[t]:
            burst_flag.append(0 if burst is None else 1)
            if burst is not None:
                for res, beats in burst.items():
                    burst_res.append(res)
                    burst_beats.append(beats)
            burst_ptr.append(len(burst_res))
        for code, arg in program.thread_ops[t]:
            ops_code.append(code)
            ops_arg.append(arg)
        ops_ptr.append(len(ops_code))
    affinity = [-1 if a is None else a for a in program.thread_affinity]
    return {
        "format_version": _np.int64(FORMAT_VERSION),
        "min_timeslice": _np.float64(program.min_timeslice),
        "registered_regions": _np.int64(program.registered_regions),
        "has_bursts": _np.uint8(program.has_bursts),
        "has_sync": _np.uint8(program.has_sync),
        "thread_names": _np.array(program.thread_names, dtype=str),
        "thread_priorities": _np.array(program.thread_priorities,
                                       dtype=_np.int64),
        "thread_affinity": _np.array(affinity, dtype=_np.int64),
        "thread_release": _np.array(program.thread_release,
                                    dtype=_np.float64),
        "region_counts": _np.array(program.region_counts,
                                   dtype=_np.int64),
        "dur_kind": dur_kind,
        "dur_flat": _np.array(dur_flat, dtype=_np.float64),
        "comp_flat": _np.array(comp_flat, dtype=_np.float64),
        "extra_flat": _np.array(extra_flat, dtype=_np.float64),
        "acc_ptr": _np.array(acc_ptr, dtype=_np.int64),
        "acc_res": _np.array(acc_res, dtype=_np.int64),
        "acc_cnt": _np.array(acc_cnt, dtype=_np.float64),
        "burst_flag": _np.array(burst_flag, dtype=_np.uint8),
        "burst_ptr": _np.array(burst_ptr, dtype=_np.int64),
        "burst_res": _np.array(burst_res, dtype=_np.int64),
        "burst_beats": _np.array(burst_beats, dtype=_np.float64),
        "ops_ptr": _np.array(ops_ptr, dtype=_np.int64),
        "ops_code": _np.array(ops_code, dtype=_np.int64),
        "ops_arg": _np.array(ops_arg, dtype=_np.int64),
        "resource_names": _np.array(program.resource_names, dtype=str),
        "resource_service": _np.array(program.resource_service,
                                      dtype=_np.float64),
        "resource_ports": _np.array(program.resource_ports,
                                    dtype=_np.int64),
        "barrier_names": _np.array(
            [b.name for b in program.barriers], dtype=str),
        "barrier_parties": _np.array(program.barrier_parties,
                                     dtype=_np.int64),
        "mutex_names": _np.array(
            [m.name for m in program.mutexes], dtype=str),
        "processor_names": _np.array(program.processor_names, dtype=str),
        "processor_powers": _np.array(program.processor_powers,
                                      dtype=_np.float64),
    }


def _rebuild_program(data) -> SoAProgram:
    """Inverse of :func:`_flatten_program`.

    Returns a program whose model bindings (``resource_models``,
    ``resource_uses_priorities``, ``resource_fast``) are placeholders —
    :func:`bind_program` must run against a live kernel before replay.
    Fresh :class:`Barrier` / :class:`Mutex` objects stand in for the
    originals; the replay's sync write-backs are pure deltas, so this
    is indistinguishable from a cold compile.
    """
    if int(data["format_version"]) != FORMAT_VERSION:
        raise ValueError(
            f"program bundle format {int(data['format_version'])} != "
            f"runtime format {FORMAT_VERSION}"
        )
    program = SoAProgram()
    program.min_timeslice = float(data["min_timeslice"])
    program.registered_regions = int(data["registered_regions"])
    program.has_bursts = bool(data["has_bursts"])
    program.has_sync = bool(data["has_sync"])
    program.thread_names = [str(n) for n in data["thread_names"]]
    program.thread_priorities = data["thread_priorities"].tolist()
    program.thread_affinity = [None if a < 0 else int(a)
                               for a in data["thread_affinity"]]
    program.thread_release = data["thread_release"].tolist()
    program.region_counts = data["region_counts"].tolist()
    dur_kind = data["dur_kind"]
    dur_flat = data["dur_flat"].tolist()
    comp_flat = data["comp_flat"].tolist()
    extra_flat = data["extra_flat"].tolist()
    acc_ptr = data["acc_ptr"].tolist()
    acc_res = data["acc_res"].tolist()
    acc_cnt = data["acc_cnt"].tolist()
    burst_flag = data["burst_flag"].tolist()
    burst_ptr = data["burst_ptr"].tolist()
    burst_res = data["burst_res"].tolist()
    burst_beats = data["burst_beats"].tolist()
    ops_ptr = data["ops_ptr"].tolist()
    ops_code = data["ops_code"].tolist()
    ops_arg = data["ops_arg"].tolist()
    pos = 0       # region cursor across the flat region-major arrays
    dur_pos = 0   # cursor into dur_flat (static-duration threads only)
    for t, count in enumerate(program.region_counts):
        if dur_kind[t]:
            program.region_durations.append(
                dur_flat[dur_pos:dur_pos + count])
            dur_pos += count
        else:
            program.region_durations.append(None)
        program.region_complexity.append(comp_flat[pos:pos + count])
        program.region_extra.append(extra_flat[pos:pos + count])
        accesses = []
        bursts: List[Optional[Dict[int, float]]] = []
        for r in range(pos, pos + count):
            accesses.append(tuple(
                (acc_res[k], acc_cnt[k])
                for k in range(acc_ptr[r], acc_ptr[r + 1])))
            if burst_flag[r]:
                bursts.append({burst_res[k]: burst_beats[k]
                               for k in range(burst_ptr[r],
                                              burst_ptr[r + 1])})
            else:
                bursts.append(None)
        program.region_accesses.append(accesses)
        program.region_bursts.append(bursts)
        program.thread_ops.append(
            [(ops_code[k], ops_arg[k])
             for k in range(ops_ptr[t], ops_ptr[t + 1])])
        pos += count
    program.resource_names = [str(n) for n in data["resource_names"]]
    program.resource_service = data["resource_service"].tolist()
    program.resource_ports = data["resource_ports"].tolist()
    nres = len(program.resource_names)
    program.resource_models = [None] * nres
    program.resource_uses_priorities = [False] * nres
    program.resource_fast = [None] * nres
    program.barrier_parties = data["barrier_parties"].tolist()
    program.barriers = [Barrier(parties, name=str(name))
                        for name, parties in zip(data["barrier_names"],
                                                 program.barrier_parties)]
    program.mutexes = [Mutex(str(name)) for name in data["mutex_names"]]
    program.processor_names = [str(n) for n in data["processor_names"]]
    program.processor_powers = data["processor_powers"].tolist()
    return program


#: Numeric dtypes a logical bundle may contain; each gets one packed
#: blob member in the ``.npz``.
_BLOB_DTYPES = ("i64", "f64", "u8")


def _pack_arrays(arrays: Dict[str, object]) -> Dict[str, object]:
    """Pack the logical bundle into per-dtype blobs plus a manifest.

    A ``.npz`` charges per *member* — zip directory entry, header
    parse, and a Python-level read each — which dominates load time for
    bundles of many small arrays.  Packing every numeric array into one
    blob per dtype (concatenated in manifest order, shapes recorded in
    ``meta_json``) cuts a ~30-member bundle to four reads.  Strings
    ride in the manifest; binary blobs keep float64 values bit-exact.
    """
    manifest: List[List[object]] = []
    parts: Dict[str, List[object]] = {kind: [] for kind in _BLOB_DTYPES}
    strings: Dict[str, List[str]] = {}
    for name, value in arrays.items():
        arr = _np.asarray(value)
        if arr.dtype.kind in ("U", "S"):
            manifest.append([name, "str", list(arr.shape)])
            strings[name] = [str(v) for v in arr.ravel()]
            continue
        if arr.dtype == _np.int64:
            kind = "i64"
        elif arr.dtype == _np.float64:
            kind = "f64"
        elif arr.dtype == _np.uint8:
            kind = "u8"
        else:  # a new field missing its packing rule — fail loudly
            raise TypeError(f"unpackable dtype {arr.dtype} for {name!r}")
        manifest.append([name, kind, list(arr.shape)])
        parts[kind].append(arr.ravel())
    empty = {"i64": _np.int64, "f64": _np.float64, "u8": _np.uint8}
    members: Dict[str, object] = {
        kind: (_np.concatenate(chunks) if chunks
               else _np.zeros(0, dtype=empty[kind]))
        for kind, chunks in parts.items()
    }
    members["meta_json"] = _np.array(json.dumps(
        {"manifest": manifest, "strings": strings}, sort_keys=True))
    return members


def _unpack_arrays(data) -> Dict[str, object]:
    """Inverse of :func:`_pack_arrays`: slice blobs back to the bundle.

    Numeric entries come back as views into the three blob arrays
    (reshaped per the manifest); string entries come back as plain
    lists.  Scalar entries reshape to 0-d arrays, so ``int()`` /
    ``float()`` / ``bool()`` coercion behaves as before.
    """
    meta = json.loads(str(data["meta_json"][()]))
    blobs = {kind: data[kind] for kind in _BLOB_DTYPES}
    cursor = {kind: 0 for kind in _BLOB_DTYPES}
    out: Dict[str, object] = {}
    for name, kind, shape in meta["manifest"]:
        if kind == "str":
            out[name] = meta["strings"][name]
            continue
        size = 1
        for dim in shape:
            size *= int(dim)
        start = cursor[kind]
        out[name] = blobs[kind][start:start + size].reshape(shape)
        cursor[kind] = start + size
    return out


# -- the store --------------------------------------------------------


class ProgramStore:
    """Keyed ``.npz`` programs under ``root/<code_version>/<hash>.npz``.

    Mirrors the :class:`~repro.scenario.store.RunStore` contract:
    atomic writes, corrupt-as-miss loads, orphan-``.tmp`` sweeping on
    open, and per-instance counters.  ``compiles`` counts cold
    compilations performed *on behalf of* this store by callers (the
    batched prepass increments it), so tests can assert a warm store
    performs zero compiles.
    """

    def __init__(self, root, version: Optional[str] = None,
                 tmp_max_age: Optional[float] = 60.0):
        from ..scenario.store import code_version

        self.root = Path(root)
        self.version = version or code_version()
        #: Guards counter mutation and :meth:`stats` snapshots against
        #: concurrent service handlers / pool threads (file writes are
        #: already atomic via temp-file + rename).
        self._lock = threading.Lock()
        #: Successful :meth:`get` lookups.
        self.hits = 0
        #: Failed :meth:`get` lookups (absent or unreadable artifact).
        self.misses = 0
        #: Artifacts written by :meth:`put`.
        self.stores = 0
        #: Subset of ``misses`` where the artifact *existed* but failed
        #: to parse (torn file, stale bundle format).
        self.corrupt = 0
        #: Orphaned ``*.tmp`` files deleted by :meth:`sweep_tmp`.
        self.tmp_swept = 0
        #: Cold compilations recorded by callers via
        #: :meth:`record_compile` — zero on a warm store.
        self.compiles = 0
        if tmp_max_age is not None:
            self.sweep_tmp(max_age=tmp_max_age)

    @classmethod
    def for_run_store(cls, store,
                      tmp_max_age: Optional[float] = 60.0
                      ) -> "ProgramStore":
        """The companion program store under ``<runstore root>/programs``.

        Shares the run store's code-version namespace so both caches
        invalidate together.
        """
        return cls(Path(store.root) / "programs", version=store.version,
                   tmp_max_age=tmp_max_age)

    def path_for(self, phash: str) -> Path:
        """Artifact path for one :func:`program_hash`."""
        return self.root / self.version / phash[:2] / f"{phash}.npz"

    def get(self, phash: str
            ) -> Optional[Tuple[SoAProgram, Dict[str, object]]]:
        """Load ``(program, aux)`` for a hash, or ``None`` on a miss.

        A bundle that exists but fails to load or parse counts as a
        corrupt miss — recompiling is always correct, trusting a torn
        file never is.  The returned program's models are unbound;
        :func:`build_replay_kernel` (or :func:`bind_program`) must run
        before replay.
        """
        path = self.path_for(phash)
        try:
            with _np.load(path, allow_pickle=False) as data:
                program = _rebuild_program(_unpack_arrays(data))
                aux = json.loads(str(data["aux_json"][()]))
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # Present but unreadable: count separately so sweeps can
            # report healed corruption, then recompile as usual.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return program, aux

    def put(self, phash: str, program: SoAProgram,
            aux: Optional[Dict[str, object]] = None) -> Path:
        """Atomically write one compiled program; returns its path."""
        arrays = _pack_arrays(_flatten_program(program))
        arrays["aux_json"] = _np.array(json.dumps(aux or {},
                                                  sort_keys=True))
        path = self.path_for(phash)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                _np.savez(handle, **arrays)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self.stores += 1
        return path

    def record_compile(self) -> None:
        """Count one cold compilation performed on this store's behalf."""
        with self._lock:
            self.compiles += 1

    def __contains__(self, phash: str) -> bool:
        """Whether a program bundle exists on disk for ``phash``."""
        return self.path_for(phash).exists()

    def count(self) -> int:
        """Number of bundles stored under the current code version."""
        base = self.root / self.version
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.npz"))

    def orphan_tmp(self) -> int:
        """Number of ``*.tmp`` files currently present under the root."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.tmp"))

    def sweep_tmp(self, max_age: float = 0.0) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age`` seconds."""
        if not self.root.exists():
            return 0
        removed = 0
        now = time.time()
        for path in self.root.rglob("*.tmp"):
            try:
                if now - path.stat().st_mtime >= max_age:
                    path.unlink()
                    removed += 1
            except OSError:  # racing another sweeper or a writer
                pass
        with self._lock:
            self.tmp_swept += removed
        return removed

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: lookups, writes, and on-disk hygiene.

        The counter block is read under the lock, so a snapshot taken
        mid-request never shows a torn view.
        """
        with self._lock:
            counters = {"hits": self.hits, "misses": self.misses,
                        "stores": self.stores, "corrupt": self.corrupt,
                        "compiles": self.compiles,
                        "tmp_swept": self.tmp_swept}
        counters["orphan_tmp"] = self.orphan_tmp()
        counters["artifacts"] = self.count()
        return counters

    def __getstate__(self) -> Dict:
        """Pickle support: drop the (unpicklable) lock.

        Mirrors :meth:`repro.scenario.store.RunStore.__getstate__` —
        worker processes count on their own copies, and unpickling
        never re-runs ``__init__`` (so no tmp sweep races a live
        writer).
        """
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProgramStore(root={str(self.root)!r}, "
                f"version={self.version!r})")


def as_program_store(store) -> Optional[ProgramStore]:
    """Coerce ``None`` / path string / :class:`ProgramStore` to a store."""
    if store is None or isinstance(store, ProgramStore):
        return store
    return ProgramStore(store)


# -- hollow replay kernels --------------------------------------------


def _hollow_body():
    """Empty thread body for replay-only kernels (never stepped)."""
    return
    yield  # pragma: no cover - makes this a generator function


def bind_program(program: SoAProgram, kernel) -> None:
    """Rebind a program's model-derived fields to a live kernel.

    Applies exactly the classification :func:`~repro.core.compile.
    compile_kernel` performs (exact-type fast kernels only), so a
    loaded program replays through the identical dispatch a cold
    compile would have taken.  Idempotent on freshly compiled programs.
    """
    from ..contention.constant import ConstantModel, NullModel

    models: List[object] = []
    uses: List[bool] = []
    fast: List[Optional[Tuple[str, Optional[float]]]] = []
    for resource in kernel.shared_resources:
        model = resource.model
        models.append(model)
        uses.append(model.uses_priorities)
        if type(model) is NullModel:
            fast.append(("null", None))
        elif type(model) is ConstantModel:
            fast.append(("const", model.delay))
        else:
            fast.append(None)
    program.resource_models = models
    program.resource_uses_priorities = uses
    program.resource_fast = fast


def build_replay_kernel(spec, program: SoAProgram) -> HybridKernel:
    """Rebuild a replayable kernel from a loaded program plus its spec.

    The expensive half of a cold cell — workload generation and thread
    body enumeration — is skipped entirely: processors and resources
    come from the program's serialized metadata, contention models
    rebind from the spec (mirroring
    :func:`repro.workloads.to_mesh.build_kernel`'s resolution, one
    shared default instance), and threads get hollow bodies because a
    replay never steps them.  The kernel is ready for
    :func:`replay_program` / :func:`replay_batch`.
    """
    from ..contention.chenlin import ChenLinModel

    default_model = spec.build_model()
    if default_model is None:
        default_model = ChenLinModel()
    overrides = spec.build_models() or {}
    processors = [Processor(name, power)
                  for name, power in zip(program.processor_names,
                                         program.processor_powers)]
    shared = [
        SharedResource(name, overrides.get(name, default_model),
                       service_time=service, ports=ports)
        for name, service, ports in zip(program.resource_names,
                                        program.resource_service,
                                        program.resource_ports)
    ]
    kwargs: Dict[str, object] = {
        "scheduler": spec.build_scheduler(),
        "min_timeslice": spec.min_timeslice,
        "sync_policy": spec.sync_policy,
    }
    kwargs.update(spec.kernel_options)
    kwargs["engine"] = "soa"
    kernel = HybridKernel(processors, shared, **kwargs)
    names = program.processor_names
    for index, tname in enumerate(program.thread_names):
        aff = program.thread_affinity[index]
        kernel.add_thread(
            LogicalThread(tname, _hollow_body,
                          priority=program.thread_priorities[index],
                          affinity=names[aff] if aff is not None
                          else None),
            start_time=program.thread_release[index])
    bind_program(program, kernel)
    return kernel


def replay_program(kernel, program: SoAProgram):
    """Replay one compiled program on its (hollow or real) kernel.

    Marks the kernel consumed and runs the array interpreter, exactly
    as ``engine="soa"`` does after a successful compile —
    ``engine_used`` reports honestly.
    """
    from .soa import run_program

    kernel._ran = True
    kernel.engine_used = "soa"
    return run_program(kernel, program)


def replay_batch(cells):
    """Replay ``(kernel, program)`` cells one after another.

    Returns results index-aligned with ``cells``; the first failing
    cell raises its canonical diagnostic.
    """
    return [replay_program(kernel, program) for kernel, program in cells]
