"""Name-based registry of workload generators for declarative scenarios.

A :class:`~repro.scenario.spec.ScenarioSpec` names its workload as
``generator + params`` instead of carrying a Python object, so a spec
can be serialized, hashed, shipped to a worker process, and replayed
months later.  The registry is the mapping that turns those names back
into code::

    workload = make_workload("fft", {"points": 1024, "processors": 4})

Two generator *kinds* exist:

* ``"workload"`` — the factory returns a
  :class:`~repro.workloads.trace.Workload` (the shared IR), which the
  scenario layer then lowers to any estimator.  Every shipped generator
  is of this kind.
* ``"kernel"`` — the factory builds a ready
  :class:`~repro.core.kernel.HybridKernel` directly from kernel
  keyword arguments (``sync_policy``, ``fault_plan``, ...).  This is
  the escape hatch for hand-authored scenarios that use protocol
  events the IR cannot express (condition variables, dynamic spawn);
  the golden equivalence suite registers its kernel scenarios this
  way so even they gain spec identity and store caching.

Registrations are process-global.  A spec referencing a generator is
reproducible only as long as the name maps to the same code — exactly
what the run store's ``code_version`` key captures.
"""

from __future__ import annotations

import inspect
import json
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Tuple

from ..core.errors import ConfigurationError

GENERATOR_KINDS = ("workload", "kernel")

#: name -> (factory, kind)
_GENERATORS: Dict[str, Tuple[Callable, str]] = {}

#: How many built workloads :func:`make_workload` keeps.  Large enough
#: that ``repro all`` reuses all eight distinct FFT configurations
#: Fig. 4 builds when Table 1 asks for six of them again; an IR is a
#: few kilobytes (its lowered programs, which are not cached, are the
#: large form).
WORKLOAD_CACHE_SIZE = 16

_WORKLOAD_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_WORKLOAD_CACHE_LOCK = threading.Lock()


def register_generator(name: str, factory: Callable,
                       kind: str = "workload",
                       replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    ``kind`` declares what the factory returns (see module docstring).
    Re-registering an existing name raises unless ``replace=True`` —
    silently remapping a name would corrupt every stored artifact
    hashed against the old meaning.
    """
    if kind not in GENERATOR_KINDS:
        raise ConfigurationError(
            f"unknown generator kind {kind!r}; choose from "
            f"{GENERATOR_KINDS}"
        )
    if name in _GENERATORS and not replace:
        raise ConfigurationError(
            f"generator {name!r} is already registered; pass "
            f"replace=True to overwrite"
        )
    _GENERATORS[name] = (factory, kind)


def resolve_generator(name: str) -> Tuple[Callable, str]:
    """Look up ``(factory, kind)`` for a registered generator name."""
    try:
        return _GENERATORS[name]
    except KeyError:
        known = ", ".join(available_generators())
        raise KeyError(
            f"unknown workload generator {name!r}; known generators: "
            f"{known}"
        ) from None


def generator_kind(name: str) -> str:
    """The registered kind (``"workload"`` or ``"kernel"``) of a name."""
    return resolve_generator(name)[1]


def available_generators(kind: str = None) -> List[str]:
    """Sorted names of registered generators (optionally one kind)."""
    return sorted(name for name, (_, k) in _GENERATORS.items()
                  if kind is None or k == kind)


def make_workload(name: str, params: Mapping = None):
    """Instantiate a ``"workload"``-kind generator with its params.

    Built workloads are kept in a small process-wide LRU (the last
    :data:`WORKLOAD_CACHE_SIZE` builds), so the paper grids that ask
    for one configuration several times (Fig. 4 and Table 1 share six
    FFT configurations) run its trace expansion and cache simulation
    once.  The key is the factory object itself plus its arguments
    bound with defaults applied, so ``{"seed": 0}`` and an omitted
    ``seed`` share one build, and re-registering a name never serves
    the old factory's workload.  Only the IR is cached, never lowered
    programs.  The returned workload is shared between callers and
    must be treated as read-only.
    """
    factory, kind = resolve_generator(name)
    if kind != "workload":
        raise ConfigurationError(
            f"generator {name!r} builds a kernel, not a workload; use "
            f"ScenarioSpec.build_kernel() for kernel-kind generators"
        )
    params = dict(params or {})
    try:
        bound = inspect.signature(factory).bind(**params)
        bound.apply_defaults()
        key = (factory, json.dumps(bound.arguments, sort_keys=True))
    except (TypeError, ValueError):
        # Params that do not fit (the factory raises its own error) or
        # a non-JSON argument, which has no stable identity to key on.
        return factory(**params)
    with _WORKLOAD_CACHE_LOCK:
        workload = _WORKLOAD_CACHE.get(key)
        if workload is not None:
            _WORKLOAD_CACHE.move_to_end(key)
            return workload
    workload = factory(**params)
    with _WORKLOAD_CACHE_LOCK:
        _WORKLOAD_CACHE[key] = workload
        while len(_WORKLOAD_CACHE) > WORKLOAD_CACHE_SIZE:
            _WORKLOAD_CACHE.popitem(last=False)
    return workload


def inline_workload(document: Mapping):
    """Materialize a workload embedded verbatim in the spec params.

    ``document`` is the JSON form produced by
    :func:`repro.workloads.io.workload_to_dict`.  This generator gives
    hand-authored scenario files (which have no generating code) a
    content-addressed spec: the whole workload document *is* the
    parameter, so the spec hash covers every phase and access count.
    """
    from ..workloads.io import workload_from_dict

    return workload_from_dict(dict(document))


def _register_builtins() -> None:
    """Register every shipped workload generator under its short name."""
    from ..workloads.fft import fft_workload
    from ..workloads.lu import lu_workload
    from ..workloads.noc import noc_workload
    from ..workloads.phm import phm_workload
    from ..workloads.smp import smp_workload
    from ..workloads.synthetic import (bursty_workload,
                                       critical_section_workload,
                                       dma_workload, uniform_workload)

    for name, factory in (
            ("fft", fft_workload),
            ("phm", phm_workload),
            ("lu", lu_workload),
            ("noc", noc_workload),
            ("smp", smp_workload),
            ("uniform", uniform_workload),
            ("bursty", bursty_workload),
            ("critical_section", critical_section_workload),
            ("dma", dma_workload),
            ("inline", inline_workload),
    ):
        register_generator(name, factory, kind="workload", replace=True)


_register_builtins()
