"""Frozen, JSON-serializable scenario descriptions with content hashes.

Every entry point used to describe a run by threading ad-hoc kwargs
through ``run_hybrid``/``build_kernel``/``run_comparison``, so a
"scenario" had no first-class identity — nothing could be serialized,
diffed, shipped to a worker process, or cached across runs.
:class:`ScenarioSpec` is that identity: workload generator name and
parameters (including the seed), contention model and knobs, annotation
and scheduling policy, fault plan, budget, and kernel options, all as
plain JSON values.

Identity is *structural*: two specs are equal iff their canonical JSON
is equal, and :meth:`ScenarioSpec.spec_hash` (SHA-256 of the canonical
JSON) is the content address used by
:class:`~repro.scenario.store.RunStore`.  ``to_dict`` omits fields at
their defaults, so adding a new knob later does not change the hash of
every existing spec.

The spec stores *descriptions*, never live objects: models are
``(registry name, knobs)`` pairs, fault plans and budgets are their
``to_dict`` mappings, the workload is a generator name plus parameters.
``build_*`` methods materialize the live objects on demand, which is
what lets a spec pickle as a small dict for worker processes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.errors import ConfigurationError, SpecValidationError
from .generators import generator_kind, make_workload, resolve_generator

#: Scheduler names accepted by :attr:`ScenarioSpec.scheduler`, mapping
#: to the execution schedulers in :mod:`repro.core.scheduler`.
SCHEDULERS = ("fifo", "roundrobin", "priority", "pinned", "least_loaded")

_SCALARS = (bool, int, float, str, type(None))


def _plain(value, context: str, path: str = ""):
    """Normalize ``value`` to JSON-plain data (tuples become lists).

    Raises :class:`SpecValidationError` — carrying a JSON-pointer-style
    ``path`` into the offending value — for anything that would not
    round-trip through JSON: a spec holding a live object would hash
    by ``repr`` accident instead of by content.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item, context, f"{path}/{index}")
                for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        plain = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecValidationError(
                    f"{context}: mapping keys must be strings, "
                    f"got {key!r}", path or "/"
                )
            plain[key] = _plain(item, context, f"{path}/{key}")
        return plain
    raise SpecValidationError(
        f"{context}: value {value!r} of type {type(value).__name__} is "
        f"not JSON-serializable", path or "/"
    )


def _check_unknown(data: Mapping, allowed, what: str,
                   path: str = "") -> None:
    """Reject unknown mapping keys with a precise error message."""
    unknown = set(data) - set(allowed)
    if unknown:
        first = sorted(unknown)[0]
        raise SpecValidationError(
            f"unknown {what} key(s): {', '.join(sorted(unknown))}",
            f"{path}/{first}"
        )


def _as_mapping(value, what: str, path: str) -> Mapping:
    """Require a mapping, with a located error otherwise."""
    if not isinstance(value, Mapping):
        raise SpecValidationError(
            f"{what} must be a mapping, got "
            f"{type(value).__name__}", path
        )
    return value


@dataclass(frozen=True)
class ModelSpec:
    """A contention model as data: registry name plus constructor knobs.

    ``build()`` goes through
    :func:`repro.contention.registry.make_model`, so any model a spec
    can name is exactly a model the CLI can name.
    """

    name: str
    knobs: Mapping = field(default_factory=dict)

    def __post_init__(self):
        """Normalize knobs to JSON-plain data (tuples become lists)."""
        _as_mapping(self.knobs, f"model {self.name!r} knobs", "/knobs")
        object.__setattr__(
            self, "knobs",
            _plain(dict(self.knobs), f"model {self.name!r} knobs",
                   "/knobs"))

    def build(self):
        """Instantiate the named model with its knobs."""
        from ..contention.registry import make_model

        knobs = {key: tuple(value) if isinstance(value, list) else value
                 for key, value in self.knobs.items()}
        return make_model(self.name, **knobs)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {"name": self.name}
        if self.knobs:
            data["knobs"] = dict(self.knobs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
        """Build a model spec from a plain mapping (e.g. parsed JSON)."""
        _check_unknown(data, {"name", "knobs"}, "model spec")
        if "name" not in data:
            raise SpecValidationError("model spec needs a 'name'",
                                      "/name")
        if not isinstance(data["name"], str) or not data["name"]:
            raise SpecValidationError(
                f"model name must be a non-empty string, "
                f"got {data['name']!r}", "/name")
        return cls(name=data["name"], knobs=data.get("knobs", {}))

    @classmethod
    def from_model(cls, model) -> "ModelSpec":
        """Derive the ``(name, knobs)`` description of a live instance.

        Works for every registry model by introspection: constructor
        parameters are read back from the attributes of the same name,
        and knobs still at their defaults are omitted (keeping the spec
        hash stable).  A :class:`~repro.robustness.guard.GuardedModel`
        serializes as its chain of registry names.  Raises
        :class:`ConfigurationError` for models whose configuration
        cannot be recovered — caching a run under an incomplete model
        description would poison the store.
        """
        from ..robustness.guard import GuardedModel

        if isinstance(model, GuardedModel):
            return cls._from_guarded(model)
        name = getattr(model, "name", None)
        if not isinstance(name, str):
            raise ConfigurationError(
                f"model {type(model).__name__} has no registry name; "
                f"register it and set a class-level 'name'"
            )
        knobs = {}
        signature = inspect.signature(type(model).__init__)
        for param_name, param in signature.parameters.items():
            if param_name == "self":
                continue
            if not hasattr(model, param_name):
                raise ConfigurationError(
                    f"cannot derive a spec for {name!r}: constructor "
                    f"parameter {param_name!r} is not stored as an "
                    f"attribute"
                )
            value = getattr(model, param_name)
            if not isinstance(value, _SCALARS + (list, tuple)):
                raise ConfigurationError(
                    f"cannot derive a spec for {name!r}: parameter "
                    f"{param_name!r} holds non-scalar {value!r}"
                )
            if param.default is not inspect.Parameter.empty \
                    and value == param.default:
                continue
            knobs[param_name] = value
        return cls(name=name, knobs=knobs)

    @classmethod
    def _from_guarded(cls, model) -> "ModelSpec":
        """Serialize a guarded chain as registry names plus the guard."""
        chain = []
        for link in model.models:
            link_spec = cls.from_model(link)
            if link_spec.knobs:
                raise ConfigurationError(
                    f"cannot derive a spec for a guarded chain whose "
                    f"{link_spec.name!r} link has non-default knobs "
                    f"{link_spec.knobs!r}; build the spec explicitly"
                )
            chain.append(link_spec.name)
        knobs: Dict[str, object] = {"chain": chain}
        if model.max_penalty_factor != 10.0:
            knobs["max_penalty_factor"] = model.max_penalty_factor
        return cls(name="guarded", knobs=knobs)


def as_model_spec(value) -> Optional[ModelSpec]:
    """Coerce ``None`` / name / mapping / instance to a model spec."""
    if value is None or isinstance(value, ModelSpec):
        return value
    if isinstance(value, str):
        return ModelSpec(name=value)
    if isinstance(value, Mapping):
        return ModelSpec.from_dict(value)
    return ModelSpec.from_model(value)


#: ``to_dict`` key order and defaults for :class:`ScenarioSpec`.
_SPEC_FIELDS = ("generator", "params", "model", "models",
                "min_timeslice", "annotation", "sync_policy", "scheduler",
                "trace", "fault_plan", "budget", "kernel_options")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, hashable description of one simulation scenario.

    Attributes
    ----------
    generator:
        Registered workload-generator name (see
        :mod:`repro.scenario.generators`).
    params:
        Keyword arguments for the generator, including its seed.
    model:
        Default contention model for every shared resource (``None``
        means the kernel default, Chen-Lin).
    models:
        Per-resource model overrides (resource name -> model spec).
    min_timeslice / annotation / sync_policy / scheduler / trace:
        Kernel construction knobs, mirroring
        :func:`repro.workloads.to_mesh.build_kernel`.
    fault_plan / budget:
        Serialized robustness configuration
        (:meth:`FaultPlan.to_dict` / :meth:`RunBudget.to_dict` forms),
        stored as plain mappings so spec equality stays structural.
    kernel_options:
        Extra :class:`~repro.core.kernel.HybridKernel` keyword
        arguments: ``slice_accounting`` (one of
        ``HybridKernel.SLICE_ACCOUNTING``) and ``batch_analysis`` (a
        JSON boolean).  Kernel options are part of the spec and
        therefore of :meth:`spec_hash`.  Execution parameters of the
        runner/sweep/service layer (``jobs``, the store root) never
        enter the spec or :meth:`spec_hash`.
    """

    generator: str
    params: Mapping = field(default_factory=dict)
    model: Optional[ModelSpec] = None
    models: Mapping = field(default_factory=dict)
    min_timeslice: float = 0.0
    annotation: str = "phase"
    sync_policy: str = "eager"
    scheduler: Optional[str] = None
    trace: bool = False
    fault_plan: Optional[Mapping] = None
    budget: Optional[Mapping] = None
    kernel_options: Mapping = field(default_factory=dict)

    def __post_init__(self):
        """Normalize members to JSON-plain data and validate knobs.

        Every validation failure is a :class:`SpecValidationError`
        whose ``path`` points at the offending field of the spec
        document, so services can answer with the exact location.
        """
        if not isinstance(self.generator, str) or not self.generator:
            raise SpecValidationError(
                f"generator must be a non-empty string, "
                f"got {self.generator!r}", "/generator"
            )
        setter = object.__setattr__
        setter(self, "params",
               _plain(_as_mapping(self.params, "scenario params",
                                  "/params"),
                      "scenario params", "/params"))
        try:
            setter(self, "model", as_model_spec(self.model))
        except SpecValidationError as err:
            raise err.at("/model") from None
        models = {}
        for name, value in dict(
                _as_mapping(self.models, "models", "/models")).items():
            try:
                models[name] = as_model_spec(value)
            except SpecValidationError as err:
                raise err.at(f"/models/{name}") from None
        setter(self, "models", models)
        setter(self, "kernel_options",
               _plain(_as_mapping(self.kernel_options, "kernel_options",
                                  "/kernel_options"),
                      "kernel_options", "/kernel_options"))
        if self.fault_plan is not None:
            setter(self, "fault_plan",
                   _plain(_as_mapping(self.fault_plan, "fault_plan",
                                      "/fault_plan"),
                          "fault_plan", "/fault_plan"))
        if self.budget is not None:
            setter(self, "budget",
                   _plain(_as_mapping(self.budget, "budget", "/budget"),
                          "budget", "/budget"))
        if not isinstance(self.min_timeslice, (int, float)) \
                or isinstance(self.min_timeslice, bool):
            raise SpecValidationError(
                f"min_timeslice must be a number, "
                f"got {self.min_timeslice!r}", "/min_timeslice"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise SpecValidationError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                f"{SCHEDULERS}", "/scheduler"
            )
        if self.annotation not in ("phase", "barrier"):
            raise SpecValidationError(
                f"unknown annotation policy {self.annotation!r}",
                "/annotation"
            )
        if self.sync_policy not in ("eager", "deferred"):
            raise SpecValidationError(
                f"unknown sync policy {self.sync_policy!r}",
                "/sync_policy"
            )

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, omitting fields at their defaults.

        Omission is what keeps :meth:`spec_hash` stable when future
        versions add knobs: an old spec and a new spec that never set
        the knob serialize identically.
        """
        data: Dict[str, object] = {"generator": self.generator}
        if self.params:
            data["params"] = dict(self.params)
        if self.model is not None:
            data["model"] = self.model.to_dict()
        if self.models:
            data["models"] = {name: spec.to_dict()
                              for name, spec in self.models.items()}
        if self.min_timeslice != 0.0:
            data["min_timeslice"] = self.min_timeslice
        if self.annotation != "phase":
            data["annotation"] = self.annotation
        if self.sync_policy != "eager":
            data["sync_policy"] = self.sync_policy
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler
        if self.trace:
            data["trace"] = True
        if self.fault_plan is not None:
            data["fault_plan"] = dict(self.fault_plan)
        if self.budget is not None:
            data["budget"] = dict(self.budget)
        if self.kernel_options:
            data["kernel_options"] = dict(self.kernel_options)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Build a spec from a plain mapping (e.g. parsed JSON).

        Validation failures raise :class:`SpecValidationError` with a
        JSON-pointer-style ``path`` into ``data`` — precise enough for
        a service to turn into a 400 response naming the exact field.
        """
        _as_mapping(data, "scenario spec", "/")
        _check_unknown(data, _SPEC_FIELDS, "scenario spec")
        if "generator" not in data:
            raise SpecValidationError("scenario spec needs a "
                                      "'generator'", "/generator")
        kwargs = dict(data)
        if "model" in kwargs and kwargs["model"] is not None:
            try:
                kwargs["model"] = ModelSpec.from_dict(
                    _as_mapping(kwargs["model"], "model spec", "/"))
            except SpecValidationError as err:
                raise err.at("/model") from None
        if "models" in kwargs:
            models = {}
            for name, value in _as_mapping(
                    kwargs["models"], "models", "/models").items():
                try:
                    models[name] = ModelSpec.from_dict(
                        _as_mapping(value, "model spec", "/"))
                except SpecValidationError as err:
                    raise err.at(f"/models/{name}") from None
            kwargs["models"] = models
        return cls(**kwargs)

    def validate(self) -> "ScenarioSpec":
        """Eagerly check buildability beyond structural validation.

        ``__post_init__`` validates structure (types, knob names,
        JSON-plainness); this resolves the *contents* without running
        anything: the generator must be registered, the models must
        build through the registry, the fault plan / budget mappings
        must deserialize, and every ``kernel_options`` key must name a
        :class:`~repro.core.kernel.HybridKernel` keyword parameter that
        the spec does not already hold as a field of its own, with a
        value the kernel accepts.  Each
        failure raises :class:`SpecValidationError` located at the
        offending field — the check the service runs at admission so a
        bad document is a 400, never a worker-side crash.  Returns
        ``self`` for chaining.
        """
        from .generators import available_generators

        if self.generator not in available_generators():
            raise SpecValidationError(
                f"unknown generator {self.generator!r}; choose from "
                f"{available_generators()}", "/generator")
        factory, _kind = resolve_generator(self.generator)
        try:
            inspect.signature(factory).bind(**dict(self.params))
        except TypeError as err:
            raise SpecValidationError(
                f"params do not fit generator "
                f"{self.generator!r}: {err}", "/params") from None
        try:
            self.build_model()
        except Exception as err:
            raise SpecValidationError(str(err), "/model") from None
        for name, spec in self.models.items():
            try:
                spec.build()
            except Exception as err:
                raise SpecValidationError(
                    str(err), f"/models/{name}") from None
        try:
            self.build_fault_plan()
        except SpecValidationError:
            raise
        except Exception as err:
            raise SpecValidationError(str(err), "/fault_plan") from None
        try:
            self.build_budget()
        except SpecValidationError:
            raise
        except Exception as err:
            raise SpecValidationError(str(err), "/budget") from None
        allowed = _kernel_option_names()
        for key in self.kernel_options:
            if key not in allowed:
                raise SpecValidationError(
                    f"unknown kernel option {key!r}; choose from "
                    f"{sorted(allowed)}", f"/kernel_options/{key}")
        _check_kernel_option_values(self.kernel_options)
        return self

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def spec_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON — the content address."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    # -- materialization ----------------------------------------------

    @property
    def kind(self) -> str:
        """The registered kind of this spec's generator."""
        return generator_kind(self.generator)

    def build_workload(self):
        """Instantiate the workload IR (``"workload"``-kind specs only)."""
        return make_workload(self.generator, self.params)

    def build_model(self):
        """Instantiate the default contention model, or ``None``."""
        return self.model.build() if self.model is not None else None

    def build_models(self) -> Optional[Dict[str, object]]:
        """Instantiate per-resource model overrides, or ``None``."""
        if not self.models:
            return None
        return {name: spec.build() for name, spec in self.models.items()}

    def build_scheduler(self):
        """Instantiate the named execution scheduler, or ``None``."""
        if self.scheduler is None:
            return None
        from ..core.scheduler import (FifoScheduler, LeastLoadedScheduler,
                                      PinnedScheduler, PriorityScheduler,
                                      RoundRobinScheduler)

        classes = {"fifo": FifoScheduler, "roundrobin": RoundRobinScheduler,
                   "priority": PriorityScheduler, "pinned": PinnedScheduler,
                   "least_loaded": LeastLoadedScheduler}
        return classes[self.scheduler]()

    def build_fault_plan(self):
        """Instantiate the serialized fault plan, or ``None``."""
        if self.fault_plan is None:
            return None
        from ..robustness.faults import FaultPlan

        return FaultPlan.from_dict(self.fault_plan)

    def build_budget(self):
        """Instantiate the serialized run budget, or ``None``."""
        if self.budget is None:
            return None
        from ..robustness.budget import RunBudget

        return RunBudget.from_dict(self.budget)

    def kernel_kwargs(self, **overrides) -> Dict[str, object]:
        """Live keyword arguments for ``build_kernel`` from this spec.

        ``overrides`` replace spec-derived values — e.g. one fault plan
        object shared across the runs of a sweep instead of one built
        per cell.
        """
        kwargs: Dict[str, object] = {
            "model": self.build_model(),
            "models": self.build_models(),
            "min_timeslice": self.min_timeslice,
            "annotation": self.annotation,
            "scheduler": self.build_scheduler(),
            "trace": self.trace,
            "sync_policy": self.sync_policy,
            "fault_plan": self.build_fault_plan(),
            "budget": self.build_budget(),
        }
        kwargs.update(self.kernel_options)
        kwargs.update(overrides)
        return kwargs

    def build_kernel(self, **overrides):
        """Assemble the ready-to-run hybrid kernel this spec describes.

        ``"workload"``-kind generators lower the workload IR through
        :func:`repro.workloads.to_mesh.build_kernel`;
        ``"kernel"``-kind generators call their factory with the
        kernel-level knobs directly.
        """
        factory, kind = resolve_generator(self.generator)
        if kind == "workload":
            from ..workloads.to_mesh import build_kernel

            return build_kernel(self.build_workload(),
                                **self.kernel_kwargs(**overrides))
        # Kernel-kind factories own their resources and models; the
        # spec fields that describe IR lowering have no meaning here.
        for forbidden in ("model", "models", "scheduler"):
            if getattr(self, forbidden):
                raise ConfigurationError(
                    f"kernel-kind generator {self.generator!r} does not "
                    f"accept the {forbidden!r} spec field"
                )
        if self.annotation != "phase":
            raise ConfigurationError(
                f"kernel-kind generator {self.generator!r} does not "
                f"accept an annotation policy"
            )
        kwargs: Dict[str, object] = {
            "min_timeslice": self.min_timeslice,
            "sync_policy": self.sync_policy,
            "trace": self.trace,
            "fault_plan": self.build_fault_plan(),
            "budget": self.build_budget(),
        }
        kwargs.update(self.kernel_options)
        kwargs.update(overrides)
        return factory(**self.params, **kwargs)

    def run(self, **overrides):
        """Build the kernel and run it to completion."""
        return self.build_kernel(**overrides).run()


def _kernel_option_names():
    """Keyword parameters a spec's ``kernel_options`` may set.

    Every :class:`~repro.core.kernel.HybridKernel` keyword parameter
    except the platform itself (processors and shared resources come
    from the workload) and the knobs the spec holds as typed fields of
    its own (``scheduler``, ``fault_plan``, ...), which the spec builds
    into live objects before they reach the kernel.
    """
    from ..core.kernel import HybridKernel

    params = inspect.signature(HybridKernel.__init__).parameters
    return (frozenset(params) - {"self", "processors", "shared_resources"}
            - frozenset(_SPEC_FIELDS))


def _check_kernel_option_values(options: Mapping) -> None:
    """Reject ``kernel_options`` values the kernel would refuse.

    Admission must catch them: unchecked, a bad ``slice_accounting``
    fails only inside the kernel constructor at run time, and a
    non-boolean ``batch_analysis`` (``"yes"``) is silently truthy.
    """
    from ..core.kernel import HybridKernel

    if "slice_accounting" in options:
        value = options["slice_accounting"]
        if value not in HybridKernel.SLICE_ACCOUNTING:
            raise SpecValidationError(
                f"unknown slice_accounting {value!r}; choose from "
                f"{list(HybridKernel.SLICE_ACCOUNTING)}",
                "/kernel_options/slice_accounting")
    if "batch_analysis" in options:
        value = options["batch_analysis"]
        if not isinstance(value, bool):
            raise SpecValidationError(
                f"batch_analysis must be a JSON boolean, got {value!r}",
                "/kernel_options/batch_analysis")


def load_spec(path: str) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return ScenarioSpec.from_dict(json.load(handle))


def save_spec(spec: ScenarioSpec, path: str) -> None:
    """Write a spec to ``path`` as indented, sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
