"""Declarative scenario layer: specs, generator registry, run store.

This package gives a simulation run a first-class, serializable
identity.  A :class:`ScenarioSpec` describes *everything* that
determines a run's physics — workload generator and parameters,
contention model and knobs, kernel options, fault plan, budget — as
plain JSON data; :func:`~repro.scenario.spec.ScenarioSpec.spec_hash`
turns that description into a content address; and :class:`RunStore`
caches estimator results on disk under
``(spec_hash, estimator, code_version)`` so repeated figure runs,
report invocations, and CI jobs are warm hits instead of re-simulation.
"""

from .generators import (GENERATOR_KINDS, available_generators,
                         generator_kind, make_workload,
                         register_generator, resolve_generator)
from .spec import (SCHEDULERS, ModelSpec, ScenarioSpec, as_model_spec,
                   load_spec, save_spec)
from .store import CODE_VERSION_ENV, RunStore, as_store, code_version

__all__ = [
    "GENERATOR_KINDS",
    "SCHEDULERS",
    "CODE_VERSION_ENV",
    "ModelSpec",
    "RunStore",
    "ScenarioSpec",
    "as_model_spec",
    "as_store",
    "available_generators",
    "code_version",
    "generator_kind",
    "load_spec",
    "make_workload",
    "register_generator",
    "resolve_generator",
    "save_spec",
]
