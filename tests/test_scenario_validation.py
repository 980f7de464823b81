"""Structured spec validation: every failure names its exact field.

:class:`~repro.core.errors.SpecValidationError` carries a
JSON-pointer-style ``path`` into the offending document so the
service's 400 responses (and any other front end) can point at the
precise field instead of echoing a bare message.  This suite pins the
paths for every malformed-document family the issue names — generator,
params, model, models, fault plan, budget, kernel options — plus the
structural families (unknown keys, non-JSON values, bad knob types) and
the ``.at()`` re-rooting mechanics the nesting relies on.
"""

import pytest

from repro.core import numpy_available
from repro.core.errors import ConfigurationError, SpecValidationError
from repro.scenario import ScenarioSpec
from repro.scenario.spec import ModelSpec

BASE = {"generator": "uniform",
        "params": {"threads": 2, "phases": 2, "accesses": 10}}


def located(document) -> SpecValidationError:
    """from_dict + validate; returns the located error it must raise."""
    with pytest.raises(SpecValidationError) as caught:
        ScenarioSpec.from_dict(document).validate()
    return caught.value


class TestErrorType:
    def test_is_a_configuration_error(self):
        error = SpecValidationError("boom", "/x")
        assert isinstance(error, ConfigurationError)
        assert error.path == "/x"

    def test_default_path_is_root(self):
        assert SpecValidationError("boom").path == "/"
        assert SpecValidationError("boom", "").path == "/"

    def test_at_reroots_nested_paths(self):
        assert SpecValidationError("m", "/knobs").at("/model").path \
            == "/model/knobs"
        # A root-located error re-roots to exactly the prefix.
        assert SpecValidationError("m", "/").at("/model").path \
            == "/model"


class TestGenerator:
    def test_unknown_generator(self):
        error = located(dict(BASE, generator="warp-drive"))
        assert error.path == "/generator"
        assert "warp-drive" in str(error)

    def test_missing_generator(self):
        error = located({"params": {}})
        assert error.path == "/generator"

    def test_non_string_generator(self):
        error = located(dict(BASE, generator=42))
        assert error.path == "/generator"


class TestParams:
    def test_unknown_param_name(self):
        error = located(dict(BASE, params={"warp_factor": 9}))
        assert error.path == "/params"
        assert "uniform" in str(error)

    def test_params_must_be_a_mapping(self):
        error = located(dict(BASE, params=[1, 2]))
        assert error.path == "/params"

    def test_non_json_param_value_is_located(self):
        error = located(dict(BASE,
                             params={"threads": 2, "seed": object()}))
        assert error.path == "/params/seed"

    def test_nested_non_json_value_is_located(self):
        error = located(dict(BASE,
                             params={"weights": [1.0, {2, 3}]}))
        assert error.path == "/params/weights/1"


class TestModel:
    def test_unregistered_model_name(self):
        error = located(dict(BASE, model={"name": "tea-leaves"}))
        assert error.path == "/model"

    def test_model_missing_name(self):
        error = located(dict(BASE, model={"knobs": {}}))
        assert error.path == "/model/name"

    def test_model_unknown_key(self):
        error = located(dict(BASE,
                             model={"name": "mm1", "vibe": "good"}))
        assert error.path == "/model/vibe"

    def test_bad_knobs_for_model(self):
        error = located(dict(BASE,
                             model={"name": "mm1",
                                    "knobs": {"warp": 1}}))
        assert error.path == "/model"

    def test_per_resource_models_are_located_by_name(self):
        error = located(dict(
            BASE, models={"bus": {"name": "mm1"},
                          "mem": {"knobs": {}}}))
        assert error.path == "/models/mem/name"

    def test_unbuildable_per_resource_model(self):
        error = located(dict(BASE,
                             models={"bus": {"name": "tea-leaves"}}))
        assert error.path == "/models/bus"


class TestFaultPlan:
    def test_fault_plan_must_be_a_mapping(self):
        error = located(dict(BASE, fault_plan=[1, 2]))
        assert error.path == "/fault_plan"

    def test_undeserializable_fault_plan(self):
        error = located(dict(
            BASE,
            fault_plan={"windows": [{"resource": "bus",
                                     "start": "soon"}]}))
        assert error.path == "/fault_plan"

    def test_non_json_fault_plan_value_is_located(self):
        error = located(dict(BASE, fault_plan={"windows": object()}))
        assert error.path == "/fault_plan/windows"


class TestBudget:
    def test_budget_must_be_a_mapping(self):
        error = located(dict(BASE, budget="unlimited"))
        assert error.path == "/budget"

    def test_undeserializable_budget(self):
        error = located(dict(BASE,
                             budget={"max_wall_seconds": -5}))
        assert error.path == "/budget"


class TestMemoAndKnobs:
    def test_memo_unknown_key(self):
        """The slice-memo configuration is gone: ``memo`` is unknown."""
        error = located(dict(BASE, memo={"maxsize": 32}))
        assert error.path == "/memo"

    def test_min_timeslice_must_be_a_number(self):
        error = located(dict(BASE, min_timeslice="fast"))
        assert error.path == "/min_timeslice"

    def test_unknown_scheduler(self):
        error = located(dict(BASE, scheduler="tarot"))
        assert error.path == "/scheduler"

    def test_unknown_sync_policy(self):
        error = located(dict(BASE, sync_policy="vibes"))
        assert error.path == "/sync_policy"

    def test_unknown_annotation(self):
        error = located(dict(BASE, annotation="marginalia"))
        assert error.path == "/annotation"

    def test_unknown_top_level_key(self):
        error = located(dict(BASE, wormhole=True))
        assert error.path == "/wormhole"


class TestModelSpecDirect:
    def test_from_dict_paths(self):
        with pytest.raises(SpecValidationError) as caught:
            ModelSpec.from_dict({"name": ""})
        assert caught.value.path == "/name"


class TestKernelOptions:
    """``kernel_options`` keys must be HybridKernel keyword parameters.

    An unchecked bad key would fail only later, inside the kernel
    constructor, with a bare ``TypeError``.  Keys the spec holds as its
    own fields (``scheduler``, ...) would reach the kernel as raw JSON
    instead of built objects, so they are rejected too.
    """

    @pytest.mark.parametrize("key", ["bogus", "backend", "memo_cache",
                                     "processors", "scheduler",
                                     "fault_plan"])
    def test_unknown_option_is_located(self, key):
        error = located(dict(BASE, kernel_options={key: 1}))
        assert error.path == f"/kernel_options/{key}"
        assert key in str(error)

    def test_known_options_pass(self):
        spec = ScenarioSpec.from_dict(dict(
            BASE, kernel_options={"engine": "soa",
                                  "slice_accounting": "rescan",
                                  "batch_analysis": False})).validate()
        expected = "soa" if numpy_available() else "object"
        assert spec.run().engine_used == expected


class TestValidateReturnsSelf:
    def test_valid_spec_chains(self):
        spec = ScenarioSpec.from_dict(dict(BASE)).validate()
        assert spec.generator == "uniform"
        assert spec.validate() is spec
