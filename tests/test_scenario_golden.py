"""Spec-driven golden suite: serialized scenarios hit the same snapshots.

``test_core_kernel_equivalence`` pins the kernel's behavior against the
committed hex-float snapshots via direct Python construction.  This
suite runs the *same configurations* through the declarative layer —
each cell becomes a :class:`ScenarioSpec`, is round-tripped through its
canonical JSON (the form the run store hashes), rebuilt, and executed —
and must reproduce all 80 committed snapshot entries bit-for-bit.  This
is the proof that spec serialization loses nothing: not the fault
plan's seed, not a single trace float.
"""

import json
import pathlib

import pytest

from golden_scenarios import (config_key, golden_expected, iter_configs,
                              iter_golden_entries, run_config_from_spec,
                              spec_for)

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data" /
               "golden_kernel.json")

CONFIGS = list(iter_configs())
ENTRIES = list(iter_golden_entries())


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("config,memo", ENTRIES,
                         ids=[config_key(*c, memo) for c, memo in ENTRIES])
def test_spec_driven_run_matches_golden_snapshot(config, memo, golden):
    assert run_config_from_spec(*config) == \
        golden_expected(golden, config, memo)


def test_spec_hashes_distinguish_all_configs():
    hashes = {spec_for(*config).spec_hash() for config in CONFIGS}
    assert len(hashes) == len(CONFIGS)


def test_specs_survive_json_round_trip():
    from repro.scenario import ScenarioSpec

    for config in CONFIGS:
        spec = spec_for(*config)
        rebuilt = ScenarioSpec.from_dict(
            json.loads(spec.canonical_json()))
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
