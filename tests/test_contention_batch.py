"""Deterministic tests for the batched analysis layer.

Complements :mod:`tests.test_contention_batch_properties` (randomized
bit-identity) with targeted behaviour: batch container semantics,
grouped dispatch, scheduler-level equivalence with shared model
instances, and ``GuardedModel`` batch fallback.
"""

import pytest

import repro.contention.batch as batch_mod
from repro.contention import (ConstantModel, SliceDemand, SliceDemandBatch,
                              analyze_grouped)
from repro.contention.base import ContentionModel
from repro.contention.batch import MIN_VECTOR_BATCH, dispatch_batch
from repro.contention.chenlin import ChenLinModel
from repro.contention.mm1 import MM1Model
from repro.core.region import AnnotationRegion
from repro.core.resource import Processor
from repro.core.shared import SharedResource
from repro.core.thread import LogicalThread
from repro.core.us import SharedResourceScheduler
from repro.robustness.guard import GuardedModel


def _demand(counts, duration=1_000.0, service=4.0):
    return SliceDemand(start=0.0, end=duration, service_time=service,
                       demands=dict(counts))


DEMANDS = [
    _demand({"a": 40.0, "b": 60.0}),
    _demand({"a": 120.0}),
    _demand({"a": 10.0, "b": 10.0, "c": 5.0}, duration=500.0),
    _demand({}),
    _demand({"a": 80.0, "b": 0.0}, service=2.0),
]


class TestSliceDemandBatch:
    def test_container_semantics(self):
        batch = SliceDemandBatch(DEMANDS)
        assert len(batch) == len(DEMANDS)
        assert list(batch) == DEMANDS
        assert batch[1] is DEMANDS[1]

    def test_accepts_any_iterable(self):
        batch = SliceDemandBatch(d for d in DEMANDS)
        assert len(batch) == len(DEMANDS)


class TestDispatchBatch:
    def test_empty_batch(self):
        assert dispatch_batch(ChenLinModel(), SliceDemandBatch([])) == []

    def test_below_min_vector_batch_uses_scalar_loop(self):
        model = ChenLinModel()
        single = SliceDemandBatch(DEMANDS[:1])
        assert MIN_VECTOR_BATCH >= 2
        assert dispatch_batch(model, single) == [
            model.penalties(DEMANDS[0])]

    def test_subclass_falls_back_to_scalar(self):
        calls = []

        class Tweaked(ChenLinModel):
            def penalties(self, demand):
                calls.append(demand)
                return super().penalties(demand)

        model = Tweaked()
        results = model.analyze_batch(SliceDemandBatch(DEMANDS))
        # Exact-type kernel dispatch: the subclass's scalar override
        # must be honoured, never bypassed by the parent's kernel.
        assert len(calls) == len(DEMANDS)
        assert results == [ChenLinModel().penalties(d) for d in DEMANDS]

    def test_model_without_kernel_uses_scalar_loop(self):
        class Custom(ContentionModel):
            name = "custom-batch-test"

            def penalties(self, demand):
                return {name: 1.0 for name in demand.demands}

        model = Custom()
        assert model.analyze_batch(SliceDemandBatch(DEMANDS)) == [
            model.penalties(d) for d in DEMANDS]


class TestAnalyzeGrouped:
    def test_empty(self):
        assert analyze_grouped([]) == []

    def test_groups_by_instance_not_type(self):
        first, second = ChenLinModel(), ChenLinModel()
        pairs = [(first, DEMANDS[0]), (second, DEMANDS[1]),
                 (first, DEMANDS[2])]
        assert analyze_grouped(pairs) == [
            model.penalties(d) for model, d in pairs]


def _drive(scheduler, resource_names, slices=6, threads=4):
    """Feed ``slices`` identical windows and collect analyze() totals."""
    processor = Processor("p0", power=1.0)
    logical = [LogicalThread(f"t{t}", lambda: iter(()))
               for t in range(threads)]
    priorities = {thread.name: 0 for thread in logical}
    totals_log = []
    now = 0.0
    for index in range(slices):
        regions = [
            AnnotationRegion(
                thread, processor, 10.0,
                {name: 1 + (index + t + r) % 3
                 for r, name in enumerate(resource_names)}, now)
            for t, thread in enumerate(logical)
        ]
        now += 10.0
        scheduler.collect(now, regions)
        totals_log.append(scheduler.analyze(priorities))
    return totals_log


def _make_resources():
    """Mixed fleet: one shared model, two unique models, guarded."""
    shared = ChenLinModel()
    other = MM1Model()
    return lambda: (
        [SharedResource(f"s{i}", shared, service_time=2.0)
         for i in range(8)]
        + [SharedResource("solo", MM1Model(), service_time=3.0),
           SharedResource("other", other, service_time=2.0),
           SharedResource("guarded",
                          GuardedModel([ChenLinModel(), ConstantModel(1.0)]),
                          service_time=2.0)])


class TestSchedulerBatchEquivalence:
    def test_batch_equals_scalar_loop(self):
        make = _make_resources()
        batch_res, scalar_res = make(), make()
        batched = SharedResourceScheduler(batch_res, batch_analysis=True)
        scalar = SharedResourceScheduler(scalar_res, batch_analysis=False)
        names = [r.name for r in batch_res]
        assert _drive(batched, names) == _drive(scalar, names)
        for b, s in zip(batch_res, scalar_res):
            assert b.total_penalty == s.total_penalty
            assert b.penalty_by_thread == s.penalty_by_thread

    def test_shared_model_many_resources(self):
        model = ChenLinModel()

        def build():
            return [SharedResource(f"r{i}", model, service_time=2.0)
                    for i in range(64)]

        res_a, res_b = build(), build()
        batched = SharedResourceScheduler(res_a, batch_analysis=True)
        scalar = SharedResourceScheduler(res_b, batch_analysis=False)
        names = [r.name for r in res_a]
        assert (_drive(batched, names, slices=3, threads=8)
                == _drive(scalar, names, slices=3, threads=8))


class _ExplodingBatchModel(ChenLinModel):
    """Primary whose batch path always dies (scalar path is fine)."""

    def analyze_batch(self, batch):
        raise RuntimeError("vector path down")


class TestGuardedModelBatch:
    def test_batch_matches_scalar_resolution(self):
        demands = [d for d in DEMANDS if d.demands]
        scalar_guard = GuardedModel([ChenLinModel(), ConstantModel(1.0)])
        batch_guard = GuardedModel([ChenLinModel(), ConstantModel(1.0)])
        scalar = [scalar_guard.penalties(d) for d in demands]
        batched = batch_guard.analyze_batch(SliceDemandBatch(demands))
        assert batched == scalar
        assert (batch_guard.health.evaluations
                == scalar_guard.health.evaluations == len(demands))

    def test_primary_batch_failure_falls_back_per_element(self):
        guard = GuardedModel([_ExplodingBatchModel(), ConstantModel(1.0)])
        results = guard.analyze_batch(SliceDemandBatch(DEMANDS))
        expected = GuardedModel(
            [_ExplodingBatchModel(), ConstantModel(1.0)])
        assert results == [expected.penalties(d) for d in DEMANDS]
        assert guard.health.evaluations == len(DEMANDS)

    def test_empty_batch(self):
        guard = GuardedModel([ChenLinModel()])
        assert guard.analyze_batch(SliceDemandBatch([])) == []
        assert guard.health.evaluations == 0


class TestNoNumpyFallback:
    def test_scheduler_equivalence_without_numpy(self):
        saved = batch_mod._np
        batch_mod._np = None
        try:
            make = _make_resources()
            batched = SharedResourceScheduler(make(), batch_analysis=True)
            scalar = SharedResourceScheduler(make(), batch_analysis=False)
            names = list(batched.resources)
            assert _drive(batched, names) == _drive(scalar, names)
        finally:
            batch_mod._np = saved
