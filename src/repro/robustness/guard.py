"""Model-fallback recovery: validated contention models with a chain.

A single NaN or negative penalty from a contention model silently
corrupts every downstream region end time, and an exception aborts the
whole run.  :class:`GuardedModel` wraps a *chain* of models (e.g.
``chenlin -> mm1 -> constant``): every evaluation is validated —
penalties must be finite, non-negative, attributed only to threads that
made accesses, and bounded by the slice width times a configurable
factor — and on violation or exception the wrapper falls back to the
next model in the chain, recording the event in a structured
:class:`RunHealth` report instead of crashing or propagating garbage.

The wrapper registers under the name ``"guarded"`` in
:mod:`repro.contention.registry`, so the CLI's ``--model-fallback`` flag
and ``make_model("guarded", chain=(...))`` both reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..contention.base import ContentionModel, SliceDemand
from ..core.errors import ConfigurationError, ModelValidationError


def model_name(model: ContentionModel) -> str:
    """Registry-style name of a model instance (falls back to the class)."""
    return getattr(model, "name", None) or type(model).__name__


#: Sentinel marking "the primary model has not been evaluated yet" in
#: :meth:`GuardedModel._resolve` (``None`` is not usable: a buggy model
#: may legitimately return ``None``, which must flow into validation).
_UNEVALUATED = object()


@dataclass(frozen=True)
class FallbackRecord:
    """One validation failure and the fallback it triggered."""

    #: Name of the model whose output was rejected.
    model: str
    #: Name of the model evaluated next (``None`` when the chain ended).
    fallback: Optional[str]
    #: Human-readable description of the violation or exception.
    reason: str
    #: ``(start, end)`` of the analysis window being evaluated.
    window: Tuple[float, float]


class RunHealth:
    """Structured health report of guarded model evaluations in one run.

    Accumulates :class:`FallbackRecord` entries as a
    :class:`GuardedModel` rejects evaluations.  An empty report
    (``ok``) means every evaluation of every guarded model validated on
    the first try.
    """

    def __init__(self):
        #: Every fallback event, in evaluation order.
        self.records: List[FallbackRecord] = []
        #: Total guarded evaluations (including clean ones).
        self.evaluations: int = 0

    @property
    def ok(self) -> bool:
        """Whether no model evaluation ever needed a fallback."""
        return not self.records

    @property
    def fallback_count(self) -> int:
        """Number of recorded fallback events."""
        return len(self.records)

    def counts_by_model(self) -> Dict[str, int]:
        """Fallbacks triggered per (rejected) model name."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.model] = counts.get(record.model, 0) + 1
        return counts

    def record_evaluation(self) -> None:
        """Count one guarded evaluation (clean or not)."""
        self.evaluations += 1

    def record_fallback(self, model: str, fallback: Optional[str],
                        reason: str, window: Tuple[float, float]) -> None:
        """Append one fallback event to the report."""
        self.records.append(FallbackRecord(
            model=model, fallback=fallback, reason=reason, window=window))

    def extend(self, other: "RunHealth") -> None:
        """Merge another report's records into this one."""
        self.records.extend(other.records)
        self.evaluations += other.evaluations

    def summary(self) -> str:
        """Human-readable multi-line summary of the report."""
        if self.ok:
            return (f"model health: OK ({self.evaluations} evaluations, "
                    f"no fallbacks)")
        lines = [f"model health: {self.fallback_count} fallback(s) over "
                 f"{self.evaluations} evaluations"]
        for model, count in sorted(self.counts_by_model().items()):
            lines.append(f"  {model}: rejected {count}x")
        for record in self.records[:10]:
            target = record.fallback or "<none: chain exhausted>"
            lines.append(
                f"  [{record.window[0]:.1f}, {record.window[1]:.1f}] "
                f"{record.model} -> {target}: {record.reason}")
        if len(self.records) > 10:
            lines.append(f"  ... {len(self.records) - 10} more")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunHealth(fallbacks={self.fallback_count}, "
                f"evaluations={self.evaluations})")


class GuardedModel(ContentionModel):
    """Validating wrapper that falls back through a chain of models.

    Parameters
    ----------
    models:
        The fallback chain, most-preferred first.  Each entry is tried
        in order until one produces a valid penalty mapping.
    max_penalty_factor:
        Per-thread penalties are rejected when they exceed
        ``max_penalty_factor * max(slice width, total demanded service,
        service time)`` — the scale guard that catches runaway (but
        finite) model output.
    health:
        Shared :class:`RunHealth` report; a fresh one is created when
        omitted.  Several resources may share one report.

    Raises
    ------
    ModelValidationError
        From :meth:`penalties`, when every model in the chain fails for
        one slice.
    """

    name = "guarded"

    def __init__(self, models: Sequence[ContentionModel],
                 max_penalty_factor: float = 10.0,
                 health: Optional[RunHealth] = None):
        models = list(models)
        if not models:
            raise ConfigurationError(
                "GuardedModel needs at least one model in its chain"
            )
        for model in models:
            if not isinstance(model, ContentionModel):
                raise ConfigurationError(
                    f"GuardedModel chain entries must be ContentionModel "
                    f"instances, got {type(model).__name__}"
                )
        if max_penalty_factor <= 0:
            raise ConfigurationError(
                f"max_penalty_factor must be > 0, "
                f"got {max_penalty_factor!r}"
            )
        self.models = models
        self.max_penalty_factor = float(max_penalty_factor)
        self.health = health if health is not None else RunHealth()

    @property
    def uses_priorities(self) -> bool:
        """Whether any model in the fallback chain consults priorities."""
        return any(model.uses_priorities for model in self.models)

    @classmethod
    def from_names(cls, chain: Sequence[str] = ("chenlin", "mm1",
                                                "constant"),
                   max_penalty_factor: float = 10.0,
                   health: Optional[RunHealth] = None) -> "GuardedModel":
        """Build a chain from registry names (``make_model`` per entry)."""
        from ..contention.registry import make_model

        if isinstance(chain, str):
            chain = tuple(part.strip() for part in chain.split(",")
                          if part.strip())
        return cls([make_model(name) for name in chain],
                   max_penalty_factor=max_penalty_factor, health=health)

    def penalties(self, demand: SliceDemand) -> Dict[str, float]:
        """Evaluate the chain until one model's output validates.

        The winning model's mapping is returned unmodified, so a chain
        whose first model never trips is bit-identical to using that
        model bare.
        """
        self.health.record_evaluation()
        return self._resolve(demand)

    def analyze_batch(self, batch) -> List[Dict[str, float]]:
        """Batched evaluation with per-element validation and fallback.

        The *primary* model evaluates the whole batch in one call (its
        vectorized fast path when it has one); each element's result
        then runs through the same validation/fallback chain as a
        scalar call, so an element the primary gets wrong falls back
        individually without disturbing its batch-mates.  If the
        primary's batch call itself blows up, every element is re-run
        through the full scalar chain — semantics (health records, the
        final :class:`ModelValidationError` on chain exhaustion)
        identical to element-by-element :meth:`penalties`.
        """
        demands = list(batch)
        if not demands:
            return []
        try:
            first_results = self.models[0].analyze_batch(demands)
        except Exception:
            first_results = None
        if first_results is None or len(first_results) != len(demands):
            return [self.penalties(demand) for demand in demands]
        out: List[Dict[str, float]] = []
        for demand, first in zip(demands, first_results):
            self.health.record_evaluation()
            out.append(self._resolve(demand, first))
        return out

    def _resolve(self, demand: SliceDemand,
                 first_result=_UNEVALUATED) -> Dict[str, float]:
        """Run the validation/fallback chain for one demand.

        ``first_result`` short-circuits the primary model's evaluation
        with a value already computed (the batch path); the sentinel
        default evaluates it live.
        """
        failures: List[str] = []
        last_error: Optional[BaseException] = None
        for index, model in enumerate(self.models):
            problem: Optional[str] = None
            result: Optional[Dict[str, float]] = None
            try:
                if index == 0 and first_result is not _UNEVALUATED:
                    result = first_result
                else:
                    result = model.penalties(demand)
                problem = self._validate(result, demand)
            except ModelValidationError:
                raise
            except Exception as exc:  # guard arbitrary model bugs
                problem = f"raised {type(exc).__name__}: {exc}"
                last_error = exc
            if problem is None:
                return result
            fallback = (model_name(self.models[index + 1])
                        if index + 1 < len(self.models) else None)
            self.health.record_fallback(
                model=model_name(model), fallback=fallback,
                reason=problem, window=(demand.start, demand.end))
            failures.append(f"{model_name(model)}: {problem}")
        raise ModelValidationError(
            f"every model in the fallback chain failed for window "
            f"[{demand.start}, {demand.end}]: " + "; ".join(failures)
        ) from last_error

    def _validate(self, result: Dict[str, float],
                  demand: SliceDemand) -> Optional[str]:
        """Reason the mapping is invalid, or ``None`` when it is clean."""
        if not isinstance(result, dict):
            return (f"returned {type(result).__name__} instead of a dict")
        demanded_service = sum(count * demand.service_of(thread)
                               for thread, count in demand.demands.items())
        bound = self.max_penalty_factor * max(
            demand.duration, demanded_service, demand.service_time)
        for thread, penalty in result.items():
            if thread not in demand.demands:
                return (f"penalized thread {thread!r} which made no "
                        f"accesses")
            if not isinstance(penalty, (int, float)):
                return (f"penalty for {thread!r} is "
                        f"{type(penalty).__name__}, not a number")
            if math.isnan(penalty):
                return f"penalty for {thread!r} is NaN"
            if math.isinf(penalty):
                return f"penalty for {thread!r} is infinite"
            if penalty < 0:
                return f"penalty for {thread!r} is negative ({penalty!r})"
            if penalty > bound:
                return (f"penalty for {thread!r} ({penalty:.3g}) exceeds "
                        f"{self.max_penalty_factor:g}x the slice scale "
                        f"({bound:.3g})")
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(model_name(m) for m in self.models)
        return f"GuardedModel({chain})"
