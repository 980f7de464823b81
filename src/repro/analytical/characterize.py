"""Workload characterization for the pure-analytical baseline.

A designer using an average-rate analytical model characterizes each
application by *how it behaves while running* — accesses per executed
cycle — typically from profiling each application alone.  That
characterization is blind to two things the paper shows matter: idle
gaps between kernel activations, and phase structure within a kernel.
This module computes exactly that blind summary from a workload trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..cycle.program import Program, lower_workload
from ..workloads.trace import Workload, access_target


@dataclass(frozen=True)
class ThreadProfile:
    """Average-rate summary of one thread.

    Attributes
    ----------
    busy_cycles:
        Zero-contention execution time: compute cycles (power-scaled)
        plus uncontended service time of every access.  Idle time is
        *excluded* — the characterization models the application, not
        its activation schedule.
    accesses:
        Total transactions per shared resource.
    service_units:
        Total demanded service beats per resource (burst transfers
        count ``burst`` beats per transaction), so utilization math is
        burst-correct.
    idle_cycles:
        Total declared idle time (reported for reference; the whole-run
        model ignores it, which is the point).
    """

    name: str
    processor: str
    busy_cycles: float
    accesses: Mapping[str, float] = field(default_factory=dict)
    service_units: Mapping[str, float] = field(default_factory=dict)
    idle_cycles: float = 0.0

    def access_rate(self, resource: str, service_time: float) -> float:
        """Busy-time utilization of ``resource``: ``units * s / busy``."""
        if self.busy_cycles <= 0:
            return 0.0
        units = self.service_units.get(
            resource, self.accesses.get(resource, 0.0))
        return units * service_time / self.busy_cycles

    def mean_service(self, resource: str, service_time: float) -> float:
        """Mean transaction service time on ``resource``."""
        transactions = self.accesses.get(resource, 0.0)
        if transactions <= 0:
            return service_time
        units = self.service_units.get(resource, transactions)
        return service_time * units / transactions


def characterize(workload: Workload,
                 programs: Optional[List[Program]] = None
                 ) -> Dict[str, ThreadProfile]:
    """Summarize every thread of ``workload`` into a ThreadProfile.

    Uses the same lowering (hence identical power scaling and rounding)
    as the cycle engines, so the three estimators describe the same
    physical workload.  ``programs``, when given, must be
    ``lower_workload(workload)``; a caller that also runs a cycle
    engine passes its lowering here instead of expanding twice.
    """
    service_times = {spec.name: max(1, int(round(spec.service_time)))
                     for spec in workload.resources}
    if programs is None:
        programs = lower_workload(workload)
    profiles: Dict[str, ThreadProfile] = {}
    for program in programs:
        accesses: Dict[str, float] = {}
        units: Dict[str, float] = {}
        idle = 0.0
        compute = 0.0
        for kind, arg in program.ops:
            if kind == "compute":
                compute += int(arg)
            elif kind == "access":
                name, burst = access_target(arg)
                accesses[name] = accesses.get(name, 0.0) + 1.0
                units[name] = units.get(name, 0.0) + burst
            elif kind == "idle":
                idle += int(arg)
        service = sum(count * service_times[name]
                      for name, count in units.items())
        profiles[program.thread_name] = ThreadProfile(
            name=program.thread_name,
            processor=program.processor.name,
            busy_cycles=compute + service,
            accesses=accesses,
            service_units=units,
            idle_cycles=idle,
        )
    return profiles
