"""repro — hybrid simulation/analytical shared-resource contention modeling.

A from-scratch reproduction of *Modeling Shared Resource Contention Using
a Hybrid Simulation/Analytical Approach* (Bobrek, Pieper, Nelson, Paul,
Thomas — DATE 2004): a MESH-style simulation kernel that executes
annotated logical threads on heterogeneous processors and resolves shared
resource contention by piecewise evaluation of interchangeable analytical
models, plus the cycle-accurate and pure-analytical baselines the paper
compares against and the workload generators its evaluation uses.

Quickstart::

    from repro import (HybridKernel, LogicalThread, Processor,
                       SharedResource, ChenLinModel, consume)

    bus = SharedResource("bus", ChenLinModel(), service_time=4)
    kernel = HybridKernel([Processor("cpu0"), Processor("cpu1")], [bus])

    def worker():
        for _ in range(100):
            yield consume(1_000, {"bus": 25})

    kernel.add_thread(LogicalThread("a", worker))
    kernel.add_thread(LogicalThread("b", worker))
    result = kernel.run()
    print(result.summary())
"""

from .core import (AnnotationRegion, Barrier, BudgetExceededError,
                   ConditionVariable,
                   ConfigurationError, DeadlockError, ExecutionScheduler,
                   FifoScheduler, HybridKernel, LeastLoadedScheduler,
                   LogicalThread, ModelValidationError, Mutex,
                   PinnedScheduler, PriorityScheduler,
                   Processor, ProtocolError, RoundRobinScheduler, Semaphore,
                   SharedResource, SimulationError, SimulationResult,
                   SynchronizationError, ThreadState, acquire, barrier_wait,
                   cond_notify, cond_wait, consume, release, sem_acquire,
                   sem_release, spawn)
from .contention import (ChenLinModel, ConstantModel, ContentionModel,
                         MD1Model, MM1Model, NullModel, PriorityModel,
                         RoundRobinModel, SliceDemand, available_models,
                         make_model)
from .perf import ParallelExecutor
from .robustness import (FaultPlan, FaultWindow, GuardedModel, RetryPolicy,
                         RunBudget, RunHealth)
from .scenario import (ModelSpec, RunStore, ScenarioSpec, load_spec,
                       register_generator, save_spec)

__version__ = "1.0.0"

__all__ = [
    "AnnotationRegion", "Barrier", "BudgetExceededError", "ChenLinModel",
    "ConditionVariable",
    "ConfigurationError", "ConstantModel", "ContentionModel",
    "DeadlockError", "ExecutionScheduler", "FaultPlan", "FaultWindow",
    "FifoScheduler", "GuardedModel", "HybridKernel",
    "LeastLoadedScheduler", "LogicalThread", "MD1Model", "MM1Model",
    "ModelSpec", "ModelValidationError",
    "Mutex", "NullModel", "ParallelExecutor", "PinnedScheduler",
    "PriorityModel",
    "PriorityScheduler", "Processor", "ProtocolError", "RetryPolicy",
    "RoundRobinModel",
    "RoundRobinScheduler", "RunBudget", "RunHealth", "RunStore",
    "ScenarioSpec", "Semaphore",
    "SharedResource", "SimulationError",
    "SimulationResult", "SliceDemand", "SynchronizationError", "ThreadState",
    "acquire", "available_models", "barrier_wait", "cond_notify",
    "cond_wait", "consume", "load_spec", "make_model",
    "register_generator", "release", "sem_acquire",
    "sem_release", "save_spec", "spawn", "__version__",
]
