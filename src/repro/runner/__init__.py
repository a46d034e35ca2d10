"""Sweep runner: baseline caching, one supervised scheduler, shared memory.

Sweeps and campaigns are embarrassingly parallel — every (attacker,
victim, λ) point is an independent propagation — and embarrassingly
repetitive — every point re-converges a pre-attack baseline some other
point already computed.  This package attacks both: a
:class:`BaselineCache` memoises converged baselines (deriving the whole
uniform-λ family from one canonical run per victim), and every task
list runs through one :class:`ShardedScheduler`
(:mod:`repro.runner.scheduler`).  It looks each task's fingerprint up
in a content-addressed :class:`~repro.store.CampaignStore`, runs only
the missing tasks — serially in-process or on a process pool that
receives the topology once per worker through shared memory — and
streams fresh results back into the store.  Results are bit-identical
to the serial path for every worker count.

The scheduler carries the failure model for long campaigns: bounded
retries with exponential backoff (:class:`RetryPolicy`), per-task
deadlines, pool respawn after worker death, serial degradation, and
structured :class:`TaskFailure` quarantine; the store makes a killed
run resume where it stopped.  A deterministic :class:`FaultPlan`
harness (:mod:`repro.runner.faults`) exercises every recovery path in
CI.
"""

from repro.runner.cache import (
    BaselineCache,
    derive_uniform_baseline,
    derive_uniform_family,
)
from repro.runner.faults import (
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedFaultError,
)
from repro.runner.sampling import sample_attack_pairs
from repro.runner.scheduler import (
    RetryPolicy,
    ShardedScheduler,
    TaskFailure,
    available_cpus,
    resolve_workers,
)
from repro.runner.shm import (
    SharedTopologyHandle,
    attach_topology,
    publish_topology,
)
from repro.runner.tasks import (
    CampaignPairTask,
    DeploymentPointResult,
    DeploymentPointTask,
    SweepPointResult,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
    task_fingerprint,
)

__all__ = [
    "BaselineCache",
    "CampaignPairTask",
    "DeploymentPointResult",
    "DeploymentPointTask",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedFaultError",
    "RetryPolicy",
    "SharedTopologyHandle",
    "ShardedScheduler",
    "SweepPointResult",
    "SweepPointTask",
    "TaskFailure",
    "WorkerContext",
    "WorkerSpec",
    "attach_topology",
    "available_cpus",
    "publish_topology",
    "derive_uniform_baseline",
    "derive_uniform_family",
    "resolve_workers",
    "sample_attack_pairs",
    "task_fingerprint",
]
