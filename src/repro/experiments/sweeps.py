"""Shared sweep machinery for Figures 7-12, backed by the runner.

Each λ-sweep figure fixes one attacker/victim pair and sweeps the
number of prepended ASNs; the pair-grid figures fix λ and sweep
attacker/victim pairs.  Both decompose into independent
:class:`~repro.runner.SweepPointTask` instances, so they share one
execution path, :class:`~repro.runner.ShardedScheduler`: serial
in-process (with the baseline cache warm across points) or fanned out
over a supervised process pool.  The task list, and therefore the
result rows, are identical for every worker count — and under any
worker crash the pool recovers from, since recovery re-runs only the
in-flight points.  Sweeps need complete data, so a task that exhausts
its retry budget raises :class:`SimulationError` (campaigns, by
contrast, collect structured failures).

When a :class:`~repro.store.CampaignStore` is attached — explicitly via
``store=`` or ambiently via :func:`repro.store.use_store` — cells whose
fingerprints are already stored replay from the log (a fully warm
store performs *zero* engine propagations, not even baseline
prefetches), only missing cells run, and fresh results stream back as
they land, so a killed sweep resumes where it stopped and every later
campaign reuses them.  Rows stay bit-identical either way.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner import (
    BaselineCache,
    DeploymentPointResult,
    DeploymentPointTask,
    FaultPlan,
    RetryPolicy,
    ShardedScheduler,
    SweepPointResult,
    SweepPointTask,
    TaskFailure,
    WorkerContext,
    WorkerSpec,
)
from repro.store.active import get_active_store
from repro.telemetry.metrics import RunMetrics

__all__ = ["exhaustive_grid", "padding_sweep", "pair_grid", "deployment_sweep"]


def _prefetch_families(ctx: WorkerContext, tasks: Sequence[SweepPointTask]) -> None:
    """Warm the whole uniform-λ family for each victim in one canonical
    pass (repeat victims are already-cached no-ops).

    On a vectorized-backend engine the distinct victims converge first
    as one batched walk (a key-matrix column each), so a pair grid's
    canonical baselines cost one frontier sweep instead of one
    convergence per victim; the per-victim λ derivations then ride on
    the batched results."""
    by_prefix: dict[str, list[int]] = {}
    for task in tasks:
        by_prefix.setdefault(task.prefix, []).append(task.victim)
    for prefix, victims in by_prefix.items():
        ctx.cache.prefetch_canonical_batch(victims, prefix=prefix)
    for task in tasks:
        ctx.cache.prefetch_uniform(
            task.victim,
            [t.padding for t in tasks if t.victim == task.victim],
            prefix=task.prefix,
        )


def _raise_on_failures(results: list) -> list:
    """Sweep figures need every point; surface quarantined tasks loudly."""
    failures = [r for r in results if isinstance(r, TaskFailure)]
    if failures:
        first = failures[0]
        raise SimulationError(
            f"{len(failures)} sweep task(s) failed permanently after "
            f"{first.attempts} attempts (first: {first.kind}: {first.error})"
        )
    return results


def _run_tasks(
    engine: PropagationEngine,
    tasks: Sequence[SweepPointTask],
    *,
    workers: int | None,
    cache: BaselineCache | None,
    metrics: RunMetrics | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    store=None,
) -> list:
    """Run sweep tasks through the scheduler, serially on ``engine`` or
    across a process pool.

    With ``metrics`` enabled, the serial path records straight into the
    caller's registry (temporarily wiring it into the adopted engine and
    cache), and the pooled path merges the per-task deltas the workers
    ship back, so the deterministic counters come out identical for
    every worker count.  ``store`` defaults to the ambient one bound by
    :func:`repro.store.use_store`.
    """
    spec = WorkerSpec(
        engine.graph,
        max_activations=engine.max_activations,
        metrics_enabled=metrics is not None and metrics.enabled,
        backend=engine.backend,
        engine_mode=engine.mode,
        fault_plan=faults,
    )
    with ShardedScheduler(
        spec,
        workers=workers,
        retry=retry,
        store=store if store is not None else get_active_store(),
        metrics=metrics,
        engine=engine,
        cache=cache,
        prepare=_prefetch_families,
    ) as scheduler:
        return _raise_on_failures(scheduler.run(tasks))


def padding_sweep(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    paddings: Sequence[int],
    violate_policy: bool = False,
    workers: int | None = None,
    cache: BaselineCache | None = None,
    metrics: RunMetrics | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    store=None,
) -> list[tuple[int, float, float]]:
    """Run the attack for each λ; return ``(λ, before%, after%)`` rows.

    Fractions are percentages of ASes whose best path traverses the
    attacker, matching the paper's y-axis.  ``workers`` fans the λ
    points out over that many processes (``None``/``0``/``1`` = serial
    in-process); the rows are bit-identical for every worker count, and
    — because each point is a pure function of its inputs — also under
    any worker crashes the supervised pool recovers from.  ``cache``
    optionally shares one :class:`BaselineCache` across several serial
    sweeps on the same engine (e.g. a figure's valley-free and
    policy-violating series, whose baselines coincide).  ``metrics``
    optionally records engine/cache/worker telemetry into a
    :class:`RunMetrics` registry without affecting the rows.
    ``store`` replays stored points and persists fresh ones (crash
    resume and cross-campaign dedupe); ``retry`` tunes the supervision
    policy; ``faults`` injects deterministic failures (chaos testing).
    """
    tasks = [
        SweepPointTask(
            victim=victim,
            attacker=attacker,
            padding=padding,
            violate_policy=violate_policy,
        )
        for padding in paddings
    ]
    results = _run_tasks(
        engine,
        tasks,
        workers=workers,
        cache=cache,
        metrics=metrics,
        retry=retry,
        faults=faults,
        store=store,
    )
    return [result.row() for result in results]


def pair_grid(
    engine: PropagationEngine,
    pairs: Sequence[tuple[int, int]],
    *,
    origin_padding: int,
    workers: int | None = None,
    cache: BaselineCache | None = None,
    metrics: RunMetrics | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    store=None,
) -> list[SweepPointResult]:
    """Run one fixed-λ attack per ``(attacker, victim)`` pair.

    Results come back in ``pairs`` order regardless of worker count.
    Serially, victims recurring across pairs (Figure 7's Tier-1 × Tier-1
    grid) hit the baseline cache instead of re-converging.  See
    :func:`padding_sweep` for ``store``/``retry``/``faults``.
    """
    tasks = [
        SweepPointTask(victim=victim, attacker=attacker, padding=origin_padding)
        for attacker, victim in pairs
    ]
    return _run_tasks(
        engine,
        tasks,
        workers=workers,
        cache=cache,
        metrics=metrics,
        retry=retry,
        faults=faults,
        store=store,
    )


def exhaustive_grid(
    engine: PropagationEngine,
    *,
    attackers: Sequence[int],
    victims: Sequence[int],
    origin_padding: int,
    workers: int | None = None,
    cache: BaselineCache | None = None,
    metrics: RunMetrics | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    store=None,
) -> list[SweepPointResult]:
    """Every attacker × every victim at fixed λ — the full campaign grid.

    The grid enumerates the cross product deterministically (``attackers``
    outer, ``victims`` inner, self-pairs skipped) instead of drawing a
    sampled pool, which is the coverage the per-pair impact literature
    needs (PAPERS.md: hijack-impact estimation at full grid coverage).
    The cell order — and therefore the result rows and every stored
    fingerprint — is a pure function of the two pools, so a rerun
    against the same ``store`` replays exactly the completed cells no
    matter where the previous run died.

    O(attackers × victims) full re-propagations make dense grids
    intractable; run this under a delta-mode engine
    (``PropagationEngine(..., mode="delta")``), where each victim
    converges once and every cell re-converges only the attacker's
    affected cone (bit-identical rows either way — the golden grid test
    pins delta against per-pair full recomputes cell for cell).
    """
    pairs = [(a, v) for a in attackers for v in victims if a != v]
    if not pairs:
        raise SimulationError("exhaustive grid needs at least one attacker≠victim cell")
    return pair_grid(
        engine,
        pairs,
        origin_padding=origin_padding,
        workers=workers,
        cache=cache,
        metrics=metrics,
        retry=retry,
        faults=faults,
        store=store,
    )


def deployment_sweep(
    engine: PropagationEngine,
    *,
    victim: int,
    attacker: int,
    padding: int,
    policy: str,
    strategy: str = "top-degree-first",
    fractions: Sequence[float],
    seed: int = 0,
    violate_policy: bool = True,
    workers: int | None = None,
    cache: BaselineCache | None = None,
    metrics: RunMetrics | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    store=None,
) -> list[DeploymentPointResult]:
    """Run the attack once per deployment fraction of a security policy.

    Each point deploys ``policy`` (``"rov"``, ``"aspa"``,
    ``"prependguard"``, or ``"none"`` for the undefended control) at
    ``fraction`` of the ``strategy``'s candidate pool and measures
    residual pollution; results come back in ``fractions`` order for
    any worker count.  The honest baseline stays policy-free (one
    cached convergence serves every fraction); the deployer sets are
    nested across fractions, so the resulting curve is interpretable as
    "what does one more deployment step buy".  ``violate_policy``
    defaults to True — the paper's leaking attacker, the variant
    path-plausibility defences can actually see.  See
    :func:`padding_sweep` for ``workers``/``metrics``/``store``/
    ``retry``/``faults``; the security configuration itself is carried
    in the task fingerprints, so a store filled under a different
    policy setup replays nothing.
    """
    tasks = [
        DeploymentPointTask(
            victim=victim,
            attacker=attacker,
            padding=padding,
            policy=policy,
            strategy=strategy,
            fraction=fraction,
            seed=seed,
            violate_policy=violate_policy,
        )
        for fraction in fractions
    ]
    return _run_tasks(
        engine,
        tasks,
        workers=workers,
        cache=cache,
        metrics=metrics,
        retry=retry,
        faults=faults,
        store=store,
    )
