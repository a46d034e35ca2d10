"""The one task path: store lookup, supervised execution, store write-back.

Sweeps, grids, deployment sweeps and campaigns all decompose into pure,
frozen task descriptors (:mod:`repro.runner.tasks`), each identified by
its :func:`~repro.runner.tasks.task_fingerprint`.  :class:`ShardedScheduler`
is the single way those lists run:

1. **store lookup** — every fingerprint is looked up in the attached
   :class:`~repro.store.CampaignStore` first; hits go straight into
   their result slots, so only missing cells are scheduled (a fully warm
   store builds no engine and compiles no topology);
2. **supervised execution** — the missing tasks run serially in-process
   (adopting the caller's engine and baseline cache) or on a process
   pool whose workers bootstrap from a shared-memory topology, under
   one failure model:

   * *worker death* — a broken pool is torn down (shared memory
     unlinked) and completed futures are harvested.  A lone in-flight
     task is the culprit and is charged one attempt; several become
     uncharged *suspects* that re-run one at a time on the respawned
     pool, so the next death names its culprit and a bystander never
     pays for another task's crash;
   * *deadlines* — tasks are ``submit()``-ed individually (bounded to a
     small in-flight window so queueing time never counts against the
     deadline); a task that outlives :attr:`RetryPolicy.deadline` can
     only be reclaimed by killing the pool, so the scheduler does
     exactly that, charges the hung task, and requeues the innocent
     bystanders uncharged;
   * *bounded retries with backoff* — a task that exhausts
     :attr:`RetryPolicy.max_attempts` is quarantined as a structured
     :class:`TaskFailure` in its result slot instead of crashing the
     run (it is never stored, so the next run retries it);
   * *graceful degradation* — if the pool cannot be built at all, or
     keeps dying without completing anything, the remaining tasks run
     serially in-process;

3. **store write-back** — every fresh result is put into the store as
   it lands, so a killed campaign resumes where it stopped and no later
   campaign recomputes it.

Every task is a pure function of its descriptor and fault plans key on
fingerprints, so results come back in task order and bit-identical for
every worker count, under any recovered fault.

Telemetry: ``scheduler.tasks``, ``scheduler.store_hits`` and
``scheduler.executed``; the supervision counters ``runner.retries``,
``runner.pool_restarts``, ``runner.deadline_kills``,
``runner.quarantined_tasks`` and ``runner.serial_degradations``; and
shared-memory transport accounting under ``runner.shm.*``.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.bgp.compiled import CompiledTopology
from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner.cache import BaselineCache
from repro.runner.faults import InjectedCrashError
from repro.runner.shm import publish_topology
from repro.runner.tasks import WorkerContext, WorkerSpec, task_fingerprint
from repro.telemetry.metrics import RunMetrics

__all__ = [
    "RetryPolicy",
    "ShardedScheduler",
    "TaskFailure",
    "available_cpus",
    "resolve_workers",
]

_UNSET = object()


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None, *, force: bool = False) -> int:
    """Normalise a requested worker count.

    ``None`` and ``0`` mean "serial" (1).  Requests beyond the CPUs the
    scheduler will actually grant are clamped — extra processes on a
    saturated machine only add pickling overhead — unless ``force`` is
    set, which the differential tests use to exercise the real
    multi-process path even on single-CPU hosts.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"worker count must be >= 0, got {workers}")
    if workers in (0, 1):
        return 1
    if force:
        return workers
    return min(workers, available_cpus())


#: Shared-memory segments published by live schedulers.  Normally the
#: owner unlinks its segment when its pool goes away; this registry is
#: the backstop for schedulers abandoned between publish and pool
#: construction, so ``/dev/shm`` is swept clean when the interpreter
#: exits no matter what.
_LIVE_SEGMENTS: set = set()


def _cleanup_segments() -> None:
    for segment in list(_LIVE_SEGMENTS):
        _LIVE_SEGMENTS.discard(segment)
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already reaped
            pass


atexit.register(_cleanup_segments)


# Per-process context, built once by the pool initializer.
_CONTEXT: WorkerContext | None = None


def _init_worker(spec: WorkerSpec) -> None:
    global _CONTEXT
    _CONTEXT = WorkerContext(spec, in_pool_worker=True)


def execute_task(
    task: Any, ctx: WorkerContext, worker_label: str = "serial", attempt: int = 0
) -> Any:
    """Run one task against ``ctx``, recording worker-level telemetry.

    ``worker.tasks``/``worker.task_seconds`` are worker-count-invariant
    totals; the per-worker load split goes into the registry's ``info``
    section (keyed by ``worker_label``), which is expected to differ
    between serial and pooled runs.

    When the context carries a :class:`~repro.runner.faults.FaultPlan`,
    the fault scheduled for ``(task, attempt)`` fires *before* the task
    body — so a faulted attempt does no work and records nothing, and
    ``worker.tasks`` counts exactly the attempts that completed.
    """
    if ctx.faults is not None:
        ctx.faults.fire(task, attempt, in_pool_worker=ctx.in_pool_worker)
    metrics = ctx.metrics
    if not metrics.enabled:
        return task.run(ctx)
    start = time.perf_counter()
    result = task.run(ctx)
    metrics.timer_add("worker.task_seconds", time.perf_counter() - start)
    metrics.count("worker.tasks")
    metrics.info_add(f"worker.{worker_label}.tasks")
    return result


def _run_in_worker(task: Any, attempt: int) -> tuple[Any, Any]:
    """Pool entry point: the parent threads the attempt number through
    so fault plans can key on it, and a metered worker ships its
    metrics delta back with the result."""
    assert _CONTEXT is not None, "worker used before initialization"
    metrics = _CONTEXT.metrics
    try:
        result = execute_task(task, _CONTEXT, f"pid{os.getpid()}", attempt=attempt)
    except BaseException:
        # Drop the failed attempt's partial recordings so they cannot
        # contaminate the delta shipped with this worker's next result.
        if metrics.enabled:
            metrics.take()
        raise
    return result, metrics.take() if metrics.enabled else None


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the scheduler tries before giving up on a task."""

    #: total attempts per task (first execution included).
    max_attempts: int = 3
    #: exponential backoff before the n-th retry:
    #: ``min(backoff_max, backoff_base * backoff_factor**(n-1))``.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: per-task wall-clock deadline in pool mode; ``None`` disables the
    #: watchdog.  Serial in-process execution cannot pre-empt a running
    #: task, so deadlines are only enforced across the pool.
    deadline: float | None = None
    #: consecutive pool losses without a single completed task before
    #: the scheduler degrades to serial in-process execution.
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise SimulationError("backoff parameters must be non-negative (factor >= 1)")
        if self.deadline is not None and self.deadline <= 0:
            raise SimulationError(f"deadline must be positive, got {self.deadline}")
        if self.max_pool_restarts < 0:
            raise SimulationError("max_pool_restarts must be >= 0")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before resubmitting after ``failed_attempts`` failures."""
        if failed_attempts < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
        )


@dataclass(frozen=True)
class TaskFailure:
    """A task quarantined after exhausting its retry budget.

    Occupies the task's slot in the result list so the caller keeps
    positional correspondence with the submitted batch, can tell
    exactly which inputs failed, and decides policy (skip, report,
    re-run) instead of losing the whole campaign to one poisoned task.
    """

    task: Any
    fingerprint: str
    attempts: int
    #: ``"crash"`` (worker death), ``"deadline"`` (killed past the
    #: deadline) or ``"error"`` (the task raised).
    kind: str
    error: str


class _Item:
    """Mutable supervision state for one scheduled task."""

    __slots__ = ("index", "task", "fp", "attempt", "not_before", "submitted_at")

    def __init__(self, index: int, task: Any, fp: str) -> None:
        self.index = index
        self.task = task
        self.fp = fp
        self.attempt = 0
        self.not_before = 0.0
        self.submitted_at = 0.0


def _failure_kind(exc: BaseException) -> str:
    return "crash" if isinstance(exc, InjectedCrashError) else "error"


_DIED = "worker process died (BrokenProcessPool)"


class ShardedScheduler:
    """Run a fingerprinted task list: store hits, supervised misses.

    ``workers`` is the pool size (``None``/``0``/``1`` = serial
    in-process; requests beyond the granted CPUs are clamped unless
    ``force_processes``).  Serially the scheduler adopts the caller's
    ``engine``/``cache`` — wiring ``metrics`` into them for the run and
    restoring their previous registries on :meth:`close`; pooled, each
    worker builds its own context from ``spec`` and the adoption
    arguments are ignored.

    ``store`` is duck-typed (``get(fp, default)`` / ``put(fp, value)``):
    anything content-addressed by the same task fingerprints works.
    ``fingerprint_context`` folds run-level configuration that lives
    outside the task descriptors into every fingerprint.
    ``prepare(ctx, tasks)`` is an optional serial warmup hook invoked
    with the tasks that will actually run — the sweep layer uses it to
    batch-prefetch baseline families for *missing* cells only.

    Use as a context manager (or call :meth:`close`) so pool processes
    are reaped; running several batches through one scheduler reuses
    the pool and the warm baseline caches.  A closed scheduler refuses
    further runs instead of respawning onto an unlinked segment.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        *,
        workers: int | None = None,
        force_processes: bool = False,
        retry: RetryPolicy | None = None,
        store: Any = None,
        fingerprint_context: str | None = None,
        metrics: RunMetrics | None = None,
        engine: PropagationEngine | None = None,
        cache: BaselineCache | None = None,
        prepare: Callable[[WorkerContext, list[Any]], None] | None = None,
    ) -> None:
        self.spec = spec
        self.workers = resolve_workers(workers, force=force_processes)
        self.retry = retry if retry is not None else RetryPolicy()
        self.store = store
        self.fingerprint_context = fingerprint_context
        self.prepare = prepare
        if metrics is None and spec.metrics_enabled:
            metrics = RunMetrics()
        self._registry = metrics
        if self.workers != 1:
            engine = cache = None
        self._engine = engine
        self._cache = cache
        #: (owner, registry) pairs restored on close: the context wires
        #: the scheduler's registry into an adopted engine and cache.
        self._restore = [
            (owner, owner.metrics) for owner in (engine, cache) if owner is not None
        ]
        self._context: WorkerContext | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._shm_segment = None
        self._built_pool = False
        self._degraded = False
        self._closed = False
        #: counters of the most recent :meth:`run`, for callers without
        #: a metrics registry (tests, CLI summaries).
        self.stats: dict[str, int] = {}

    @property
    def metrics(self) -> RunMetrics | None:
        """The effective registry, or ``None`` when metrics are off.
        Serially the in-process context records into it directly; in
        pool mode it accumulates the per-task deltas the workers ship
        back, merged in completion order."""
        registry = self._registry
        return registry if registry is not None and registry.enabled else None

    @property
    def context(self) -> WorkerContext | None:
        """The in-process context, once a serial run has built it."""
        return self._context

    @property
    def closed(self) -> bool:
        return self._closed

    def _count(self, name: str, n: int = 1) -> None:
        registry = self.metrics
        if registry is not None and n:
            registry.count(name, n)

    # -- entry point ----------------------------------------------------
    def run(self, tasks: Sequence[Any]) -> list[Any]:
        """Execute ``tasks``; results in task order, store hits replayed."""
        if self._closed:
            raise SimulationError(
                "ShardedScheduler is closed; build a new scheduler for "
                "further batches"
            )
        tasks = list(tasks)
        results: list[Any] = [_UNSET] * len(tasks)
        todo: list[_Item] = []
        for index, task in enumerate(tasks):
            fp = task_fingerprint(task, self.fingerprint_context)
            if self.store is not None:
                value = self.store.get(fp, _UNSET)
                if value is not _UNSET:
                    results[index] = value
                    continue
            todo.append(_Item(index, task, fp))
        hits = len(tasks) - len(todo)
        self.stats = {"tasks": len(tasks), "store_hits": hits, "executed": len(todo)}
        self._count("scheduler.tasks", len(tasks))
        self._count("scheduler.store_hits", hits)
        self._count("scheduler.executed", len(todo))
        if todo:
            if self.workers == 1:
                ctx = self._serial_context()
                if self.prepare is not None:
                    self.prepare(ctx, [item.task for item in todo])
                self._run_serial(todo, results, ctx)
            else:
                self._run_pool(todo, results)
        assert all(value is not _UNSET for value in results)
        return results

    # -- settlement -----------------------------------------------------
    def _settle(self, item: _Item, value: Any, results: list[Any]) -> None:
        results[item.index] = value
        if self.store is not None:
            self.store.put(item.fp, value)

    def _retry_or_quarantine(
        self, item: _Item, results: list[Any], *, kind: str, error: str
    ) -> list[_Item]:
        """Charge ``item`` one failed attempt; requeue it or give up."""
        item.attempt += 1
        if item.attempt >= self.retry.max_attempts:
            results[item.index] = TaskFailure(
                task=item.task,
                fingerprint=item.fp,
                attempts=item.attempt,
                kind=kind,
                error=error,
            )
            self._count("runner.quarantined_tasks")
            return []
        self._count("runner.retries")
        item.not_before = time.monotonic() + self.retry.backoff(item.attempt)
        return [item]

    # -- serial path (workers == 1, and pool degradation) ---------------
    def _serial_context(self) -> WorkerContext:
        """The in-process context, built on first use: an all-hits run
        never compiles a topology.  When pooled (degradation) it is
        built from ``spec`` — pickled-graph transport, no shared memory
        to manage — and records into the effective registry."""
        if self._context is None:
            self._context = WorkerContext(
                self.spec, engine=self._engine, cache=self._cache, metrics=self._registry
            )
        return self._context

    def _run_serial(
        self, items: list[_Item], results: list[Any], ctx: WorkerContext
    ) -> None:
        for item in items:
            while True:
                try:
                    value = execute_task(item.task, ctx, "serial", attempt=item.attempt)
                except Exception as exc:
                    requeued = self._retry_or_quarantine(
                        item, results, kind=_failure_kind(exc), error=repr(exc)
                    )
                    if not requeued:
                        break
                    delay = item.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self._settle(item, value, results)
                break

    # -- pool lifecycle -------------------------------------------------
    def _pool_spec(self) -> WorkerSpec:
        """The spec actually shipped to pool workers.

        For the compiled backend the parent compiles the topology once,
        publishes the CSR payload into shared memory, and replaces the
        pickled graph with the segment handle — workers bootstrap their
        engines without ever unpickling an :class:`ASGraph`.  If shared
        memory is unavailable (no ``/dev/shm``, permissions, size
        limits) the original graph-pickling spec is used unchanged.
        """
        spec = self.spec
        if spec.backend != "compiled" or spec.graph is None:
            return spec
        if spec.shared_topology is not None:
            return spec
        try:
            topo = CompiledTopology.from_graph(spec.graph)
            self._shm_segment, handle = publish_topology(topo)
        except (OSError, ValueError):
            self._count("runner.shm.fallbacks")
            return spec
        _LIVE_SEGMENTS.add(self._shm_segment)
        self._count("runner.shm.publishes")
        self._count("runner.shm.published_bytes", handle.size)
        return dataclasses.replace(spec, graph=None, shared_topology=handle)

    def _get_pool(self) -> ProcessPoolExecutor | None:
        """The live pool, (re)built on demand; ``None`` once degraded."""
        if self._degraded:
            return None
        if self._pool is None:
            spec = self._pool_spec()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(spec,),
                )
            except Exception:
                # Construction itself failed (fork unavailable, resource
                # limits, ...): unlink the just-published segment and
                # degrade — there is nothing to retry against.
                self._release_shm()
                self._degraded = True
                return None
            if self._built_pool:
                self._count("runner.pool_restarts")
            self._built_pool = True
        return self._pool

    def _release_shm(self) -> None:
        segment, self._shm_segment = self._shm_segment, None
        if segment is None:
            return
        _LIVE_SEGMENTS.discard(segment)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    def _discard_pool(self, *, kill: bool = False) -> None:
        """Tear down the current pool (if any) and its shm segment.

        ``kill`` hard-terminates worker processes first — the only way
        to reclaim a worker stuck in a hung task — and skips waiting on
        them during shutdown.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                for proc in list(getattr(pool, "_processes", {}).values() or []):
                    try:
                        proc.kill()
                    except Exception:  # pragma: no cover - already dead
                        pass
            try:
                pool.shutdown(wait=not kill, cancel_futures=kill)
            except Exception:  # pragma: no cover - broken pool teardown
                pass
        self._release_shm()

    # -- pool path ------------------------------------------------------
    def _harvest(self, value: tuple[Any, Any]) -> Any:
        result, delta = value
        if delta is not None and self._registry is not None:
            self._registry.merge(delta)
        return result

    def _drain(self, inflight: dict[Future, _Item], results: list[Any]) -> list[_Item]:
        """Empty ``inflight`` after the pool was lost: settle futures that
        finished before the loss and return the rest, uncharged."""
        unfinished: list[_Item] = []
        for future, item in inflight.items():
            value: Any = _UNSET
            if future.done() and not future.cancelled():
                try:
                    value = future.result(timeout=0)
                except Exception:
                    value = _UNSET
            if value is _UNSET:
                item.not_before = 0.0
                unfinished.append(item)
            else:
                self._settle(item, self._harvest(value), results)
        inflight.clear()
        return unfinished

    def _submit(
        self, pool: ProcessPoolExecutor, item: _Item, inflight: dict[Future, _Item]
    ) -> bool:
        """Submit ``item``; ``False`` when the pool turns out to be broken."""
        try:
            future = pool.submit(_run_in_worker, item.task, item.attempt)
        except BrokenProcessPool:
            return False
        item.submitted_at = time.monotonic()
        inflight[future] = item
        return True

    def _wait_timeout(
        self, inflight: dict[Future, _Item], pending: list[_Item], now: float
    ) -> float | None:
        """How long to block in ``wait()``: until the nearest deadline
        or backoff expiry, or indefinitely when neither applies."""
        candidates: list[float] = []
        if self.retry.deadline is not None:
            candidates.extend(
                item.submitted_at + self.retry.deadline
                for item in inflight.values()
            )
        candidates.extend(
            item.not_before for item in pending if item.not_before > now
        )
        if not candidates:
            return None
        return max(0.01, min(candidates) - now)

    def _run_pool(self, items: list[_Item], results: list[Any]) -> None:
        pending: list[_Item] = list(items)
        #: tasks in flight when a pool died beside other tasks; each
        #: re-runs alone, uncharged, so a repeat death names its culprit.
        suspects: list[_Item] = []
        inflight: dict[Future, _Item] = {}
        stalls = 0  # consecutive pool losses without any completed task
        # Bound the in-flight window so a task's deadline clock starts
        # roughly when it starts *running*, not when it joins a long
        # submission queue.
        window = max(2, 2 * self.workers)
        while pending or suspects or inflight:
            pool = self._get_pool()
            if pool is None:
                remaining = sorted(
                    pending + suspects + list(inflight.values()),
                    key=lambda item: item.index,
                )
                inflight.clear()
                self._count("runner.serial_degradations")
                self._run_serial(remaining, results, self._serial_context())
                return
            now = time.monotonic()
            broken = False
            lost: list[_Item] = []
            if suspects:
                if not inflight:
                    broken = not self._submit(pool, suspects[0], inflight)
                    if not broken:
                        suspects.pop(0)
            else:
                held: list[_Item] = []
                for position, item in enumerate(pending):
                    if len(inflight) >= window:
                        held.extend(pending[position:])
                        break
                    if item.not_before > now:
                        held.append(item)
                    elif not self._submit(pool, item, inflight):
                        broken = True
                        held.extend(pending[position:])
                        break
                pending = held
            if not broken and inflight:
                timeout = self._wait_timeout(inflight, pending, time.monotonic())
                done, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                completed = 0
                for future in done:
                    item = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        lost.append(item)
                        continue
                    except Exception as exc:
                        # The pool made progress even though the task
                        # failed: the worker is alive and accountable.
                        completed += 1
                        pending.extend(
                            self._retry_or_quarantine(
                                item, results, kind=_failure_kind(exc), error=repr(exc)
                            )
                        )
                        continue
                    completed += 1
                    self._settle(item, self._harvest(value), results)
                if completed:
                    stalls = 0
            if broken:
                lost.extend(self._drain(inflight, results))
                if len(lost) == 1:
                    # Alone in flight: this task killed its worker.
                    pending.extend(
                        self._retry_or_quarantine(lost[0], results, kind="crash", error=_DIED)
                    )
                else:
                    suspects.extend(lost)
                self._discard_pool(kill=True)
                stalls += 1
                if stalls > self.retry.max_pool_restarts:
                    self._degraded = True
                continue
            if self.retry.deadline is not None and inflight:
                now = time.monotonic()
                expired = [
                    future
                    for future, item in inflight.items()
                    if now - item.submitted_at > self.retry.deadline
                ]
                if expired:
                    # A hung worker never returns; the only reclamation
                    # is killing the pool.  Charge the hung tasks, let
                    # the innocent in-flight tasks ride again uncharged.
                    self._count("runner.deadline_kills", len(expired))
                    for future in expired:
                        item = inflight.pop(future)
                        pending.extend(
                            self._retry_or_quarantine(
                                item,
                                results,
                                kind="deadline",
                                error=(
                                    f"task exceeded its {self.retry.deadline:.3f}s "
                                    "deadline and its worker was killed"
                                ),
                            )
                        )
                    pending.extend(self._drain(inflight, results))
                    self._discard_pool(kill=True)
                    continue
            if not inflight and pending:
                # Everything left is backing off; sleep until the
                # earliest becomes submittable.
                delay = min(item.not_before for item in pending) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, self.retry.backoff_max or 0.05))

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._discard_pool()
        for owner, registry in self._restore:
            owner.metrics = registry

    def __enter__(self) -> "ShardedScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
