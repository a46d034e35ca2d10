"""Scheduler supervision and pool lifecycle regressions.

Covers the robustness satellites: the shared-memory segment must never
outlive a failed pool (construction failure, worker death, interpreter
exit), a closed scheduler must refuse reuse instead of respawning onto
an unlinked segment, shm transport accounting must land on the
scheduler's effective registry in every metric mode, and pool
construction failure must degrade to serial with identical results.
"""

from __future__ import annotations

import pytest

import repro.runner.scheduler as scheduler_mod
from repro.exceptions import SimulationError
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardedScheduler,
    SweepPointTask,
    TaskFailure,
    WorkerContext,
    WorkerSpec,
)
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


def _serial_reference(world, tasks):
    ctx = WorkerContext(WorkerSpec(world.graph))
    return [task.run(ctx) for task in tasks]


def _pooled(spec, **kwargs):
    return ShardedScheduler(spec, workers=2, force_processes=True, **kwargs)


class TestReuseAfterClose:
    def test_sweep_executor_run_after_close_raises(self, small_world):
        scheduler = ShardedScheduler(WorkerSpec(small_world.graph), workers=1)
        scheduler.close()
        assert scheduler.closed
        with pytest.raises(SimulationError, match="closed"):
            scheduler.run(_tasks(small_world))

    def test_supervised_executor_run_after_close_raises(self, small_world):
        scheduler = ShardedScheduler(
            WorkerSpec(small_world.graph), workers=1, retry=FAST
        )
        scheduler.close()
        assert scheduler.closed
        with pytest.raises(SimulationError, match="closed"):
            scheduler.run(_tasks(small_world))

    def test_closed_pool_executor_does_not_respawn(self, small_world):
        scheduler = _pooled(WorkerSpec(small_world.graph))
        scheduler.close()
        with pytest.raises(SimulationError, match="closed"):
            scheduler.run(_tasks(small_world))
        assert scheduler._pool is None
        assert scheduler._shm_segment is None

    def test_context_manager_closes(self, small_world):
        with ShardedScheduler(WorkerSpec(small_world.graph)) as scheduler:
            assert not scheduler.closed
        assert scheduler.closed


class TestShmLifecycle:
    def test_pool_construction_failure_unlinks_segment(
        self, small_world, monkeypatch
    ):
        """If ``ProcessPoolExecutor()`` itself raises after the topology
        was published, the segment must be unlinked on the spot."""

        def explode(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(scheduler_mod, "ProcessPoolExecutor", explode)
        before = set(scheduler_mod._LIVE_SEGMENTS)
        tasks = _tasks(small_world)
        with _pooled(WorkerSpec(small_world.graph)) as scheduler:
            assert scheduler.run(tasks) == _serial_reference(small_world, tasks)
            assert scheduler._shm_segment is None
            assert scheduler_mod._LIVE_SEGMENTS == before

    def test_worker_death_unlinks_segment(self, small_world):
        """A pool killed by worker death releases its segment before the
        scheduler moves on (regression for the pre-supervision leak)."""
        tasks = _tasks(small_world)
        plan = FaultPlan.for_tasks(
            {task: FaultSpec("crash", attempts=(0,)) for task in tasks}
        )
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        before = set(scheduler_mod._LIVE_SEGMENTS)
        with _pooled(spec, retry=RetryPolicy(max_attempts=1)) as scheduler:
            results = scheduler.run(tasks)
            assert all(isinstance(r, TaskFailure) for r in results)
            assert {r.kind for r in results} == {"crash"}
            assert scheduler._shm_segment is None
            assert scheduler._pool is None
            assert scheduler_mod._LIVE_SEGMENTS == before

    def test_atexit_guard_reaps_orphaned_segments(self, small_world):
        """A segment published but never released (crash between publish
        and pool construction) is unlinked by the atexit sweep."""
        scheduler = _pooled(WorkerSpec(small_world.graph))
        scheduler._pool_spec()
        segment = scheduler._shm_segment
        assert segment is not None
        assert segment in scheduler_mod._LIVE_SEGMENTS

        scheduler_mod._cleanup_segments()
        assert segment not in scheduler_mod._LIVE_SEGMENTS
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment.name)
        scheduler.close()  # idempotent: double-release must not raise

    def test_supervised_close_releases_segment(self, small_world):
        scheduler = _pooled(WorkerSpec(small_world.graph), retry=FAST)
        scheduler.run(_tasks(small_world))
        scheduler.close()
        assert scheduler._shm_segment is None
        assert scheduler._pool is None


class TestEffectiveRegistry:
    """Satellite: ``_pool_spec`` must account shm transport on the
    scheduler's effective registry in *all* metric modes."""

    def test_publish_recorded_on_caller_registry_with_unmetered_spec(
        self, small_world
    ):
        metrics = RunMetrics()
        scheduler = _pooled(
            WorkerSpec(small_world.graph, metrics_enabled=False), metrics=metrics
        )
        scheduler._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.publishes") == 1
            assert metrics.counter_value("runner.shm.published_bytes") > 0
        finally:
            scheduler.close()

    def test_fallback_recorded_on_caller_registry(self, small_world, monkeypatch):
        def refuse(topo):
            raise OSError("/dev/shm unavailable")

        monkeypatch.setattr(scheduler_mod, "publish_topology", refuse)
        metrics = RunMetrics()
        scheduler = _pooled(
            WorkerSpec(small_world.graph, metrics_enabled=False), metrics=metrics
        )
        spec = scheduler._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.fallbacks") == 1
            # The fallback spec ships the pickled graph unchanged.
            assert spec.graph is small_world.graph
            assert spec.shared_topology is None
            assert scheduler._shm_segment is None
        finally:
            scheduler.close()

    def test_fallback_recorded_on_auto_registry_with_metered_spec(
        self, small_world, monkeypatch
    ):
        monkeypatch.setattr(
            scheduler_mod,
            "publish_topology",
            lambda topo: (_ for _ in ()).throw(OSError("nope")),
        )
        scheduler = _pooled(WorkerSpec(small_world.graph, metrics_enabled=True))
        scheduler._pool_spec()
        try:
            assert scheduler.metrics is not None
            assert scheduler.metrics.counter_value("runner.shm.fallbacks") == 1
        finally:
            scheduler.close()

    def test_disabled_registry_records_nothing(self, small_world):
        metrics = RunMetrics(enabled=False)
        scheduler = _pooled(
            WorkerSpec(small_world.graph, metrics_enabled=False), metrics=metrics
        )
        scheduler._pool_spec()
        try:
            assert metrics.counter_value("runner.shm.publishes") == 0
        finally:
            scheduler.close()


class TestGracefulDegradation:
    def test_unbuildable_pool_degrades_to_serial(self, small_world, monkeypatch):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)

        def explode(*args, **kwargs):
            raise OSError("fork failed")

        monkeypatch.setattr(scheduler_mod, "ProcessPoolExecutor", explode)
        metrics = RunMetrics()
        with _pooled(
            WorkerSpec(small_world.graph), metrics=metrics, retry=FAST
        ) as scheduler:
            results = scheduler.run(tasks)
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1

    def test_persistently_dying_pool_degrades_to_serial(self, small_world):
        """A pool that keeps crashing without completing anything stalls
        out after ``max_pool_restarts`` losses and finishes serially."""
        tasks = _tasks(small_world, count=2)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks(
            {task: FaultSpec("crash", attempts=tuple(range(6))) for task in tasks}
        )
        spec = WorkerSpec(small_world.graph, fault_plan=plan)
        metrics = RunMetrics()
        policy = RetryPolicy(
            max_attempts=10,
            backoff_base=0.01,
            backoff_max=0.05,
            max_pool_restarts=1,
        )
        with _pooled(spec, metrics=metrics, retry=policy) as scheduler:
            results = scheduler.run(tasks)
        # In-process the crash fault surfaces as InjectedCrashError, so
        # the serial fallback retries through the remaining faulty
        # attempts and still converges.
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1
        assert metrics.counter_value("runner.pool_restarts") >= 1

    def test_degraded_run_still_retries_faults(self, small_world, monkeypatch):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks({tasks[1]: FaultSpec("raise", attempts=(0,))})
        monkeypatch.setattr(
            scheduler_mod,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("fork failed")),
        )
        metrics = RunMetrics()
        spec = WorkerSpec(small_world.graph, metrics_enabled=True, fault_plan=plan)
        with _pooled(spec, metrics=metrics, retry=FAST) as scheduler:
            results = scheduler.run(tasks)
        assert results == reference
        assert metrics.counter_value("runner.serial_degradations") == 1
        assert metrics.counter_value("runner.retries") == 1
        assert metrics.counter_value("worker.tasks") == len(tasks)


class TestCrashAttribution:
    def test_bystanders_are_never_charged_for_a_crash(self, small_world):
        """Only the task that kills its worker pays: the tasks in flight
        beside it re-run uncharged (isolated until the culprit is
        known), so the retry count is exactly the culprit's crashes and
        a tight budget never quarantines an innocent task."""
        tasks = _tasks(small_world, count=6)
        reference = _serial_reference(small_world, tasks)
        plan = FaultPlan.for_tasks({tasks[0]: FaultSpec("crash", attempts=(0, 1))})
        metrics = RunMetrics()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)
        with _pooled(
            WorkerSpec(small_world.graph, fault_plan=plan), metrics=metrics, retry=policy
        ) as scheduler:
            assert scheduler.run(tasks) == reference
        assert metrics.counter_value("runner.retries") == 2
        assert metrics.counter_value("runner.quarantined_tasks") == 0
