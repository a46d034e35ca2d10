"""ShardedScheduler: bit-identity at any worker count, store dedupe and
write-back, quarantine semantics, engine adoption and lifecycle."""

from __future__ import annotations

import pytest

from repro.bgp.engine import PropagationEngine
from repro.exceptions import SimulationError
from repro.runner import (
    BaselineCache,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardedScheduler,
    SweepPointTask,
    TaskFailure,
    WorkerContext,
    WorkerSpec,
    task_fingerprint,
)
from repro.store import CampaignStore
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(max_attempts=5, backoff_base=0.0, backoff_max=0.0)


def _tasks(world, count=10):
    victim, attacker = world.tier1[0], world.tier1[1]
    pairs = [(victim, attacker), (attacker, victim)]
    return [
        SweepPointTask(victim=v, attacker=a, padding=p)
        for v, a in pairs
        for p in range(1, count // 2 + 1)
    ]


def _serial_reference(world, tasks):
    ctx = WorkerContext(WorkerSpec(world.graph))
    return [task.run(ctx) for task in tasks]


class TestBitIdentityAcrossWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_reference(self, small_world, workers):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        with ShardedScheduler(
            WorkerSpec(small_world.graph), workers=workers, force_processes=True
        ) as scheduler:
            assert scheduler.run(tasks) == reference
            assert scheduler.stats == {
                "tasks": len(tasks),
                "store_hits": 0,
                "executed": len(tasks),
            }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chaos_matches_serial_reference(
        self, small_world, workers
    ):
        """Fault plans key on task fingerprints, not placement, so a
        seeded chaos run is worker-count-invariant too."""
        tasks = _tasks(small_world)
        plan = FaultPlan.seeded(tasks, seed=3, rate=0.5, modes=("crash", "raise"))
        assert plan  # the seed must actually schedule faults
        reference = _serial_reference(small_world, tasks)
        with ShardedScheduler(
            WorkerSpec(small_world.graph, fault_plan=plan),
            workers=workers,
            force_processes=True,
            retry=FAST,
        ) as scheduler:
            assert scheduler.run(tasks) == reference

    def test_results_keep_task_order(self, small_world):
        tasks = _tasks(small_world)
        with ShardedScheduler(
            WorkerSpec(small_world.graph), workers=4, force_processes=True
        ) as scheduler:
            results = scheduler.run(tasks)
        for task, result in zip(tasks, results):
            assert result.padding == task.padding
            assert result.victim == task.victim
            assert result.attacker == task.attacker


class TestStoreIntegration:
    def test_warm_store_executes_nothing(self, small_world, tmp_path):
        tasks = _tasks(small_world)
        root = tmp_path / "store"
        with CampaignStore(root) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), workers=2, store=store
            ) as scheduler:
                first = scheduler.run(tasks)
            assert scheduler.stats["executed"] == len(tasks)
            assert len(store) == len(tasks)

        metrics = RunMetrics()
        with CampaignStore(root, metrics=metrics) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph),
                workers=2,
                store=store,
                metrics=metrics,
            ) as scheduler:
                second = scheduler.run(tasks)
            assert scheduler.stats == {
                "tasks": len(tasks),
                "store_hits": len(tasks),
                "executed": 0,
            }
            # an all-hits run never builds a context, pool or topology
            assert scheduler.context is None
            assert scheduler._pool is None
        assert second == first
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert not any(
            name.startswith(("engine.", "runner.shm.")) for name in metrics.counters
        )

    def test_partial_warm_store_runs_only_missing_cells(
        self, small_world, tmp_path
    ):
        tasks = _tasks(small_world)
        reference = _serial_reference(small_world, tasks)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), store=store
            ) as scheduler:
                scheduler.run(tasks[: len(tasks) // 2])
            with ShardedScheduler(
                WorkerSpec(small_world.graph), store=store
            ) as scheduler:
                results = scheduler.run(tasks)
            assert scheduler.stats["store_hits"] == len(tasks) // 2
            assert scheduler.stats["executed"] == len(tasks) - len(tasks) // 2
        assert results == reference

    def test_store_hits_cross_scheduler_shapes(self, small_world, tmp_path):
        """Cells computed by a serial run serve a pooled run: content
        addressing is placement-blind."""
        tasks = _tasks(small_world)
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), store=store
            ) as scheduler:
                first = scheduler.run(tasks)
            with ShardedScheduler(
                WorkerSpec(small_world.graph),
                workers=4,
                force_processes=True,
                store=store,
            ) as scheduler:
                second = scheduler.run(tasks)
            assert scheduler.stats["executed"] == 0
        assert second == first

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantined_task_is_not_stored(self, small_world, tmp_path, workers):
        """The store is truth about completed work only: a quarantined
        task stays a TaskFailure in its slot and the next run retries
        it, while its siblings replay."""
        tasks = _tasks(small_world, count=4)
        reference = _serial_reference(small_world, tasks)
        poisoned = tasks[1]
        plan = FaultPlan.for_tasks(
            {poisoned: FaultSpec("raise", attempts=tuple(range(FAST.max_attempts)))}
        )
        root = tmp_path / "store"
        with CampaignStore(root) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph, fault_plan=plan),
                workers=workers,
                force_processes=True,
                retry=FAST,
                store=store,
            ) as scheduler:
                results = scheduler.run(tasks)
            assert isinstance(results[1], TaskFailure)
            assert results[1].fingerprint == task_fingerprint(poisoned)
            assert task_fingerprint(poisoned) not in store
            assert len(store) == len(tasks) - 1

        with CampaignStore(root) as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), workers=workers, store=store
            ) as scheduler:
                assert scheduler.run(tasks) == reference
            assert scheduler.stats["executed"] == 1
            assert len(store) == len(tasks)

    def test_results_stream_into_the_store_as_they_land(
        self, small_world, tmp_path
    ):
        """A run killed mid-list keeps every result settled before the
        kill: write-back is per task, not per batch."""
        tasks = _tasks(small_world, count=6)
        kill_at = 4

        class Killed(Exception):
            pass

        with CampaignStore(tmp_path / "store") as store:
            put = store.put
            calls = []

            def put_until_killed(fingerprint, value, **kwargs):
                calls.append(fingerprint)
                if len(calls) == kill_at:
                    raise Killed()
                return put(fingerprint, value, **kwargs)

            store.put = put_until_killed
            with ShardedScheduler(
                WorkerSpec(small_world.graph), store=store
            ) as scheduler:
                with pytest.raises(Killed):
                    scheduler.run(tasks)
            assert len(store) == kill_at - 1


class TestGuards:
    def test_engine_adoption_requires_serial_single_shard(
        self, small_world, monkeypatch
    ):
        """Only a serial scheduler adopts the caller's engine; a pooled
        one builds worker contexts from the spec and leaves the engine's
        registry alone."""
        import repro.runner.scheduler as scheduler_mod

        monkeypatch.setattr(scheduler_mod, "available_cpus", lambda: 4)
        engine = PropagationEngine(small_world.graph)
        before = engine.metrics
        metrics = RunMetrics()
        tasks = _tasks(small_world, count=4)
        with ShardedScheduler(
            WorkerSpec(small_world.graph, metrics_enabled=True),
            workers=2,
            metrics=metrics,
            engine=engine,
        ) as scheduler:
            assert scheduler.run(tasks) == _serial_reference(small_world, tasks)
            assert engine.metrics is before
            assert scheduler.context is None
        with ShardedScheduler(
            WorkerSpec(small_world.graph), metrics=metrics, engine=engine
        ) as scheduler:
            scheduler.run(tasks)
            assert scheduler.context.engine is engine

    def test_closed_scheduler_refuses_runs(self, small_world):
        for workers in (1, 2):
            scheduler = ShardedScheduler(
                WorkerSpec(small_world.graph), workers=workers, force_processes=True
            )
            scheduler.close()
            scheduler.close()  # idempotent
            assert scheduler.closed
            with pytest.raises(SimulationError, match="closed"):
                scheduler.run(_tasks(small_world))

    def test_engine_metrics_restored_on_close(self, small_world):
        """Serial engine adoption must not leave the scheduler's
        registry attached to the caller's engine or cache."""
        engine = PropagationEngine(small_world.graph)
        cache = BaselineCache(engine)
        before = engine.metrics, cache.metrics
        metrics = RunMetrics()
        with ShardedScheduler(
            WorkerSpec(small_world.graph),
            metrics=metrics,
            engine=engine,
            cache=cache,
        ) as scheduler:
            scheduler.run(_tasks(small_world, count=4))
            assert engine.metrics is metrics
        assert (engine.metrics, cache.metrics) == before
