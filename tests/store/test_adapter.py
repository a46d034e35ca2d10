"""Legacy checkpoint journals and store-backed resume.

Older releases checkpointed runs into a private JSONL journal; the
campaign store replaced it, and :func:`repro.store.import_journal` is
the read-only bridge that lifts such a journal's successes into a
store.  The journal-parsing rules live here: last record per
fingerprint wins, failures are not replayed, truncated and non-record
lines are skipped.
"""

from __future__ import annotations

import base64
import json
import pickle

from repro.runner import (
    RetryPolicy,
    ShardedScheduler,
    SweepPointTask,
    WorkerContext,
    WorkerSpec,
    task_fingerprint,
)
from repro.store import CampaignStore, import_journal
from repro.telemetry.metrics import RunMetrics

FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _tasks(world, count=4):
    victim, attacker = world.tier1[0], world.tier1[1]
    return [
        SweepPointTask(victim=victim, attacker=attacker, padding=p)
        for p in range(1, count + 1)
    ]


def _ok(fingerprint, result):
    payload = base64.b64encode(pickle.dumps(result)).decode("ascii")
    return {"fp": fingerprint, "status": "ok", "payload": payload}


def _failed(fingerprint):
    return {
        "fp": fingerprint,
        "status": "failed",
        "kind": "crash",
        "attempts": 3,
        "error": "boom",
    }


def _write_journal(path, records, tail=""):
    lines = [json.dumps(record, sort_keys=True) for record in records]
    path.write_text("".join(line + "\n" for line in lines) + tail)


class TestSupervisedResumeThroughStore:
    def test_second_run_resumes_everything_from_store(self, tmp_path, small_world):
        tasks = _tasks(small_world)
        root = tmp_path / "store"
        spec = WorkerSpec(small_world.graph)

        with CampaignStore(root) as store:
            with ShardedScheduler(spec, retry=FAST, store=store) as scheduler:
                first = scheduler.run(tasks)
            assert len(store) == len(tasks)

        metrics = RunMetrics()
        with CampaignStore(root) as store:
            with ShardedScheduler(
                spec, retry=FAST, metrics=metrics, store=store
            ) as scheduler:
                second = scheduler.run(tasks)
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert metrics.counter_value("worker.tasks") == 0
        assert second == first

    def test_store_resume_matches_serial_reference(self, tmp_path, small_world):
        tasks = _tasks(small_world)
        ctx = WorkerContext(WorkerSpec(small_world.graph))
        reference = [task.run(ctx) for task in tasks]
        with CampaignStore(tmp_path / "store") as store:
            with ShardedScheduler(
                WorkerSpec(small_world.graph), retry=FAST, store=store
            ) as scheduler:
                scheduler.run(tasks)
            replayed = [store.get(task_fingerprint(task)) for task in tasks]
        assert replayed == reference


class TestImportJournal:
    def test_import_lifts_successes_only(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(
            path, [_ok("fp-1", "one"), _ok("fp-2", "two"), _failed("fp-3")]
        )
        before = path.read_bytes()
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 2
            assert store.get("fp-1") == "one"
            assert store.get("fp-2") == "two"
            assert "fp-3" not in store
            # idempotent: everything dedupes on the second import
            assert import_journal(str(path), store) == 0
        # the journal is only read
        assert path.read_bytes() == before

    def test_failure_records_are_not_imported(self, tmp_path):
        """A journaled failure documents the quarantine but must not be
        replayed as a result — the next run retries the task."""
        path = tmp_path / "journal.jsonl"
        _write_journal(path, [_failed("fp-1")])
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 0
            assert len(store) == 0

    def test_tolerates_truncated_final_line(self, tmp_path):
        """A crash mid-append leaves a partial line; every record before
        it still imports."""
        path = tmp_path / "journal.jsonl"
        _write_journal(
            path,
            [_ok("fp-1", (4.0, 5.0))],
            tail='{"fp": "abc", "status": "ok", "payl',
        )
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 1
            assert store.get("fp-1") == (4.0, 5.0)
            assert "abc" not in store

    def test_ignores_non_record_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"unrelated": True}) + "\n[1, 2]\n\n")
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 0

    def test_success_overrides_earlier_failure(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(
            path,
            [
                _failed("fp-1"),
                _ok("fp-1", "fine"),
                _ok("fp-2", "stale"),
                _failed("fp-2"),
            ],
        )
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == 1
            assert store.get("fp-1") == "fine"
            # last record wins: a later failure supersedes a success
            assert "fp-2" not in store

    def test_imported_journal_serves_a_supervised_resume(
        self, tmp_path, small_world
    ):
        """End to end: a journal holding a run's results, imported, lets
        a store-backed rerun resume every task without executing any."""
        tasks = _tasks(small_world)
        ctx = WorkerContext(WorkerSpec(small_world.graph))
        first = [task.run(ctx) for task in tasks]
        path = tmp_path / "journal.jsonl"
        _write_journal(
            path,
            [_ok(task_fingerprint(task), result) for task, result in zip(tasks, first)],
        )

        metrics = RunMetrics()
        with CampaignStore(tmp_path / "store") as store:
            assert import_journal(path, store) == len(tasks)
            with ShardedScheduler(
                WorkerSpec(small_world.graph),
                retry=FAST,
                metrics=metrics,
                store=store,
            ) as scheduler:
                second = scheduler.run(tasks)
        assert metrics.counter_value("scheduler.store_hits") == len(tasks)
        assert metrics.counter_value("worker.tasks") == 0
        assert second == first
