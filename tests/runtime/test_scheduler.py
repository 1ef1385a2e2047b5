"""Scheduler tests: serial-vs-parallel byte identity, resume, failure isolation,
persistent worker pools, sharded runs, and the no-pool-when-idle regression."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CampaignError
from repro.runtime import (
    CampaignSpec,
    CampaignStore,
    WorkerPool,
    cache_counts_of,
    campaign_digest,
    campaign_records,
    completed_of,
    execute_task,
    run_campaign,
    status_counts_of,
    summarize_row,
    task_shard_index,
)
from repro.runtime import scheduler

from tests.runtime.test_spec import small_spec
from tests.runtime.test_tasks import NONDETERMINISTIC_ROW_FIELDS


def digest_of(spec: CampaignSpec, directory) -> str:
    return campaign_digest(campaign_records(spec, CampaignStore(directory).rows()))


#: Resume must decide the same with and without a summary sidecar on disk:
#: "absent" resumes from the bare row log, "warm" first builds
#: aggregates.json with a store.summaries() call.
SIDECAR_STATES = pytest.mark.parametrize("sidecar", ["absent", "warm"])


def _forbid_pool_spawn(monkeypatch):
    """Make any multiprocessing.Pool construction fail the test."""
    import multiprocessing

    def boom(*args, **kwargs):
        raise AssertionError("multiprocessing.Pool must not be constructed here")

    monkeypatch.setattr(multiprocessing, "Pool", boom)


class TestSerialExecutor:
    def test_runs_every_task(self, tmp_path):
        spec = small_spec()
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.total_tasks == spec.num_tasks()
        assert stats.executed == spec.num_tasks()
        assert stats.skipped == stats.failed == 0
        assert stats.workers == 1
        assert stats.tasks_per_s > 0
        store = CampaignStore(tmp_path)
        assert completed_of(store.summaries()) == {p["task_key"] for p in spec.task_payloads()}

    def test_rerun_skips_everything(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        again = run_campaign(spec, tmp_path, workers=0)
        assert again.executed == 0
        assert again.skipped == spec.num_tasks()
        assert again.tasks_per_s == 0.0

    def test_negative_workers_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(small_spec(), tmp_path, workers=-1)

    def test_on_row_callback_sees_every_row(self, tmp_path):
        spec = small_spec()
        seen = []
        run_campaign(spec, tmp_path, workers=0, on_row=lambda row: seen.append(row["task_key"]))
        assert sorted(seen) == sorted(p["task_key"] for p in spec.task_payloads())


class TestParallelByteIdentity:
    def test_pool_run_matches_serial_digest(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "serial", workers=0)
        stats = run_campaign(spec, tmp_path / "pool", workers=2)
        assert stats.executed == spec.num_tasks()
        assert stats.workers == 2
        assert digest_of(spec, tmp_path / "serial") == digest_of(spec, tmp_path / "pool")

    def test_pool_rows_match_serial_rows_except_timing(self, tmp_path, monkeypatch):
        spec = small_spec()
        run_campaign(spec, tmp_path / "serial", workers=0)
        # One task group per dispatch.
        monkeypatch.setattr(scheduler, "_default_chunk_size", lambda groups, workers: 1)
        run_campaign(spec, tmp_path / "pool", workers=2)
        serial = {
            r["task_key"]: {
                k: v for k, v in r.items() if k not in NONDETERMINISTIC_ROW_FIELDS
            }
            for r in CampaignStore(tmp_path / "serial").rows()
        }
        pool = {
            r["task_key"]: {
                k: v for k, v in r.items() if k not in NONDETERMINISTIC_ROW_FIELDS
            }
            for r in CampaignStore(tmp_path / "pool").rows()
        }
        assert serial == pool

    def test_on_row_callback_fires_in_pool_mode(self, tmp_path):
        spec = small_spec()
        seen = []
        run_campaign(
            spec, tmp_path, workers=2, on_row=lambda row: seen.append(row["task_key"])
        )
        assert len(seen) == spec.num_tasks()


class TestResume:
    @SIDECAR_STATES
    def test_resume_after_kill_converges_to_same_aggregate(self, tmp_path, sidecar):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        reference = digest_of(spec, tmp_path / "ref")

        run_campaign(spec, tmp_path / "killed", workers=0)
        store = CampaignStore(tmp_path / "killed")
        if sidecar == "warm":
            store.summaries()  # the cursor covers the whole log before the kill
        lines = store.results_path.read_text().splitlines(keepends=True)
        # Simulate a kill: drop two completed rows and leave half a line.
        store.results_path.write_text("".join(lines[:-2]) + '{"task_key": "par')
        assert len(completed_of(store.latest_rows())) == spec.num_tasks() - 2
        assert store.aggregates_path.exists() == (sidecar == "warm")

        resumed = run_campaign(spec, tmp_path / "killed", workers=0)
        assert resumed.skipped == spec.num_tasks() - 2
        assert resumed.executed == 2
        assert digest_of(spec, tmp_path / "killed") == reference

    def test_parallel_resume_matches_serial_reference(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        store = CampaignStore(tmp_path / "par")
        store.initialize(spec)
        # Pre-complete half the campaign out of order, then resume with a pool.
        payloads = spec.task_payloads()
        for payload in reversed(payloads[: len(payloads) // 2]):
            store.append(execute_task(payload))
        resumed = run_campaign(spec, tmp_path / "par", workers=2)
        assert resumed.skipped == len(payloads) // 2
        assert digest_of(spec, tmp_path / "par") == digest_of(spec, tmp_path / "ref")

    @SIDECAR_STATES
    def test_stale_instance_seed_rows_are_reexecuted(self, tmp_path, sidecar):
        # A store written under an older seed-derivation scheme must not
        # satisfy the resume skip-set: its "done" rows describe different
        # instances.  Re-execution supersedes them (last write wins).
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        store = CampaignStore(tmp_path / "stale")
        store.initialize(spec)
        for payload in spec.task_payloads():
            row = execute_task(dict(payload, instance_seed=payload["instance_seed"] ^ 1))
            store.append(dict(row, task_key=payload["task_key"]))
        if sidecar == "warm":
            store.summaries()
        resumed = run_campaign(spec, tmp_path / "stale", workers=0)
        assert resumed.skipped == 0
        assert resumed.executed == spec.num_tasks()
        assert digest_of(spec, tmp_path / "stale") == digest_of(spec, tmp_path / "ref")

    def test_complete_store_with_version_1_sidecar_executes_nothing(self, tmp_path):
        # A sidecar written before summaries carried the resume fields has
        # no instance seeds; read as current, it would mark every task
        # incomplete.  Its version makes the store rebuild it instead.
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        store = CampaignStore(tmp_path)
        resume_fields = ("instance_seed", "error_type", "error")
        old = {
            key: {f: v for f, v in summarize_row(row).items() if f not in resume_fields}
            for key, row in store.latest_rows().items()
        }
        store.aggregates_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "byte_offset": store.results_path.stat().st_size,
                    "summaries": old,
                }
            )
        )
        resumed = run_campaign(spec, tmp_path, workers=0)
        assert resumed.executed == 0
        assert resumed.skipped == spec.num_tasks()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_resume_reads_only_summaries(self, tmp_path, monkeypatch, workers):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", workers=0)
        run_campaign(spec, tmp_path / "killed", workers=0)
        store = CampaignStore(tmp_path / "killed")
        lines = store.results_path.read_text().splitlines(keepends=True)
        store.results_path.write_text("".join(lines[:-2]))

        def forbidden(self):
            raise AssertionError("resume must not parse full rows")

        monkeypatch.setattr(CampaignStore, "latest_rows", forbidden)
        monkeypatch.setattr(CampaignStore, "rows", forbidden)
        resumed = run_campaign(spec, tmp_path / "killed", workers=workers)
        monkeypatch.undo()
        assert resumed.executed == 2
        assert digest_of(spec, tmp_path / "killed") == digest_of(spec, tmp_path / "ref")

    def test_backend_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError, match="backend"):
            run_campaign(small_spec(), tmp_path, workers=0, backend="jsonl")
        assert not (tmp_path / "results.jsonl").exists()

    def test_directory_bound_to_other_campaign_rejected(self, tmp_path):
        run_campaign(small_spec(), tmp_path, workers=0)
        with pytest.raises(CampaignError, match="refusing"):
            run_campaign(small_spec(seed=99), tmp_path, workers=0)


class TestNoIdlePoolSpawn:
    def test_completed_store_spawns_no_worker_processes(self, tmp_path, monkeypatch):
        # Regression: resuming a fully-completed campaign with workers > 1
        # must return before any pool is constructed.
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        _forbid_pool_spawn(monkeypatch)
        stats = run_campaign(spec, tmp_path, workers=4)
        assert stats.executed == 0
        assert stats.skipped == spec.num_tasks()

    def test_completed_store_leaves_persistent_pool_unstarted(self, tmp_path, monkeypatch):
        spec = small_spec()
        run_campaign(spec, tmp_path, workers=0)
        _forbid_pool_spawn(monkeypatch)
        with WorkerPool(2) as pool:
            stats = run_campaign(spec, tmp_path, pool=pool)
            assert stats.executed == 0
            assert not pool.started
            assert not stats.pool_warm


class TestWorkerPool:
    def test_reuse_across_campaigns_reports_warm_start(self, tmp_path):
        spec_a = small_spec()
        spec_b = small_spec(seed=23)
        with WorkerPool(2) as pool:
            cold = run_campaign(spec_a, tmp_path / "a", pool=pool)
            warm = run_campaign(spec_b, tmp_path / "b", pool=pool)
            assert not cold.pool_warm
            assert warm.pool_warm
            assert cold.workers == warm.workers == 2
            assert pool.runs_served == 2
        run_campaign(spec_a, tmp_path / "ref", workers=0)
        assert digest_of(spec_a, tmp_path / "a") == digest_of(spec_a, tmp_path / "ref")

    def test_pool_overrides_workers_argument(self, tmp_path):
        spec = small_spec()
        with WorkerPool(2) as pool:
            stats = run_campaign(spec, tmp_path, workers=0, pool=pool)
        assert stats.workers == 2
        assert pool.runs_served == 1

    def test_closed_pool_rejected(self, tmp_path):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(CampaignError, match="closed"):
            run_campaign(small_spec(), tmp_path, pool=pool)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_invalid_worker_count_rejected(self, workers):
        with pytest.raises(CampaignError):
            WorkerPool(workers)

    def test_warm_pool_keeps_worker_instance_caches(self, tmp_path):
        # Same campaign into two stores through one pool: the second run's
        # instance builds are served from the worker's warm cache.  One
        # worker, so every instance is guaranteed to be cached where the
        # second run's tasks land.
        spec = small_spec(families=("colorable",), sizes=((12, 8),))
        with WorkerPool(1) as pool:
            run_campaign(spec, tmp_path / "a", pool=pool)
            warm = run_campaign(spec, tmp_path / "b", pool=pool)
        assert warm.pool_warm
        assert warm.cache_hits == spec.num_tasks()
        assert warm.cache_misses == 0


class TestShardedRuns:
    def test_shards_partition_the_executed_tasks(self, tmp_path):
        spec = small_spec()
        keys = []
        for index in range(3):
            stats = run_campaign(spec, tmp_path / f"shard{index}", shard=(index, 3))
            assert stats.shard == (index, 3)
            shard_keys = completed_of(CampaignStore(tmp_path / f"shard{index}").summaries())
            assert stats.executed == len(shard_keys)
            assert all(task_shard_index(k, 3) == index for k in shard_keys)
            keys.extend(shard_keys)
        assert sorted(keys) == sorted(p["task_key"] for p in spec.task_payloads())

    def test_shard_resume_skips_only_its_own_completed_tasks(self, tmp_path):
        spec = small_spec()
        first = run_campaign(spec, tmp_path, shard=(0, 2))
        again = run_campaign(spec, tmp_path, shard=(0, 2))
        assert again.executed == 0
        assert again.skipped == first.executed

    def test_out_of_range_shard_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="shard index"):
            run_campaign(small_spec(), tmp_path, shard=(2, 2))

    def test_malformed_shard_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="pair"):
            run_campaign(small_spec(), tmp_path, shard=(1, 2, 3))


class TestCacheStats:
    def test_serial_run_counts_oracle_sharing_hits(self, tmp_path):
        from repro.runtime import INSTANCE_CACHE

        INSTANCE_CACHE.clear()
        # 2 oracles per grid point: half the instance builds are hits.
        spec = small_spec(families=("colorable",))
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.cache_hits + stats.cache_misses == spec.num_tasks()
        assert stats.cache_hits == spec.num_tasks() // 2
        assert stats.cache_hit_ratio == 0.5
        counts = cache_counts_of(CampaignStore(tmp_path).summaries())
        assert counts == {
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }


class TestFailureIsolation:
    def test_infeasible_grid_point_fails_without_stopping_the_campaign(self, tmp_path):
        # k=9 exceeds n=4 for the uniform generator: every task of that
        # grid point fails, the rest of the campaign completes.
        spec = small_spec(
            families=("uniform",), sizes=((4, 3), (12, 8)), ks=(9,), replicates=1
        )
        stats = run_campaign(spec, tmp_path, workers=0)
        assert stats.executed == spec.num_tasks()
        assert stats.failed == 2  # the n=4 tasks; k=9 is feasible at n=12
        counts = status_counts_of(CampaignStore(tmp_path).summaries())
        assert counts == {"failed": 2, "done": 2}
        failed = [r for r in CampaignStore(tmp_path).rows() if r["status"] == "failed"]
        assert all(r["error_type"] == "HypergraphError" for r in failed)

    @SIDECAR_STATES
    def test_failed_tasks_are_retried_until_exhausted(self, tmp_path, sidecar):
        spec = small_spec(families=("uniform",), sizes=((4, 3),), ks=(9,), replicates=1)
        first = run_campaign(spec, tmp_path, workers=0)
        assert first.failed == spec.num_tasks()
        # The in-run retry rounds spend the whole budget on the same
        # deterministic error (3 attempts each under the default policy)...
        assert first.retried == spec.num_tasks() * 2
        latest = CampaignStore(tmp_path).latest_rows()
        assert all(row["attempt"] == 3 for row in latest.values())
        if sidecar == "warm":
            CampaignStore(tmp_path).summaries()
        # ...so a resume skips the exhausted tasks instead of re-failing
        # them forever (the silent infinite-retry bug).
        again = run_campaign(spec, tmp_path, workers=0)
        assert again.executed == 0
        assert again.exhausted == spec.num_tasks()
        assert again.skipped == 0
        # retry=None restores the legacy semantics: every failure is
        # re-executed on every resume, with no exhaustion skip.
        legacy = run_campaign(spec, tmp_path, workers=0, retry=None)
        assert legacy.executed == spec.num_tasks()
        assert legacy.exhausted == 0
