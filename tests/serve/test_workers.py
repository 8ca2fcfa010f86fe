"""Tests for shard execution and the daemon's worker pool."""

import asyncio

import pytest

from repro.errors import ServeError, TaskFailed
from repro.harness.parallel import RetryPolicy, TaskPool
from repro.serve import ServeConfig, execute_shard, plan_job


def run_async(coroutine):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


class TestExecuteShard:
    def test_check_dispatch_matches_shard_worker(self):
        from repro.check.shard import check_shard_worker

        spec = {"kind": "check", "target": "queue-cwl", "threads": 2, "ops": 1}
        task = plan_job(spec)[0]
        assert execute_shard(task) == check_shard_worker(task)

    def test_fuzz_dispatch_preserves_case_order(self):
        from repro.fuzz.campaign import run_case_task

        spec = {
            "kind": "fuzz",
            "target": "queue-2lc-faithful",
            "budget": 2,
            "seed": 0,
            "batch": 2,
        }
        (task,) = plan_job(spec)
        payload = execute_shard(task)
        assert payload["kind"] == "fuzz"
        assert payload["indices"] == [c["index"] for c in task["cases"]]
        assert payload["outcomes"] == [
            run_case_task(case) for case in task["cases"]
        ]

    def test_litmus_dispatch_returns_report(self):
        (task,) = plan_job(
            {"kind": "litmus", "programs": ["mp-clflush"],
             "models": ["strict", "epoch"]}
        )
        payload = execute_shard(task)
        assert payload["kind"] == "litmus"
        assert payload["report"]["schedules"] > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown shard kind"):
            execute_shard({"kind": "espresso"})


def _raise_timeout_error(task):
    """Module-level (pool-picklable) worker raising its own TimeoutError."""
    raise TimeoutError(f"lock wait expired in {task['name']}")


def worker_pool(workers, policy=None):
    """The pool a daemon with ``workers`` worker processes builds."""
    return TaskPool(execute_shard, workers, policy)


class TestWorkerPool:
    def test_invalid_worker_count_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="workers must be at least 1"):
            ServeConfig(tmp_path, workers=0).validate()

    def test_runs_a_real_shard_in_a_subprocess(self):
        pool = worker_pool(1)
        try:
            (task,) = plan_job({"kind": "litmus", "programs": ["mp-clflush"],
                                "models": ["epoch"]})
            payload = run_async(pool.run(task))
            assert payload == execute_shard(task)
            assert pool.stats.task_attempts == 1
            assert pool.stats.task_failures == 0
        finally:
            pool.shutdown()

    def test_bad_task_exhausts_attempts_and_counts_failure(self):
        pool = worker_pool(1, RetryPolicy(retries=2, backoff=0.0))
        try:
            with pytest.raises(TaskFailed, match="after 3 attempt"):
                run_async(pool.run({"kind": "espresso"}))
            assert pool.stats.task_attempts == 3
            assert pool.stats.task_retries == 2
            assert pool.stats.task_failures == 1
            assert pool.stats.failure_exception_types == {"ServeError": 1}
        finally:
            pool.shutdown()

    def test_timeout_counts_and_retries_as_fresh_submission(self):
        pool = worker_pool(2, RetryPolicy(retries=0, timeout=0.05, backoff=0.0))
        try:
            # The first 2x1 shard of a busy target runs for seconds, far
            # beyond 50ms; the future is abandoned, not joined, and the
            # bounded shard lets the worker process exit soon after.
            spec = {"kind": "check", "target": "queue-2lc-faithful",
                    "threads": 2, "ops": 1}
            task = plan_job(spec)[0]
            with pytest.raises(TaskFailed, match="timed out"):
                run_async(pool.run(task))
            assert pool.stats.task_timeouts == 1
            assert pool.stats.failure_exception_types == {"TimeoutError": 1}
        finally:
            pool.shutdown(wait=False)  # as the daemon does

    def test_worker_raised_timeout_error_is_an_error_not_a_timeout(self):
        pool = TaskPool(_raise_timeout_error, 1)
        try:
            with pytest.raises(TaskFailed) as failure:
                run_async(pool.run({"name": "shard-7"}))
            assert failure.value.error == "lock wait expired in shard-7"
            assert pool.stats.task_timeouts == 0
            assert pool.stats.failure_exception_types == {"TimeoutError": 1}
        finally:
            pool.shutdown()
