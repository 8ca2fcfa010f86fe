"""Multiprocessing shard execution for the checking service.

:func:`execute_shard` is the single module-level worker entry point —
it dispatches on the task's ``kind`` to the engine-owned worker
(:func:`repro.check.shard.check_shard_worker` for check shards,
:func:`repro.fuzz.campaign.run_shard` for fuzz case batches,
:func:`repro.litmus.runner.run_program_task` for litmus programs,
:func:`repro.harness.parallel.run_variant` for paper variants), so a
shard computed by the daemon is byte-identical to one computed by
``repro check --jobs N`` / ``repro fuzz run`` / ``repro litmus run`` /
``repro table1``.

:class:`WorkerPool` wraps a :class:`ProcessPoolExecutor` for the
asyncio daemon: worker slots ``await`` shard results while the event
loop keeps serving API requests.  Timeout/retry/backoff follow the same
:class:`~repro.harness.parallel.RetryPolicy` contract as
:func:`~repro.harness.parallel.fan_out`, with the same caveat — a
timed-out shard's process cannot be interrupted mid-computation; its
future is abandoned and the retry is a fresh submission.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

from repro.check.shard import check_shard_worker
from repro.errors import ServeError
from repro.fuzz.campaign import run_shard
from repro.harness.cache import HarnessStats
from repro.harness.parallel import RetryPolicy, run_variant
from repro.litmus.runner import run_program_task

#: The engine worker of each shard kind.
_WORKERS = {
    "check": check_shard_worker,
    "fuzz": run_shard,
    "litmus": run_program_task,
    "paper": run_variant,
}


def execute_shard(task: Dict[str, object]) -> Dict[str, object]:
    """Run one shard task of any kind; returns its JSON-safe payload.

    Module-level so it pickles into pool workers.  Check shards return
    the :func:`check_shard_worker` wire payload (in-band ``error`` for
    overruns); fuzz shards return ``{"outcomes": [...]}`` in case
    order; litmus shards return ``{"report": {...}}``; paper shards
    return the variant payload the paper grid stores.
    """
    worker = _WORKERS.get(task.get("kind"))
    if worker is None:
        raise ServeError(f"unknown shard kind {task.get('kind')!r}")
    return worker(task)


class WorkerPool:
    """Async facade over a process pool, with fan_out's retry contract.

    ``stats`` accumulates the same counters :func:`fan_out` keeps
    (``task_attempts`` / ``task_retries`` / ``task_timeouts`` /
    ``task_failures`` / ``failure_exception_types``), so the daemon's
    ``stats`` op reports executor resilience uniformly with batch runs.
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[RetryPolicy] = None,
        stats: Optional[HarnessStats] = None,
    ) -> None:
        if workers <= 0:
            raise ServeError(f"worker pool needs workers >= 1, got {workers}")
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = stats if stats is not None else HarnessStats()
        self._pool: Optional[ProcessPoolExecutor] = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    async def run(self, task: Dict[str, object]) -> Dict[str, object]:
        """Execute one shard, retrying per the pool's policy.

        Raises:
            ServeError: when the task exhausts its attempts; the
                message carries the final error, stats carry its type.
        """
        loop = asyncio.get_running_loop()
        policy = self.policy
        last_error = ""
        last_type = "Exception"
        for attempt in range(policy.attempts):
            self.stats.task_attempts += 1
            future = loop.run_in_executor(
                self._executor(), execute_shard, dict(task)
            )
            try:
                if policy.timeout is not None:
                    return await asyncio.wait_for(future, policy.timeout)
                return await future
            except asyncio.TimeoutError:
                last_error = f"timed out after {policy.timeout}s"
                last_type = "TimeoutError"
                self.stats.task_timeouts += 1
            except Exception as exc:  # worker bug or corrupt task
                last_error = str(exc)
                last_type = type(exc).__name__
            if attempt < policy.retries:
                self.stats.task_retries += 1
                await asyncio.sleep(policy.delay(attempt))
        self.stats.task_failures += 1
        self.stats.failure_exception_types[last_type] = (
            self.stats.failure_exception_types.get(last_type, 0) + 1
        )
        raise ServeError(
            f"shard failed after {policy.attempts} attempt(s): {last_error}"
        )

    def shutdown(self) -> None:
        """Tear the pool down (abandoned futures are reaped here)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
