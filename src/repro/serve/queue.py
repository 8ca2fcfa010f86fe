"""Fair scheduling and durable job-state management for the daemon.

Three cooperating pieces:

* :class:`TokenBucket` — per-tenant rate limiting.  A tenant's shards
  dispatch only while its bucket holds a token; buckets refill at
  ``rate`` tokens/second up to ``burst``.  Worker slots *peek* while
  scanning for eligible work and *take* only at dispatch, so an
  ineligible tenant's queued shards never block another tenant's.

* :class:`WorkStealingScheduler` — per-worker-slot deques.  Planned
  shards are dealt round-robin across slots.  A slot picks the tenant
  first (round-robin over tenants with queued, eligible work), then
  takes that tenant's oldest shard in its own queue, or steals that
  tenant's newest from the back of the longest other queue (classic
  work stealing: owner takes old work, thief takes new, contention on
  opposite ends).

* :class:`JobQueue` — the durable job table.  Owns the journal
  directory (``jobs/``), admission control (``max_jobs_per_tenant``),
  planning (spec → shard tasks, with store-first resolution: a shard
  whose digest any tenant already computed completes immediately as a
  ``store_hit``), shard completion, merging, and cancellation.  Every
  state transition is journaled before it is visible, so a ``kill -9``
  at any point resumes to the same final result: restarted jobs re-plan
  deterministically and their finished shards come back as store hits.
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from repro.errors import ReproError, ServeError
from repro.harness.cache import HarnessStats, ResultStore
from repro.serve.jobs import (
    JOB_KINDS,
    JobRecord,
    job_id,
    load_records,
    merge_job,
    plan_job,
    save_record,
    validate_spec,
)

_PathLike = Union[str, Path]


class TokenBucket:
    """A refilling token bucket (``rate`` tokens/s, ``burst`` capacity).

    The clock is injectable so fairness tests can drive time by hand.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ServeError(
                f"token bucket rate and burst must be positive, got "
                f"rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def peek(self) -> bool:
        """True when a full token is available (nothing consumed)."""
        self._refill()
        return self._tokens >= 1.0

    def take(self) -> bool:
        """Consume one token; False when the bucket is empty."""
        self._refill()
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


class WorkStealingScheduler:
    """Per-slot shard deques with idle-slot stealing.

    Entries are opaque dicts carrying at least ``tenant`` and ``job``;
    eligibility (the tenant's token bucket) is evaluated at take time,
    so a rate-limited tenant's work stays queued without blocking the
    slot.  Tenants take turns, so a tenant that queues after another
    tenant's large job waits at most one round, not behind its backlog.
    """

    def __init__(self, slots: int) -> None:
        if slots <= 0:
            raise ServeError(f"scheduler needs at least one slot, got {slots}")
        self._queues: List[Deque[dict]] = [deque() for _ in range(slots)]
        self._next_slot = 0
        #: Queued entries per tenant, least recently served tenant first.
        self._queued: Dict[str, int] = {}
        #: Shards taken from another slot's queue.
        self.steals = 0

    def assign(self, entries: List[dict]) -> None:
        """Deal entries round-robin across the slot queues."""
        for entry in entries:
            self._queues[self._next_slot].append(entry)
            self._next_slot = (self._next_slot + 1) % len(self._queues)
            tenant = entry["tenant"]
            self._queued[tenant] = self._queued.get(tenant, 0) + 1

    def take(
        self, slot: int, eligible: Callable[[str], bool]
    ) -> Optional[dict]:
        """The next runnable entry for ``slot``, or None.

        Picks the least recently served eligible tenant with queued
        work, then takes its first entry in the slot's own queue, or
        else steals its entry nearest the *back* of the longest other
        queue holding one (newest work, least likely to conflict with
        the owner's next take).
        """
        tenant = next(
            (tenant for tenant in self._queued if eligible(tenant)), None
        )
        if tenant is None:
            return None
        self._uncount(tenant)
        own = self._queues[slot]
        for index, entry in enumerate(own):
            if entry["tenant"] == tenant:
                del own[index]
                return entry
        victims = [queue for queue in self._queues if queue is not own]
        for queue in sorted(victims, key=len, reverse=True):
            for back_index, entry in enumerate(reversed(queue)):
                if entry["tenant"] == tenant:
                    del queue[len(queue) - 1 - back_index]
                    self.steals += 1
                    return entry
        raise AssertionError(f"tenant {tenant!r} counted but not queued")

    def _uncount(self, tenant: str) -> None:
        """Count one entry gone; the tenant goes to the back of the round."""
        left = self._queued.pop(tenant) - 1
        if left:
            self._queued[tenant] = left

    def drop_job(self, job: str) -> int:
        """Remove every queued entry of one job (cancel/fail path)."""
        dropped = 0
        for queue in self._queues:
            kept = [entry for entry in queue if entry["job"] != job]
            for entry in queue:
                if entry["job"] == job:
                    self._uncount(entry["tenant"])
            dropped += len(queue) - len(kept)
            queue.clear()
            queue.extend(kept)
        return dropped

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues)


class JobQueue:
    """The daemon's job table: durable records + store-first planning.

    Not thread-safe by design — the daemon drives it from one asyncio
    event loop; workers only execute pure shard functions.
    """

    def __init__(
        self,
        state_dir: _PathLike,
        store: Optional[ResultStore] = None,
        max_jobs_per_tenant: int = 8,
        rate: float = 50.0,
        burst: float = 100.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.stats = HarnessStats()
        self.store = (
            store
            if store is not None
            else ResultStore(self.state_dir / "store", stats=self.stats)
        )
        if store is not None:
            self.stats = store.stats
        self.max_jobs_per_tenant = max_jobs_per_tenant
        self._rate = rate
        self._burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self.jobs: Dict[str, JobRecord] = {}
        #: Completed shard payloads of in-flight jobs, by job id then
        #: shard index (merge-stage working set; rebuilt on restart
        #: from the store).
        self._payloads: Dict[str, Dict[int, dict]] = {}
        self._seq = 0
        for record in load_records(self.jobs_dir):
            self.jobs[record.id] = record
            self._seq = max(self._seq, record.seq + 1)

    # -- admission -----------------------------------------------------------

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's token bucket (created on first use)."""
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                self._rate, self._burst, clock=self._clock
            )
        return self._buckets[tenant]

    def active_jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        """Non-terminal jobs, optionally of one tenant, oldest first."""
        records = [
            record
            for record in self.jobs.values()
            if record.active and (tenant is None or record.tenant == tenant)
        ]
        records.sort(key=lambda record: record.seq)
        return records

    def submit(self, tenant: str, spec: object) -> JobRecord:
        """Admit one job: validate, enforce the per-tenant cap, journal.

        Raises:
            ServeError: on a malformed spec or when the tenant already
                has ``max_jobs_per_tenant`` active jobs.
        """
        if not tenant or not isinstance(tenant, str):
            raise ServeError("a non-empty tenant id is required")
        spec = validate_spec(spec)
        if len(self.active_jobs(tenant)) >= self.max_jobs_per_tenant:
            raise ServeError(
                f"tenant {tenant!r} already has "
                f"{self.max_jobs_per_tenant} active job(s)"
            )
        seq = self._seq
        self._seq += 1
        record = JobRecord(
            id=job_id(tenant, seq, spec), tenant=tenant, seq=seq, spec=spec
        )
        self.jobs[record.id] = record
        self._save(record)
        return record

    # -- planning ------------------------------------------------------------

    def plan(self, record: JobRecord) -> List[dict]:
        """Shard one submitted job, resolving shards store-first.

        Returns the scheduler entries still to execute; shards whose
        digest is already in the store complete immediately (counted on
        the record as ``store_hits``).  A job whose every shard hits
        merges synchronously.  Transitions the record to ``sharded``
        then ``running`` (or terminal), journaling each step.
        """
        tasks = plan_job(record.spec)
        record.shards_total = len(tasks)
        record.state = "sharded"
        self._save(record)
        hits, misses = self.store.resolve(
            tasks, check=JOB_KINDS[record.spec["kind"]].check
        )
        self._payloads.setdefault(record.id, {}).update(hits)
        record.store_hits += len(hits)
        record.shards_done += len(hits)
        record.store_misses += len(misses)
        pending = [
            {
                "job": record.id,
                "tenant": record.tenant,
                "index": index,
                "key": key,
                "task": tasks[index],
            }
            for index, key in misses.items()
        ]
        record.state = "running"
        record.started_at = time.time()
        self._save(record)
        if not pending:
            self._finish(record)
        return pending

    # -- completion ----------------------------------------------------------

    def shard_done(self, job: str, index: int, key: str, payload: dict) -> None:
        """Record one executed shard: store it, journal progress, and
        merge when it was the job's last."""
        self.store.store(key, payload)
        record = self.jobs.get(job)
        if record is None or not record.active:
            return  # cancelled/failed meanwhile; the result is stored anyway
        held = self._payloads.setdefault(job, {})
        if index in held:
            return
        held[index] = payload
        record.shards_done += 1
        self._save(record)
        if record.shards_done >= record.shards_total:
            self._finish(record)

    def shard_failed(self, job: str, index: int, error: str) -> None:
        """Fail a job whose shard exhausted its attempts."""
        record = self.jobs.get(job)
        if record is None or not record.active:
            return
        record.state = "failed"
        record.error = f"shard {index}: {error}"
        record.finished_at = time.time()
        self._payloads.pop(job, None)
        self._save(record)

    def _finish(self, record: JobRecord) -> None:
        record.state = "merging"
        self._save(record)
        held = self._payloads.pop(record.id, {})
        payloads = [held[index] for index in sorted(held)]
        try:
            summary = merge_job(record.spec, payloads)
        except ReproError as exc:
            record.state = "failed"
            record.error = str(exc)
        else:
            record.state = "done"
            record.summary = summary
            record.violations = summary["violations"]
        record.finished_at = time.time()
        self._save(record)

    def cancel(self, job: str) -> JobRecord:
        """Cancel an active job (terminal states are left alone).

        Raises:
            ServeError: on an unknown job id.
        """
        record = self.jobs.get(job)
        if record is None:
            raise ServeError(f"unknown job {job!r}")
        if record.active:
            record.state = "cancelled"
            record.finished_at = time.time()
            self._payloads.pop(job, None)
            self._save(record)
        return record

    # -- resume ----------------------------------------------------------------

    def resumable(self) -> List[JobRecord]:
        """Jobs interrupted mid-flight, progress reset for re-planning.

        Called once at daemon startup: every non-terminal journal entry
        is rewound to ``submitted`` (its planned tasks are recomputed
        deterministically; finished shards resolve from the store as
        hits, so no work repeats) and returned for re-scheduling.
        """
        interrupted = self.active_jobs()
        for record in interrupted:
            record.reset_progress()
            self._save(record)
        return interrupted

    def _save(self, record: JobRecord) -> None:
        save_record(self.jobs_dir, record)
