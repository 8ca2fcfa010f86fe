"""Tests for fairness, work stealing, and the durable job queue."""

import pytest

from repro.errors import ServeError
from repro.fuzz import CampaignConfig, plan_shards, run_campaign
from repro.harness.cache import ResultStore, shard_key
from repro.serve import (
    JobQueue,
    TokenBucket,
    WorkStealingScheduler,
    execute_shard,
    load_records,
)

CHECK_SPEC = {"kind": "check", "target": "queue-cwl", "threads": 2, "ops": 1}
LITMUS_SPEC = {"kind": "litmus", "programs": ["mp-clflush"]}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.peek()
        assert not bucket.take()
        clock.advance(1.0)
        assert bucket.peek()
        assert bucket.take()
        assert not bucket.take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        taken = 0
        while bucket.take():
            taken += 1
            clock.advance(0.0)
        assert taken == 3

    def test_peek_consumes_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=FakeClock())
        for _ in range(5):
            assert bucket.peek()
        assert bucket.take()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ServeError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ServeError):
            TokenBucket(rate=1, burst=-1)


def _entry(tenant, job, index):
    return {"tenant": tenant, "job": job, "index": index}


class TestWorkStealingScheduler:
    def test_round_robin_assignment_and_own_queue_first(self):
        sched = WorkStealingScheduler(2)
        entries = [_entry("a", "j", i) for i in range(4)]
        sched.assign(entries)
        # Slot 0 got shards 0 and 2; it drains them oldest-first.
        assert sched.take(0, lambda t: True)["index"] == 0
        assert sched.take(0, lambda t: True)["index"] == 2
        assert sched.steals == 0

    def test_idle_slot_steals_newest_from_longest_queue(self):
        sched = WorkStealingScheduler(3)
        sched.assign([_entry("a", "j", i) for i in range(5)])
        # Queues: slot0=[0,3], slot1=[1,4], slot2=[2].
        assert sched.take(2, lambda t: True)["index"] == 2
        stolen = sched.take(2, lambda t: True)
        assert stolen["index"] in (3, 4)  # back of a longest queue
        assert sched.steals == 1

    def test_ineligible_tenant_never_blocks_others(self):
        sched = WorkStealingScheduler(1)
        sched.assign(
            [_entry("slowpoke", "j1", 0), _entry("speedy", "j2", 0)]
        )
        taken = sched.take(0, lambda tenant: tenant == "speedy")
        assert taken["tenant"] == "speedy"
        assert len(sched) == 1  # slowpoke's shard stays queued
        assert sched.take(0, lambda tenant: False) is None

    def test_late_tenant_is_served_within_one_round(self):
        """Tenant a queues 256 shards, then tenant b queues 6, on one slot
        under the daemon's token buckets: b dispatches within one round
        of takes and finishes long before a's backlog drains."""
        clock = FakeClock()
        buckets = {}

        def bucket(tenant):
            if tenant not in buckets:
                buckets[tenant] = TokenBucket(50.0, 100.0, clock=clock)
            return buckets[tenant]

        sched = WorkStealingScheduler(1)
        sched.assign([_entry("a", "big", i) for i in range(256)])
        sched.assign([_entry("b", "small", i) for i in range(6)])
        served = []
        while len(sched):
            entry = sched.take(0, lambda tenant: bucket(tenant).peek())
            if entry is None:
                clock.advance(0.1)
                continue
            assert bucket(entry["tenant"]).take()
            served.append((entry["tenant"], entry["index"]))
            clock.advance(0.001)
        tenants = [tenant for tenant, _ in served]
        assert "b" in tenants[:2]
        last = {
            tenant: len(tenants) - 1 - tenants[::-1].index(tenant)
            for tenant in ("a", "b")
        }
        assert last["b"] < last["a"]
        assert last["b"] <= 12
        # Each tenant's own shards still go oldest first.
        for tenant, count in (("a", 256), ("b", 6)):
            indices = [index for who, index in served if who == tenant]
            assert indices == list(range(count))

    def test_rate_limited_tenant_yields_its_turn(self):
        sched = WorkStealingScheduler(1)
        sched.assign([_entry("a", "j1", i) for i in range(3)])
        sched.assign([_entry("b", "j2", i) for i in range(3)])
        assert sched.take(0, lambda tenant: tenant == "b")["tenant"] == "b"
        assert sched.take(0, lambda tenant: True)["tenant"] == "a"
        assert sched.take(0, lambda tenant: True)["tenant"] == "b"
        assert sched.take(0, lambda tenant: tenant == "a")["tenant"] == "a"
        assert sched.drop_job("j1") == 1
        assert sched.take(0, lambda tenant: tenant == "a") is None
        assert sched.take(0, lambda tenant: True)["index"] == 2

    def test_drop_job_removes_only_that_job(self):
        sched = WorkStealingScheduler(2)
        sched.assign(
            [_entry("a", "doomed", 0), _entry("a", "kept", 0),
             _entry("a", "doomed", 1)]
        )
        assert sched.drop_job("doomed") == 2
        assert len(sched) == 1
        assert sched.take(1, lambda t: True)["job"] == "kept"


class TestJobQueue:
    def make_queue(self, tmp_path, **kwargs):
        return JobQueue(tmp_path / "state", **kwargs)

    def test_submit_validates_and_journals(self, tmp_path):
        queue = self.make_queue(tmp_path)
        record = queue.submit("alice", CHECK_SPEC)
        assert record.state == "submitted"
        assert (queue.jobs_dir / f"{record.id}.json").exists()
        with pytest.raises(ServeError, match="unknown job kind"):
            queue.submit("alice", {"kind": "nope"})
        with pytest.raises(ServeError, match="tenant"):
            queue.submit("", CHECK_SPEC)

    def test_per_tenant_cap(self, tmp_path):
        queue = self.make_queue(tmp_path, max_jobs_per_tenant=2)
        queue.submit("alice", CHECK_SPEC)
        queue.submit("alice", CHECK_SPEC)
        with pytest.raises(ServeError, match="active job"):
            queue.submit("alice", CHECK_SPEC)
        queue.submit("bob", CHECK_SPEC)  # other tenants unaffected

    def test_same_spec_same_tenant_distinct_jobs(self, tmp_path):
        queue = self.make_queue(tmp_path)
        first = queue.submit("alice", CHECK_SPEC)
        second = queue.submit("alice", CHECK_SPEC)
        assert first.id != second.id

    def test_plan_run_merge_lifecycle(self, tmp_path):
        queue = self.make_queue(tmp_path)
        record = queue.submit("alice", LITMUS_SPEC)
        pending = queue.plan(record)
        assert record.state == "running"
        assert record.shards_total == len(pending) == 1
        assert record.store_misses == 1
        entry = pending[0]
        payload = execute_shard(entry["task"])
        queue.shard_done(entry["job"], entry["index"], entry["key"], payload)
        assert record.state == "done"
        assert record.violations == 0
        assert record.summary["programs"] == 1
        # A replayed completion (retry raced a slow worker) is ignored.
        queue.shard_done(entry["job"], entry["index"], entry["key"], payload)
        assert record.shards_done == 1

    def test_second_tenant_is_served_from_store(self, tmp_path):
        queue = self.make_queue(tmp_path)
        first = queue.submit("alice", LITMUS_SPEC)
        for entry in queue.plan(first):
            queue.shard_done(
                entry["job"], entry["index"], entry["key"],
                execute_shard(entry["task"]),
            )
        assert first.state == "done"
        second = queue.submit("bob", LITMUS_SPEC)
        assert queue.plan(second) == []  # every shard hits the store
        assert second.state == "done"
        assert second.store_hits == 1 and second.store_misses == 0
        assert second.violations == first.violations
        assert queue.stats.store_hits >= 1

    def test_batch_campaign_store_serves_daemon_job(self, tmp_path):
        config = CampaignConfig(target="queue-2lc-faithful", budget=4, seed=0)
        store = ResultStore(tmp_path / "store")
        result = run_campaign(config, store=store)
        queue = self.make_queue(tmp_path, store=store)
        record = queue.submit("alice", {"kind": "fuzz", **config.describe()})
        assert queue.plan(record) == []  # every shard hits the store
        assert record.store_hits == record.shards_total == 4
        assert record.store_misses == 0
        assert record.state == "done"
        assert record.summary["text"] == result.summary()

    def test_undecodable_stored_fuzz_shard_is_rerun(self, tmp_path):
        """A stored fuzz shard whose outcome does not decode (under a
        valid digest) is quarantined and planned again, not merged."""
        config = CampaignConfig(target="counter", budget=2, seed=0)
        store = ResultStore(tmp_path / "store")
        result = run_campaign(config, store=store)
        key = shard_key(plan_shards(config)[0])
        payload = store.load(key)
        payload["outcomes"][0]["cuts_checked"] = "3"
        store.store(key, payload)
        queue = self.make_queue(tmp_path, store=store)
        record = queue.submit("alice", {"kind": "fuzz", **config.describe()})
        with pytest.warns(RuntimeWarning, match="quarantined"):
            pending = queue.plan(record)
        assert [entry["key"] for entry in pending] == [key]
        assert record.store_hits == 1 and record.store_misses == 1
        for entry in pending:
            queue.shard_done(
                entry["job"], entry["index"], entry["key"],
                execute_shard(entry["task"]),
            )
        assert record.state == "done"
        assert record.summary["text"] == result.summary()

    def test_shard_failed_fails_the_job(self, tmp_path):
        queue = self.make_queue(tmp_path)
        record = queue.submit("alice", LITMUS_SPEC)
        queue.plan(record)
        queue.shard_failed(record.id, 0, "worker exploded")
        assert record.state == "failed"
        assert "worker exploded" in record.error
        # Late results for a failed job are stored but change nothing.
        queue.shard_done(record.id, 0, shard_key({"x": 1}), {"kind": "x"})
        assert record.state == "failed"

    def test_cancel(self, tmp_path):
        queue = self.make_queue(tmp_path)
        record = queue.submit("alice", CHECK_SPEC)
        cancelled = queue.cancel(record.id)
        assert cancelled.state == "cancelled"
        # Cancelling a terminal job is a no-op, unknown ids are errors.
        assert queue.cancel(record.id).state == "cancelled"
        with pytest.raises(ServeError, match="unknown job"):
            queue.cancel("feedfacefeedface")

    def test_restart_resumes_interrupted_jobs(self, tmp_path):
        queue = self.make_queue(tmp_path)
        done = queue.submit("alice", LITMUS_SPEC)
        for entry in queue.plan(done):
            queue.shard_done(
                entry["job"], entry["index"], entry["key"],
                execute_shard(entry["task"]),
            )
        interrupted = queue.submit("alice", CHECK_SPEC)
        queue.plan(interrupted)
        assert interrupted.state == "running"

        revived = self.make_queue(tmp_path)
        assert set(revived.jobs) == {done.id, interrupted.id}
        resumable = revived.resumable()
        assert [record.id for record in resumable] == [interrupted.id]
        assert resumable[0].state == "submitted"
        assert revived.jobs[done.id].state == "done"
        # Sequence numbers keep advancing past everything journaled.
        fresh = revived.submit("alice", CHECK_SPEC)
        assert fresh.seq > interrupted.seq

    def test_corrupt_journal_entry_is_quarantined_on_load(self, tmp_path):
        queue = self.make_queue(tmp_path)
        record = queue.submit("alice", CHECK_SPEC)
        path = queue.jobs_dir / f"{record.id}.json"
        path.write_text("{broken")
        with pytest.warns(RuntimeWarning):
            revived = self.make_queue(tmp_path)
        assert revived.jobs == {}
        # The bad entry was moved aside, not deleted: a second load is
        # clean and the bytes are kept for postmortem.
        assert not path.exists()
        assert load_records(queue.jobs_dir) == []
        assert list(queue.jobs_dir.glob("*.quarantined"))
