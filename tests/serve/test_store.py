"""Tests for the content-addressed shared result store."""

import json

import pytest

from repro.harness import ExperimentRunner, GridCell, run_grid
from repro.harness.cache import HarnessStats, ResultStore, shard_key


class TestShardKey:
    def test_stable_across_calls(self):
        task = {"kind": "check", "target": "queue-cwl", "prefix": [0, 1]}
        assert shard_key(task) == shard_key(dict(task))

    def test_key_order_does_not_matter(self):
        assert shard_key({"a": 1, "b": 2}) == shard_key({"b": 2, "a": 1})

    def test_every_field_matters(self):
        base = shard_key({"kind": "check", "prefix": [0, 1]})
        assert shard_key({"kind": "check", "prefix": [0, 2]}) != base
        assert shard_key({"kind": "fuzz", "prefix": [0, 1]}) != base


class TestResultStore:
    def test_miss_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = shard_key({"kind": "check", "prefix": [0]})
        assert store.load(key) is None
        assert store.stats.store_misses == 1
        store.store(key, {"violations": []})
        assert store.load(key) == {"violations": []}
        assert store.stats.store_hits == 1
        assert len(store) == 1

    def test_corrupt_entry_is_quarantined_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = shard_key({"kind": "check", "prefix": [1]})
        store.store(key, {"ok": True})
        store.path_for(key).write_text("{not json")
        assert store.load(key) is None
        assert store.stats.store_misses == 1
        assert store.stats.cache_evictions == 1
        assert not store.path_for(key).exists()
        # The corrupt bytes are kept for postmortem.
        quarantined = list((tmp_path / "store").glob("*.quarantined"))
        assert len(quarantined) == 1

    def test_non_object_entry_is_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = shard_key({"kind": "litmus"})
        store.path_for(key).write_text(json.dumps([1, 2, 3]))
        assert store.load(key) is None
        assert store.stats.store_misses == 1

    def test_edited_payload_fails_its_digest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = shard_key({"kind": "fuzz", "cases": [0]})
        store.store(key, {"kind": "fuzz", "outcomes": [{"events": 3}]})
        entry = json.loads(store.path_for(key).read_text())
        entry["payload"]["outcomes"][0]["events"] = 4
        store.path_for(key).write_text(json.dumps(entry))
        with pytest.warns(RuntimeWarning, match="does not match its digest"):
            assert store.load(key) is None
        assert store.stats.cache_evictions == store.stats.store_misses == 1
        assert not store.path_for(key).exists()

    def test_old_format_entry_is_miss(self, tmp_path):
        # Entries written without a digest (a bare payload object) are
        # not trusted: they recompute like any other corrupt entry.
        store = ResultStore(tmp_path / "store")
        key = shard_key({"kind": "fuzz", "cases": [1]})
        store.path_for(key).write_text(json.dumps({"kind": "fuzz"}))
        with pytest.warns(RuntimeWarning, match="not a digest-stamped"):
            assert store.load(key) is None
        assert store.stats.cache_evictions == store.stats.store_misses == 1

    def test_shared_stats_object(self, tmp_path):
        stats = HarnessStats()
        store = ResultStore(tmp_path / "store", stats=stats)
        store.load(shard_key({"x": 1}))
        assert stats.store_misses == 1
        # The paper grid resolves against the same store and account.
        runner = ExperimentRunner(inserts_per_thread=4, stats=stats)
        run_grid(runner, [GridCell("cwl", 1, False, "epoch")], store=store)
        assert stats.store_misses == 2
        assert stats.workload_runs == 1
        run_grid(
            ExperimentRunner(inserts_per_thread=4, stats=stats),
            [GridCell("cwl", 1, False, "epoch")],
            store=store,
        )
        assert stats.store_hits == 1
        assert stats.workload_runs == 1
        assert stats.workload_disk_hits == stats.analysis_disk_hits == 1
        assert len(store) == 1
