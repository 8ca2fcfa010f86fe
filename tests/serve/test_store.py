"""Tests for the content-addressed shared result store."""

import json

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

    def test_shared_stats_object(self, tmp_path):
        stats = HarnessStats()
        store = ResultStore(tmp_path / "store", stats=stats)
        store.load(shard_key({"x": 1}))
        assert stats.store_misses == 1
        cache = store.disk_cache()
        assert cache.stats is stats
        assert cache.root == store.root / "cache"
