"""Tests for prefix-partitioned sharded checking."""

import json

import pytest

from repro.check import (
    CheckConfig,
    CheckStats,
    ShardMerge,
    check_shard_worker,
    check_target,
    check_target_sharded,
    enumerate_prefixes,
    shard_tasks,
)
from repro.errors import ReproError
from repro.fuzz import make_target

MODELS = ("strict", "epoch", "strand")


class TestEnumeratePrefixes:
    def test_depth_zero_is_the_whole_tree(self):
        fuzz_target = make_target("queue-cwl")
        run = lambda s: fuzz_target.build(2, 1, s)  # noqa: E731
        assert enumerate_prefixes(run, 0) == [()]

    def test_prefix_count_matches_branching(self):
        fuzz_target = make_target("queue-cwl")
        run = lambda s: fuzz_target.build(2, 1, s)  # noqa: E731
        prefixes = enumerate_prefixes(run, 2)
        assert prefixes == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_negative_depth_rejected(self):
        with pytest.raises(ReproError, match="depth"):
            enumerate_prefixes(lambda s: None, -1)


class TestShardedCheck:
    @pytest.mark.parametrize("target", ["queue-cwl"])
    def test_sharded_matches_unsharded(self, target):
        """The merged shard result must reach the same verdict and the
        same distinct violation set as single-process checking, while
        covering at least as many schedules (shards cannot share sleep
        sets across the prefix boundary)."""
        config = CheckConfig(models=MODELS, max_schedules=None)
        solo = check_target(target, 2, 1, config)
        merged, reports = check_target_sharded(
            target, 2, 1, config, jobs=2, shard_depth=2
        )
        assert set(merged.distinct) == set(solo.distinct)
        assert merged.stats.schedules >= solo.stats.schedules
        assert len(reports) == 4
        assert [report.prefix for report in reports] == sorted(
            report.prefix for report in reports
        )
        assert sum(report.stats["schedules"] for report in reports) == (
            merged.stats.schedules
        )

    def test_worker_reports_overrun_in_band(self):
        """A shard that blows its schedule budget must come back as an
        error payload, not a crashed worker."""
        payload = check_shard_worker(
            {
                "target": "queue-cwl",
                "threads": 2,
                "ops": 1,
                "models": list(MODELS),
                "prefix": [0, 0],
                "max_schedules": 1,
                "max_cuts": 4096,
                "stop_at_first": False,
            }
        )
        assert payload["error"] is not None
        assert "interleavings" in payload["error"]

    def test_failed_shard_fails_the_merge(self):
        config = CheckConfig(models=MODELS, max_schedules=1)
        with pytest.raises(ReproError, match="shard"):
            check_target_sharded(
                "queue-cwl", 2, 1, config, jobs=2, shard_depth=2
            )


class TestShardTasks:
    def test_one_task_per_prefix_with_config_bounds(self):
        config = CheckConfig(
            models=MODELS, max_schedules=500, max_cuts_per_graph=128
        )
        tasks = shard_tasks("queue-cwl", 2, 1, config, shard_depth=2)
        assert [tuple(task["prefix"]) for task in tasks] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        for task in tasks:
            assert task["target"] == "queue-cwl"
            assert task["models"] == list(MODELS)
            assert task["max_schedules"] == 500
            assert task["max_cuts"] == 128
            assert task["oracle"] == "invariant"


#: CheckStats' summed counters (the engine dict aside).
COUNTERS = [
    name for name in CheckStats.__dataclass_fields__ if name != "engine"
]


def full_stats(base: int) -> CheckStats:
    """Stats with every counter off its default, from ``base`` up."""
    stats = CheckStats(**{name: base + i for i, name in enumerate(COUNTERS)})
    stats.engine = {
        "nodes": base, "max_depth": 10 - base, "branching_max": base
    }
    return stats


class TestCheckStats:
    def test_merged_payloads_equal_direct_sums(self):
        first, second = full_stats(1), full_stats(4)
        merged = CheckStats()
        for stats in (first, second):
            merged.merge(json.loads(json.dumps(stats.describe())))
        direct = CheckStats(
            **{
                name: getattr(first, name) + getattr(second, name)
                for name in COUNTERS
            },
            engine={"nodes": 5, "max_depth": 9, "branching_max": 4},
        )
        assert merged == direct

    def test_malformed_counter_names_the_key(self):
        payload = {**full_stats(1).describe(), "cuts_checked": "3"}
        with pytest.raises(ReproError, match="'cuts_checked'"):
            CheckStats().merge(payload)


class TestShardMerge:
    """The merge accumulator, driven directly with wire payloads."""

    def _good_payload(self, prefix):
        return check_shard_worker(
            {
                "target": "queue-cwl",
                "threads": 2,
                "ops": 1,
                "models": list(MODELS),
                "prefix": list(prefix),
                "max_schedules": None,
                "max_cuts": 4096,
                "stop_at_first": False,
            }
        )

    def test_overrun_payload_becomes_failure_with_shard_context(self):
        """An in-band overrun report must fail the merge, naming the
        shard's prefix, even when every other shard succeeded."""
        merge = ShardMerge()
        merge.add(self._good_payload((0, 0)))
        overrun = check_shard_worker(
            {
                "target": "queue-cwl",
                "threads": 2,
                "ops": 1,
                "models": list(MODELS),
                "prefix": [0, 1],
                "max_schedules": 1,
                "max_cuts": 4096,
                "stop_at_first": False,
            }
        )
        assert overrun["error"] is not None
        merge.add(overrun)
        assert merge.failures == [f"shard (0, 1): {overrun['error']}"]
        with pytest.raises(ReproError, match=r"1 shard\(s\) failed.*\(0, 1\)"):
            merge.finish()

    def test_out_of_band_failure_recorded(self):
        merge = ShardMerge()
        merge.add_failure({"prefix": [1, 0]}, "worker crashed")
        with pytest.raises(ReproError, match=r"shard \(1, 0\): worker crashed"):
            merge.finish()

    def test_merge_dedupes_and_sums_like_sharded_check(self):
        """Feeding every shard payload through ShardMerge by hand must
        reproduce check_target_sharded exactly: deduped violations,
        summed stats, prefix-sorted reports."""
        config = CheckConfig(models=MODELS, max_schedules=None)
        tasks = shard_tasks("queue-cwl", 2, 1, config, shard_depth=2)
        merge = ShardMerge()
        # Deliberately out of order: finish() must sort the reports.
        for task in reversed(tasks):
            merge.add(check_shard_worker(task))
        result, reports = merge.finish()
        expected, expected_reports = check_target_sharded(
            "queue-cwl", 2, 1, config, jobs=1, shard_depth=2
        )
        assert set(result.distinct) == set(expected.distinct)
        assert result.stats.describe() == expected.stats.describe()
        assert [r.prefix for r in reports] == [
            r.prefix for r in expected_reports
        ]
        assert sum(r.violations for r in reports) == sum(
            r.violations for r in expected_reports
        )
