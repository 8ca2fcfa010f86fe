"""Tests for the paper grid's tasks and payloads in the result store."""

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import analyze
from repro.harness import (
    ExperimentRunner,
    GridCell,
    InstructionCostModel,
    ResultStore,
    analysis_from_payload,
    analysis_to_payload,
    build_table1,
    format_table1,
    run_grid,
    table1_cells,
)
from repro.harness.cache import HarnessStats, atomic_write, shard_key
from repro.harness.parallel import plan_variants

THREADS = (1, 2)


def _hammer_key(task):
    """Worker: write one key many times (module-level for the pool)."""
    path, writer_id, rounds = task
    for round_index in range(rounds):
        payload = {"writer": writer_id, "round": round_index, "pad": "x" * 4096}
        atomic_write(path, lambda stream: json.dump(payload, stream))
    return writer_id


def _runner(**fields):
    fields = {"inserts_per_thread": 6, "base_seed": 5, **fields}
    return ExperimentRunner(**fields)


def _keys(runner, cells):
    return [shard_key(task) for task in plan_variants(runner, cells)]


def _table(runner):
    return format_table1(build_table1(runner, thread_counts=THREADS))


class TestKeys:
    """A variant task's key covers everything that determines its payload."""

    CELL = GridCell("cwl", 2, False, "epoch")

    def test_stable_across_instances(self):
        assert _keys(_runner(), [self.CELL]) == _keys(_runner(), [self.CELL])

    def test_every_field_matters(self):
        base = _keys(_runner(), [self.CELL])
        for override in (
            {"inserts_per_thread": 7},
            {"entry_size": 48},
            {"lock_kind": "ticket"},
            {"base_seed": 6},
            {"cost_model": InstructionCostModel(cycles_per_event=20.0)},
            {"cost_model": InstructionCostModel(clock_hz=3.0e9)},
        ):
            assert _keys(_runner(**override), [self.CELL]) != base, override

    def test_analysis_key_depends_on_model_and_config(self):
        base = _keys(_runner(), [self.CELL])
        for override in (
            {"design": "2lc"},
            {"threads": 1},
            {"racing": True},
            {"model": "strict"},
            {"persist_granularity": 64},
            {"tracking_granularity": 64},
            {"coalescing": False},
        ):
            cell = replace(self.CELL, **override)
            assert _keys(_runner(), [cell]) != base, override
        # Adding a cell to the variant changes its task too.
        wider = [self.CELL, replace(self.CELL, model="strict")]
        assert _keys(_runner(), wider) != base

    def test_stable_across_hash_seeds(self):
        script = (
            "from repro.harness import ExperimentRunner, table1_cells\n"
            "from repro.harness.cache import shard_key\n"
            "from repro.harness.parallel import plan_variants\n"
            "runner = ExperimentRunner(inserts_per_thread=6, base_seed=5)\n"
            "tasks = plan_variants(runner, table1_cells((1, 2)))\n"
            "print([shard_key(task) for task in tasks])\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert len(outputs) == 1
        assert outputs == {f"{_keys(_runner(), table1_cells((1, 2)))}\n"}


class TestAnalysisPayload:
    def test_roundtrip_equality(self, cwl_1t):
        # The payload keeps the model, config and scalars; the
        # histograms no table or figure reads are not stored.
        result = analyze(cwl_1t.trace, "epoch")
        rebuilt = analysis_from_payload(
            json.loads(json.dumps(analysis_to_payload(result)))
        )
        assert rebuilt == replace(
            result, level_histogram=None, block_writes=None
        )

    def test_entries_with_histograms_still_load(self, cwl_1t):
        # Stores written before the histograms were dropped keep hitting.
        result = analyze(cwl_1t.trace, "epoch")
        payload = analysis_to_payload(result)
        older = {
            **payload,
            "level_histogram": {"1": result.persist_count},
            "block_writes": None,
        }
        assert analysis_from_payload(older) == analysis_from_payload(payload)

    def test_malformed_payload_rejected(self):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            analysis_from_payload({"model": "epoch"})


class TestDiskCache:
    """The paper grid's on-disk cache: variant payloads in a ResultStore."""

    CELLS = table1_cells(THREADS)

    @pytest.fixture(scope="class")
    def straight(self):
        runner = _runner()
        run_grid(runner, self.CELLS)
        return runner

    def _run(self, root):
        runner = _runner()
        store = ResultStore(root, stats=runner.stats)
        run_grid(runner, self.CELLS, store=store)
        return runner, store

    def test_trace_miss_populate_hit(self, tmp_path, straight):
        cold, store = self._run(tmp_path / "store")
        assert cold.stats.store_misses == len(store) == 6
        assert cold.stats.workload_runs == 6
        warm, _ = self._run(tmp_path / "store")
        assert warm.stats.store_hits == 6
        # A hit neither traces nor keeps a trace: no workload runs, and
        # every payload holds the variant's results only.
        assert warm.stats.workload_runs == 0
        assert warm.stats.workload_disk_hits == 6
        assert _table(cold) == _table(warm) == _table(straight)
        for path in store.root.glob("*.result.json"):
            payload = json.loads(path.read_text())["payload"]
            assert set(payload) == {
                "variant",
                "analyses",
                "instruction_rate",
                "total_inserts",
            }
        assert sorted(p.suffix for p in store.root.iterdir()) == [".json"] * 6

    def test_analysis_miss_populate_hit(self, tmp_path, straight):
        _, store = self._run(tmp_path / "store")
        stored = sum(
            len(json.loads(path.read_text())["payload"]["analyses"])
            for path in store.root.glob("*.result.json")
        )
        warm, _ = self._run(tmp_path / "store")
        assert warm.stats.analysis_runs == 0
        assert warm.stats.analysis_disk_hits == stored
        for cell in self.CELLS:
            args = (cell.design, cell.threads, cell.racing, cell.model)
            config = cell.analysis_config()
            assert warm.analysis(*args, config) == straight.analysis(*args, config)
        assert warm.stats.analysis_runs == 0

    def _damaged_rerun(self, root, damage):
        victim = sorted(root.glob("*.result.json"))[0]
        damage(victim)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rerun, store = self._run(root)
        assert rerun.stats.cache_evictions == rerun.stats.store_misses == 1
        assert rerun.stats.workload_runs == 1
        assert victim.with_name(victim.name + ".quarantined").exists()
        assert len(store) == 6  # recomputed and stored again
        return _table(rerun)

    def _edited_rerun(self, root, edit):
        def damage(path):
            entry = json.loads(path.read_text())
            edit(entry["payload"])
            path.write_text(json.dumps(entry))

        return self._damaged_rerun(root, damage)

    def test_corrupted_trace_is_miss_and_evicted(self, tmp_path, straight):
        self._run(tmp_path / "store")

        def edit(payload):
            payload["total_inserts"] += 1

        assert self._edited_rerun(tmp_path / "store", edit) == _table(straight)

    def test_corrupted_analysis_is_miss_and_evicted(self, tmp_path, straight):
        self._run(tmp_path / "store")

        def edit(payload):
            payload["analyses"][0]["barriers"] += 1

        assert self._edited_rerun(tmp_path / "store", edit) == _table(straight)

    def test_truncated_trace_is_miss(self, tmp_path, straight):
        self._run(tmp_path / "store")

        def truncate(path):
            text = path.read_text()
            path.write_text(text[: len(text) // 2])

        assert self._damaged_rerun(tmp_path / "store", truncate) == _table(straight)

    def test_non_utf8_trace_is_miss_and_evicted(self, tmp_path, straight):
        self._run(tmp_path / "store")

        def garble(path):
            path.write_bytes(b"\xff\xfe\x80 not utf-8 \x00")

        assert self._damaged_rerun(tmp_path / "store", garble) == _table(straight)

    def test_non_utf8_analysis_is_miss_and_evicted(self, tmp_path, straight):
        self._run(tmp_path / "store")

        def garble(path):
            # One stray byte inside an otherwise intact entry's analyses.
            data = path.read_bytes()
            at = data.index(b'"analyses"') + len(b'"analyses"')
            path.write_bytes(data[:at] + b"\xff" + data[at:])

        assert self._damaged_rerun(tmp_path / "store", garble) == _table(straight)


class TestAtomicWriteConcurrency:
    def test_eight_processes_hammering_one_key(self, tmp_path):
        """Regression for the concurrent-writer race: N processes racing
        ``atomic_write`` on a single key must leave exactly one complete
        payload (last-writer-wins) and no stray temp files."""
        path = tmp_path / "entry.json"
        tasks = [(str(path), writer, 25) for writer in range(8)]
        with ProcessPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(_hammer_key, tasks)) == list(range(8))
        payload = json.loads(path.read_text())
        assert payload["writer"] in range(8)
        assert payload["round"] == 24
        assert payload["pad"] == "x" * 4096
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_failed_writer_leaves_old_entry_and_no_temp(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write(path, lambda stream: stream.write('{"ok": true}'))

        def explode(stream):
            stream.write("half-written garbage")
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            atomic_write(path, explode)
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p for p in tmp_path.iterdir()] == [path]


class TestHarnessStatsWire:
    def test_merge_roundtrip_through_payload(self):
        first = HarnessStats(
            workload_runs=3,
            trace_seconds=1.5,
            task_attempts=7,
            task_failures=2,
            failure_exception_types={"TimeoutError": 1, "RecoveryError": 1},
            store_hits=4,
            store_misses=2,
        )
        second = HarnessStats(
            analysis_runs=5,
            task_attempts=1,
            failure_exception_types={"TimeoutError": 2},
            store_hits=1,
        )
        direct = HarnessStats()
        direct.merge(first)
        direct.merge(second)

        rebuilt = HarnessStats()
        for stats in (first, second):
            wire = json.loads(json.dumps(stats.to_payload()))
            rebuilt.merge(HarnessStats.from_payload(wire))
        assert rebuilt == direct
        assert rebuilt.failure_exception_types == {
            "TimeoutError": 3,
            "RecoveryError": 1,
        }

    def test_payload_copies_dict_counters(self):
        stats = HarnessStats(failure_exception_types={"ValueError": 1})
        payload = stats.to_payload()
        payload["failure_exception_types"]["ValueError"] = 99
        assert stats.failure_exception_types == {"ValueError": 1}

    def test_missing_and_unknown_fields_tolerated(self):
        rebuilt = HarnessStats.from_payload(
            {"workload_runs": 2, "not_a_field": "ignored"}
        )
        assert rebuilt.workload_runs == 2
        assert rebuilt.store_hits == 0

    def test_malformed_payload_rejected(self):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            HarnessStats.from_payload(["workload_runs"])

    def test_report_mentions_store_only_when_used(self):
        assert "store" not in HarnessStats().report()
        used = HarnessStats(store_hits=3, store_misses=1)
        assert "3/4 shard(s) served" in used.report()


class TestRunnerIntegration:
    def test_cold_then_warm_runner(self, tmp_path):
        cells = [GridCell("cwl", 2, False, "epoch")]

        def make():
            runner = _runner()
            store = ResultStore(tmp_path / "store", stats=runner.stats)
            run_grid(runner, cells, store=store)
            return runner

        cold = make()
        first = cold.point("cwl", 2, "epoch")
        assert cold.stats.workload_runs == 1
        assert cold.stats.analysis_runs == 1

        warm = make()
        second = warm.point("cwl", 2, "epoch")
        assert second == first
        assert warm.stats.workload_runs == 0
        assert warm.stats.analysis_runs == 0
        assert warm.stats.workload_disk_hits == 1
        assert warm.stats.analysis_disk_hits == 1

    def test_cache_results_equal_uncached(self, tmp_path):
        cached = _runner()
        run_grid(cached, table1_cells((2,)), store=ResultStore(tmp_path / "c"))
        plain = _runner()
        for design in ("cwl", "2lc"):
            for column in ("strict", "epoch", "racing_epochs", "strand"):
                assert cached.point(design, 2, column) == plain.point(
                    design, 2, column
                )
        # Three variants traced once each by the grid, none by point().
        assert cached.stats.workload_runs == 3
