"""Tests for the parallel grid executor: parity with serial execution."""

import time

import pytest

from repro.cli import main
from repro.harness import (
    ExperimentRunner,
    GridCell,
    HarnessStats,
    build_table1,
    dedup_cells,
    fan_out,
    figure_cells,
    format_table1,
    run_grid,
    table1_cells,
)

INSERTS = 6
THREADS = (1, 2)


def fresh_runner():
    return ExperimentRunner(inserts_per_thread=INSERTS, base_seed=4)


class TestGrid:
    def test_table1_cells_cover_the_table(self):
        cells = table1_cells(THREADS)
        assert len(cells) == 2 * 2 * 4
        assert {c.design for c in cells} == {"cwl", "2lc"}

    def test_figure_cells_cover_figures_3_to_5(self):
        cells = figure_cells()
        models = {c.model for c in cells}
        assert models == {"strict", "epoch", "strand"}
        assert any(c.persist_granularity == 256 for c in cells)
        assert any(c.tracking_granularity == 256 for c in cells)

    def test_dedup_normalises_racing_insensitive_designs(self):
        cells = dedup_cells(
            [
                GridCell("2lc", 1, True, "epoch"),
                GridCell("2lc", 1, False, "epoch"),
                GridCell("cwl", 1, True, "epoch"),
            ]
        )
        assert len(cells) == 2
        assert all(
            not cell.racing for cell in cells if cell.design == "2lc"
        )


class TestParallelParity:
    @pytest.fixture(scope="class")
    def serial_table(self):
        runner = fresh_runner()
        run_grid(runner, table1_cells(THREADS), jobs=1)
        return format_table1(build_table1(runner, thread_counts=THREADS))

    def test_parallel_table_identical(self, serial_table):
        runner = fresh_runner()
        run_grid(runner, table1_cells(THREADS), jobs=2)
        table = format_table1(build_table1(runner, thread_counts=THREADS))
        assert table == serial_table

    def test_parallel_populates_runner_caches(self):
        runner = fresh_runner()
        run_grid(runner, table1_cells(THREADS), jobs=2)
        # Worker stats merge into the parent: same total work as serial.
        assert runner.stats.workload_runs == 6
        assert runner.stats.analysis_runs == 14
        # Building the table afterwards re-traces and re-analyzes nothing.
        build_table1(runner, thread_counts=THREADS)
        assert runner.stats.workload_runs == 6
        assert runner.stats.analysis_runs == 14

    def test_parallel_analysis_equals_serial(self):
        serial = fresh_runner()
        parallel = fresh_runner()
        cells = dedup_cells(table1_cells(THREADS))
        run_grid(serial, cells, jobs=1)
        run_grid(parallel, cells, jobs=2)
        for cell in cells:
            design, threads, racing = cell.variant
            assert parallel.analysis(
                design, threads, racing, cell.model, cell.analysis_config()
            ) == serial.analysis(
                design, threads, racing, cell.model, cell.analysis_config()
            )


def _sleepy_worker(task):
    """Module-level (pool-picklable) worker that sleeps then echoes."""
    time.sleep(task.get("sleep", 0.0))
    return task


def _failing_worker(task):
    raise RuntimeError(f"boom on {task['name']}")


class TestFanOutResilience:
    def test_serial_retry_recovers_flaky_worker(self):
        attempts = {"n": 0}

        def flaky(task):
            attempts["n"] += 1
            if attempts["n"] < 2:
                raise RuntimeError("transient")
            return task

        merged = []
        stats = HarnessStats()
        fan_out(
            flaky, [{"name": "only"}], jobs=1, merge=merged.append,
            retries=2, backoff=0.0, stats=stats,
        )
        assert merged == [{"name": "only"}]
        assert stats.task_retries == 1
        assert stats.task_failures == 0
        assert stats.task_attempts == 2
        assert stats.failure_exception_types == {}

    def test_serial_exhausted_retries_fail_the_cell_not_the_run(self):
        merged = []
        failures = []
        stats = HarnessStats()
        fan_out(
            _failing_worker,
            [{"name": "a"}, {"name": "b"}],
            jobs=1,
            merge=merged.append,
            retries=1,
            backoff=0.0,
            on_failure=lambda task, error: failures.append((task, error)),
            stats=stats,
        )
        assert merged == []
        assert [task["name"] for task, _ in failures] == ["a", "b"]
        assert all("boom" in error for _, error in failures)
        assert stats.task_retries == 2
        assert stats.task_failures == 2
        assert stats.task_timeouts == 0
        # Two tasks, two attempts each (one retry per task).
        assert stats.task_attempts == 4
        assert stats.failure_exception_types == {"RuntimeError": 2}

    def test_serial_default_failure_path_warns(self):
        with pytest.warns(RuntimeWarning, match="failed after 1 attempt"):
            fan_out(
                _failing_worker, [{"name": "x"}], jobs=1,
                merge=lambda result: None,
            )

    def test_pool_retries_exhaust_and_record(self):
        failures = []
        stats = HarnessStats()
        fan_out(
            _failing_worker,
            [{"name": "p"}],
            jobs=2,
            merge=lambda result: None,
            retries=2,
            backoff=0.01,
            on_failure=lambda task, error: failures.append(error),
            stats=stats,
        )
        assert len(failures) == 1 and "boom on p" in failures[0]
        assert stats.task_retries == 2
        assert stats.task_failures == 1
        assert stats.task_attempts == 3
        assert stats.failure_exception_types == {"RuntimeError": 1}

    def test_pool_timeout_fails_slow_task_and_keeps_fast_one(self):
        merged = []
        failures = []
        stats = HarnessStats()
        fan_out(
            _sleepy_worker,
            [{"name": "slow", "sleep": 1.5}, {"name": "fast"}],
            jobs=2,
            merge=merged.append,
            timeout=0.3,
            on_failure=lambda task, error: failures.append((task, error)),
            stats=stats,
        )
        assert [task["name"] for task in merged] == ["fast"]
        assert len(failures) == 1
        assert failures[0][0]["name"] == "slow"
        assert "timed out after" in failures[0][1]
        assert stats.task_timeouts == 1
        assert stats.task_failures == 1
        assert stats.failure_exception_types == {"TimeoutError": 1}

    def test_stats_report_includes_task_counters(self):
        stats = HarnessStats(task_retries=3, task_timeouts=1, task_failures=2)
        report = stats.report()
        assert "3 retrie(s)" in report
        assert "1 timeout(s)" in report
        assert "2 failed cell(s)" in report

    def test_stats_report_names_failure_exception_types(self):
        stats = HarnessStats(
            task_attempts=5,
            task_failures=2,
            failure_exception_types={"RuntimeError": 1, "TimeoutError": 1},
        )
        report = stats.report()
        assert "5 attempt(s)" in report
        assert "RuntimeError x1" in report
        assert "TimeoutError x1" in report

    def test_stats_merge_folds_exception_type_counts(self):
        mine = HarnessStats(
            task_failures=1, failure_exception_types={"RuntimeError": 1}
        )
        theirs = HarnessStats(
            task_failures=2,
            failure_exception_types={"RuntimeError": 1, "ValueError": 1},
        )
        mine.merge(theirs)
        assert mine.task_failures == 3
        assert mine.failure_exception_types == {
            "RuntimeError": 2,
            "ValueError": 1,
        }

    def test_grid_timeout_records_failed_cells_not_fatal(self, recwarn):
        runner = fresh_runner()
        run_grid(
            runner, table1_cells((1,)), jobs=2, task_timeout=0.001
        )
        assert runner.stats.task_failures > 0
        assert any(
            "recomputed on demand" in str(w.message) for w in recwarn.list
        )
        # The table still builds: missing cells recompute serially.
        assert format_table1(build_table1(runner, thread_counts=(1,)))


class TestCliParity:
    ARGS = ["table1", "--inserts", str(INSERTS), "--threads", "1", "2"]

    def run_cli(self, capsys, *extra):
        assert main(self.ARGS + list(extra)) == 0
        return capsys.readouterr()

    def test_jobs4_byte_identical_to_serial(self, capsys, tmp_path):
        serial = self.run_cli(capsys, "--jobs", "1").out
        parallel = self.run_cli(
            capsys, "--jobs", "4", "--cache-dir", str(tmp_path / "c")
        ).out
        assert parallel == serial

    def test_warm_cache_rerun_identical_with_zero_retraces(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        cold = self.run_cli(capsys, "--cache-dir", cache, "--stats")
        warm = self.run_cli(capsys, "--cache-dir", cache, "--stats")
        assert warm.out == cold.out
        # --stats goes to stderr so stdout stays byte-comparable.
        assert "workloads: 6 traced" in cold.err
        assert "workloads: 0 traced" in warm.err
        assert "analyses:  0 run" in warm.err

    def test_warm_parallel_rerun_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        cold = self.run_cli(capsys, "--jobs", "2", "--cache-dir", cache).out
        warm = self.run_cli(capsys, "--jobs", "2", "--cache-dir", cache).out
        assert warm == cold

    def test_figures_parallel_identical(self, capsys, tmp_path):
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        args = ["figures", "--inserts", str(INSERTS)]
        assert main(args + ["--out", str(out_serial)]) == 0
        assert (
            main(
                args
                + [
                    "--out",
                    str(out_parallel),
                    "--jobs",
                    "2",
                    "--cache-dir",
                    str(tmp_path / "c"),
                ]
            )
            == 0
        )
        # A warm rerun reads every variant back from the store.
        out_warm = tmp_path / "warm"
        warm = ["--out", str(out_warm), "--cache-dir", str(tmp_path / "c")]
        assert main(args + warm) == 0
        names = sorted(p.name for p in out_serial.iterdir())
        for out in (out_parallel, out_warm):
            assert names == sorted(p.name for p in out.iterdir())
            for name in names:
                assert (out / name).read_bytes() == (
                    out_serial / name
                ).read_bytes()
