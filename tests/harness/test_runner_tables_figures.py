"""Tests for the runner, Table 1 builder, and figure generators."""

import pytest

from repro.core import AnalysisConfig
from repro.errors import AnalysisError
from repro.harness import (
    ExperimentRunner,
    build_table1,
    figure2_dependences,
    figure3_latency_sweep,
    figure4_persist_granularity,
    figure5_tracking_granularity,
    format_table1,
    log_space,
    table1_rows,
)


class TestRunner:
    def test_workloads_cached(self, shared_runner):
        first = shared_runner.workload("cwl", 1, False)
        second = shared_runner.workload("cwl", 1, False)
        assert first is second

    def test_analyses_cached(self, shared_runner):
        first = shared_runner.analysis("cwl", 1, False, "epoch")
        second = shared_runner.analysis("cwl", 1, False, "epoch")
        assert first is second

    def test_distinct_configs_not_conflated(self, shared_runner):
        fine = shared_runner.analysis(
            "cwl", 1, False, "strict", AnalysisConfig(persist_granularity=8)
        )
        coarse = shared_runner.analysis(
            "cwl", 1, False, "strict", AnalysisConfig(persist_granularity=256)
        )
        assert fine.critical_path > coarse.critical_path

    def test_unknown_column_rejected(self, shared_runner):
        with pytest.raises(AnalysisError):
            shared_runner.point("cwl", 1, "release", 500e-9)

    def test_point_fields(self, shared_runner):
        point = shared_runner.point("cwl", 1, "strict", 500e-9)
        assert point.operations == 40
        assert point.critical_path > 0
        assert point.instruction_rate > 0


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self, shared_runner):
        return build_table1(shared_runner, thread_counts=(1, 2))

    def test_all_cells_present(self, table):
        assert len(table.cells) == 2 * 2 * 4

    def test_rows_flattening(self, table):
        rows = table1_rows(table)
        assert len(rows) == 16
        assert {row["design"] for row in rows} == {"cwl", "2lc"}

    def test_formatting_contains_all_columns(self, table):
        text = format_table1(table)
        for label in ("Strict", "Epoch", "Racing Epochs", "Strand"):
            assert label in text
        assert "Copy While Locked" in text and "Two-Lock Concurrent" in text

    def test_paper_ordering_invariants(self, table):
        """Within every (design, threads) row the models can only improve
        left to right: strict <= epoch <= racing epochs (on normalized
        persist-bound throughput) and strand is the best."""
        for design in ("cwl", "2lc"):
            for threads in (1, 2):
                strict = table.normalized(design, threads, "strict")
                epoch = table.normalized(design, threads, "epoch")
                racing = table.normalized(design, threads, "racing_epochs")
                strand = table.normalized(design, threads, "strand")
                assert strict <= epoch * 1.05
                assert epoch <= racing * 1.25  # instr-rate wobble allowed
                assert strand >= max(strict, epoch, racing)


class TestFigures:
    def test_log_space_endpoints(self):
        values = log_space(1e-8, 1e-4, 5)
        assert values[0] == pytest.approx(1e-8)
        assert values[-1] == pytest.approx(1e-4)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_figure3_series_and_notes(self, shared_runner):
        figure = figure3_latency_sweep(
            shared_runner, latencies=log_space(1e-8, 1e-4, 9)
        )
        assert {s.name for s in figure.series} == {"strict", "epoch", "strand"}
        for series in figure.series:
            ys = series.ys()
            assert all(a >= b for a, b in zip(ys, ys[1:]))  # non-increasing
        assert (
            figure.notes["breakeven_strict_s"]
            < figure.notes["breakeven_epoch_s"]
            < figure.notes["breakeven_strand_s"]
        )

    def test_figure3_flat_then_falling(self, shared_runner):
        figure = figure3_latency_sweep(
            shared_runner, latencies=log_space(1e-9, 1e-3, 13)
        )
        for series in figure.series:
            ys = series.ys()
            # Compute-bound plateau at the left end for relaxed models,
            # persist-bound tail at the right for all.
            assert ys[-1] < ys[0]

    def test_figure4_csv_roundtrip(self, shared_runner, tmp_path):
        figure = figure4_persist_granularity(shared_runner)
        path = tmp_path / "fig4.csv"
        figure.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("persist_granularity_bytes,")
        assert len(lines) == 1 + 6

    def test_figure5_render_smoke(self, shared_runner):
        figure = figure5_tracking_granularity(shared_runner)
        text = figure.render()
        assert "Figure 5" in text and "strict" in text

    def test_by_name_lookup(self, shared_runner):
        figure = figure4_persist_granularity(shared_runner)
        assert figure.by_name("epoch").name == "epoch"
        with pytest.raises(KeyError):
            figure.by_name("tso")

    def test_figure2_dependence_classes(self, shared_runner):
        summary = figure2_dependences(shared_runner)
        constraints = summary.constraints_per_insert
        assert constraints["strict"] > constraints["epoch"] > constraints["strand"]
        assert summary.removed_by_epoch > 0
        assert summary.removed_by_strand > 0

    @pytest.mark.parametrize("design, programs", [("cwl", 2), ("2lc", 1)])
    def test_figure2_simulates_each_program_once(
        self, shared_runner, monkeypatch, design, programs
    ):
        """Strict and epoch share the non-racing program; 2LC's program
        does not change with the racing flag, so one run serves all
        three columns."""
        from repro.queue import workload as queue_workload

        run_insert_workload = queue_workload.run_insert_workload
        calls = []

        def counting(**kwargs):
            calls.append(kwargs["racing"])
            return run_insert_workload(**kwargs)

        monkeypatch.setattr(queue_workload, "run_insert_workload", counting)
        figure2_dependences(shared_runner, design)
        assert len(calls) == programs
        assert sorted(calls) == [False, True][:programs]
