"""GPU-lanes workload: scoped commits, synthetic traces, and the bench."""

import json

import pytest

from repro.core import AnalysisConfig, StreamingAnalyzer, analyze
from repro.errors import RecoveryError, SimulationError
from repro.fuzz import make_target
from repro.gpu.bench import main as bench_main
from repro.gpu.bench import records_for_events
from repro.gpu.lanes import (
    COMMIT_MAGIC,
    build_lane_machine,
    iter_lane_chunks,
    lane_event_count,
    lane_record_word,
)
from repro.memory import layout
from repro.memory.nvram import NvramImage
from repro.sim import RandomScheduler, RoundRobinScheduler
from repro.trace import chunks_from_events

from tests.core.reference_analysis import RESULT_FIELDS, reference_analyze


def _final_image(machine):
    return NvramImage.from_region(
        machine.memory.region("persistent"), blank=False
    )


class TestWorkloadInvariant:
    def test_completed_run_satisfies_check(self):
        machine, workload = build_lane_machine(
            4, 3, words=2, lanes_per_scope=2,
            scheduler=RandomScheduler(seed=1),
        )
        machine.run()
        workload.check(_final_image(machine))

    def test_corrupted_record_under_durable_commit_raises(self):
        machine, workload = build_lane_machine(
            4, 2, words=2, lanes_per_scope=2,
            scheduler=RandomScheduler(seed=2),
        )
        machine.run()
        image = _final_image(machine)
        image.apply_raw(
            workload.record_addr(1, 0, 1), bytes(layout.WORD_SIZE)
        )
        with pytest.raises(RecoveryError):
            workload.check(image)

    def test_uncommitted_scope_is_unconstrained(self):
        machine, workload = build_lane_machine(
            4, 2, words=2, lanes_per_scope=2,
            scheduler=RandomScheduler(seed=3),
        )
        machine.run()
        image = _final_image(machine)
        # Clear scope 0's commit word, then corrupt one of its records:
        # without the durable commit there is no promise to violate.
        image.apply_raw(workload.commit_addr(0), bytes(layout.WORD_SIZE))
        image.apply_raw(
            workload.record_addr(0, 0, 0), bytes(layout.WORD_SIZE)
        )
        workload.check(image)

    def test_fuzz_target_registered_and_correct(self):
        target = make_target("gpu-lanes")
        assert not target.known_broken
        run = target.build(3, 2, RandomScheduler(seed=4))
        run.check(run.base_image)  # blank commits: vacuously fine

    def test_machine_trace_streams_like_batch(self):
        """The machine-driven trace, fed in columnar chunks, analyzes
        exactly like the whole trace does."""
        machine, workload = build_lane_machine(
            6, 3, words=2, lanes_per_scope=3,
            scheduler=RoundRobinScheduler(),
        )
        machine.run()
        workload.check(_final_image(machine))
        for model in ("epoch", "strand"):
            streamed = StreamingAnalyzer(model)
            for chunk in chunks_from_events(machine.trace, 16):
                streamed.feed(chunk)
            a = analyze(machine.trace, model)
            b = streamed.finish()
            assert (a.critical_path, a.persist_count, a.level_histogram) == (
                b.critical_path,
                b.persist_count,
                b.level_histogram,
            )

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            build_lane_machine(0, 1)
        with pytest.raises(SimulationError):
            build_lane_machine(1, 1, words=9)


class TestSyntheticTrace:
    def test_event_count_matches_generator(self):
        for lanes, records, words, scope in (
            (1, 1, 1, 1),
            (6, 3, 2, 2),
            (5, 2, 8, 32),
            (7, 4, 3, 3),
        ):
            count = lane_event_count(lanes, records, words, scope)
            total = sum(
                len(chunk)
                for chunk in iter_lane_chunks(
                    lanes, records, words, scope, chunk_events=13
                )
            )
            assert total == count

    def test_chunk_seqs_are_dense(self):
        chunks = list(iter_lane_chunks(4, 2, 2, 2, chunk_events=7))
        expected = 0
        for chunk in chunks:
            assert chunk.base_seq == expected
            expected += len(chunk)

    def test_commit_follows_barrier_per_scope(self):
        events = [
            event
            for chunk in iter_lane_chunks(4, 1, 2, 2, chunk_events=1000)
            for event in chunk
        ]
        commits = [
            event for event in events if event.value == COMMIT_MAGIC
        ]
        assert len(commits) == 2
        for commit in commits:
            prior = [
                event
                for event in events
                if event.thread == commit.thread and event.seq < commit.seq
            ]
            assert prior[-1].kind.value == "persist_barrier"

    def test_streamed_analysis_locksteps_reference(self, numpy_branch):
        config = AnalysisConfig(
            persist_granularity=64, tracking_granularity=64
        )
        for model in ("epoch", "strict", "strand"):
            chunked = StreamingAnalyzer(model, config)
            for chunk in iter_lane_chunks(8, 4, 4, 4, chunk_events=31):
                chunked.feed(chunk)
            a = chunked.finish()
            b = reference_analyze(
                (
                    event
                    for chunk in iter_lane_chunks(8, 4, 4, 4, chunk_events=31)
                    for event in chunk
                ),
                model,
                config,
            )
            for field in RESULT_FIELDS:
                assert getattr(a, field) == getattr(b, field), (model, field)

    def test_epoch_critical_path_is_records_plus_commit(self):
        """Lockstep lanes: one level per record epoch, one for commits."""
        result = analyze(
            [
                event
                for chunk in iter_lane_chunks(4, 5, 2, 2)
                for event in chunk
            ],
            "epoch",
            AnalysisConfig(persist_granularity=64, tracking_granularity=64),
        )
        assert result.critical_path == 6

    def test_deterministic_values(self):
        assert lane_record_word(0, 0, 0) == lane_record_word(0, 0, 0)
        assert lane_record_word(1, 2, 3) != lane_record_word(1, 2, 4)


class TestBenchCli:
    def test_records_for_events_reaches_target(self):
        records = records_for_events(8, 4, 4, 1000)
        assert lane_event_count(8, records, 4, 4) >= 1000
        assert lane_event_count(8, records - 1, 4, 4) < 1000

    def test_small_bench_run_reports_and_passes(self, capsys):
        status = bench_main(
            [
                "--lanes", "8",
                "--records", "6",
                "--words", "4",
                "--scope", "4",
                "--chunk-events", "64",
                "--models", "epoch",
            ]
        )
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] == lane_event_count(8, 6, 4, 4)
        assert report["failures"] == []
        assert report["peak_rss_kb"] > 0

    def test_floor_violation_exits_nonzero(self, capsys):
        status = bench_main(
            [
                "--lanes", "4",
                "--records", "2",
                "--models", "epoch",
                "--min-events-per-sec", "1e15",
            ]
        )
        assert status == 3
        report = json.loads(capsys.readouterr().out)
        assert report["failures"]
