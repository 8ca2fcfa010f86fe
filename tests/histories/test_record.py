"""Tests for marker encoding and history extraction."""

import dataclasses

import pytest

from repro.core.analysis import analyze_graph
from repro.errors import HistoryError
from repro.fuzz import make_target
from repro.histories.record import (
    INVOKE_PREFIX,
    decode_value,
    encode_value,
    extract_history,
)
from repro.sim import make_scheduler
from repro.trace import EventKind, Trace


def recorded_run(target="log", threads=1, ops=3, seed=7, model="epoch"):
    """A completed recorded run plus its persist graph."""
    run = make_target(target).build(
        threads, ops, make_scheduler("strided2", seed), record_history=True
    )
    graph = analyze_graph(run.trace, model, domain="graph").graph
    return run, graph


def as_trace(events):
    """A trace of ``events``, renumbered densely in order."""
    trace = Trace()
    trace.extend(
        dataclasses.replace(event, seq=seq) for seq, event in enumerate(events)
    )
    return trace


class TestCodec:
    def test_round_trips_scalars_and_bytes(self):
        values = [
            None,
            True,
            -7,
            "name",
            b"\x00\xff payload",
            [b"a", [1, "x"], None],
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_tuples_become_lists(self):
        assert encode_value((1, (2, 3))) == [1, [2, 3]]

    def test_rejects_unencodable_values(self):
        with pytest.raises(HistoryError):
            encode_value(object())
        with pytest.raises(HistoryError):
            encode_value(3.14)

    def test_rejects_unknown_objects_on_decode(self):
        with pytest.raises(HistoryError):
            decode_value({"__surprise__": 1})


class TestExtraction:
    def test_single_thread_operations_in_program_order(self):
        run, graph = recorded_run(ops=3)
        history = extract_history(run.trace, graph)
        assert [op.name for op in history.operations] == ["append"] * 3
        assert [op.index for op in history.operations] == [0, 1, 2]
        assert all(op.complete for op in history.operations)
        # Appends return increasing offsets; arguments round-trip as bytes.
        offsets = [op.result for op in history.operations]
        assert offsets == sorted(offsets)
        assert all(isinstance(op.args[0], bytes) for op in history.operations)

    def test_every_persist_attributed(self):
        run, graph = recorded_run(ops=3)
        history = extract_history(run.trace, graph)
        assert history.unattributed == ()
        attributed = sorted(
            pid for op in history.operations for pid in op.persists
        )
        assert attributed == sorted(node.pid for node in graph.nodes)

    def test_attribution_respects_invoke_intervals(self):
        run, graph = recorded_run(ops=3)
        history = extract_history(run.trace, graph)
        for op in history.operations:
            for pid in op.persists:
                node = next(n for n in graph.nodes if n.pid == pid)
                assert node.thread == op.thread
                assert node.first_seq >= op.invoke_seq

    def test_extraction_is_model_independent(self):
        run, epoch_graph = recorded_run(threads=2, ops=2, model="epoch")
        strand_graph = analyze_graph(
            run.trace, "strand", domain="graph"
        ).graph
        epoch_history = extract_history(run.trace, epoch_graph)
        strand_history = extract_history(run.trace, strand_graph)
        assert epoch_history.operations == strand_history.operations

    def test_markers_leave_dag_unchanged(self):
        """Single-threaded, recording on vs. off: identical persist DAG."""
        scheduler = make_scheduler("strided2", 7)
        plain = make_target("log").build(1, 3, scheduler)
        recorded, graph = recorded_run(ops=3)
        plain_graph = analyze_graph(plain.trace, "epoch", domain="graph").graph
        key = lambda g: sorted(
            (n.pid, n.thread, tuple(sorted(g.ancestors(n.pid))))
            for n in g.nodes
        )
        assert key(plain_graph) == key(graph)

    def test_persisted_complete_is_cut_containment(self):
        run, graph = recorded_run(ops=2)
        history = extract_history(run.trace, graph)
        op = history.operations[0]
        assert op.persisted_complete(set(op.persists))
        assert not op.persisted_complete(set(op.persists[:-1]))

    def test_malformed_marker_rejected(self):
        run, graph = recorded_run()
        events = list(run.trace)
        slot = next(
            i
            for i, event in enumerate(events)
            if event.kind is EventKind.MARK
            and event.info.startswith(INVOKE_PREFIX)
        )
        events[slot] = dataclasses.replace(
            events[slot], info=INVOKE_PREFIX + "{not json"
        )
        with pytest.raises(HistoryError):
            extract_history(as_trace(events), graph)

    def test_response_without_invocation_rejected(self):
        run, graph = recorded_run()
        events = list(run.trace)
        slot = next(
            i
            for i, event in enumerate(events)
            if event.kind is EventKind.MARK
            and event.info.startswith(INVOKE_PREFIX)
        )
        del events[slot]
        with pytest.raises(HistoryError):
            extract_history(as_trace(events), graph)
