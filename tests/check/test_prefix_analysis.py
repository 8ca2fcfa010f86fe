"""Prefix-shared analysis vs. from-scratch analysis, in lockstep.

Under ``replay="share"`` the checker and the litmus runner analyze only
the events each explored run adds to the prefix it shares with the
previous run (:class:`~repro.core.analysis.PrefixSharedAnalysis`).
Every persist DAG built that way must equal the one
:func:`~repro.core.analysis.analyze_graph` builds from the whole trace:
nodes, dependence masks, levels, histogram and canonical key.  These
tests check that for every explored run of publish-pair, CWL, the
paper-faithful 2LC subtree and the px86 fence/flush race, on both DAG
domains, and that the engine's reported shared prefix is the common
prefix of consecutive runs, sleep-set-blocked runs included.
"""

import pytest

from repro.check import Engine, canonical_dag_key
from repro.core import PrefixSharedAnalysis, analysis, analyze_graph
from repro.fuzz.targets import make_target
from repro.litmus import corpus_by_name, generate_programs
from repro.litmus.runner import _LitmusCheckProgram
from repro.trace import columnar

from tests.check.test_fence_flush_race import build as race_build

DOMAINS = ("bitset", "graph")
SC_MODELS = ("strict", "epoch", "strand")


class TargetProgram:
    """A fuzz target as a prefix-sharing program yielding its trace."""

    def __init__(self, target, threads, ops):
        self._target = make_target(target)
        self._size = (threads, ops)
        self._finalize = None

    def build(self, scheduler):
        machine, self._finalize = self._target.setup(*self._size, scheduler)
        return machine

    def finish(self, machine):
        return self._finalize(machine).trace


class MachineProgram:
    """A machine factory as a prefix-sharing program yielding its trace."""

    def __init__(self, build):
        self._build = build

    def build(self, scheduler):
        return self._build(scheduler)

    def finish(self, machine):
        return machine.trace


def dag_view(graph):
    return {
        "nodes": [
            (node.pid, node.thread, node.first_seq, node.deps, node.writes)
            for node in graph.nodes
        ],
        "dep_masks": graph.dep_masks,
        "levels": graph.levels(),
        "histogram": graph.level_histogram(),
        "critical_path": graph.critical_path(),
        "key": canonical_dag_key(graph),
    }


def assert_lockstep(program, models, forced_prefix=()):
    """Every run's shared-prefix DAGs equal from-scratch ones; returns
    (runs, events analyzed per model/domain, events in all traces)."""
    analysis = PrefixSharedAnalysis(models, DOMAINS)
    runs = analyzed = total = 0
    for explored in Engine(program, forced_prefix=forced_prefix).explore():
        trace = explored.result
        if isinstance(trace, tuple):
            trace = trace[0]
        graphs = analysis.advance(trace, explored.shared_events)
        runs += 1
        analyzed += len(trace) - explored.shared_events
        total += len(trace)
        for model in models:
            for domain in DOMAINS:
                expected = analyze_graph(trace, model, domain=domain).graph
                got = dag_view(graphs[model, domain])
                assert got == dag_view(expected), (
                    f"run {explored.index} {model}/{domain} "
                    f"(shared {explored.shared_events})"
                )
    return runs, analyzed, total


@pytest.mark.parametrize(
    "target, threads, ops, forced_prefix",
    [
        ("publish-pair", 2, 2, ()),
        ("queue-cwl", 2, 1, ()),
        ("queue-2lc-faithful", 2, 1, (0,) * 16),
    ],
)
def test_lockstep_on_targets(target, threads, ops, forced_prefix):
    runs, analyzed, total = assert_lockstep(
        TargetProgram(target, threads, ops), SC_MODELS, forced_prefix
    )
    assert runs > 1
    # Sharing must actually happen, or the lockstep proves nothing.
    assert analyzed < total


def test_lockstep_on_px86_fence_flush_race():
    runs, analyzed, total = assert_lockstep(
        MachineProgram(race_build), ("px86", "dpox86", "epoch")
    )
    assert runs > 1
    assert analyzed < total


def common_prefix(left, right):
    count = 0
    for a, b in zip(left, right):
        if a != b:
            break
        count += 1
    return count


def litmus(name):
    return _LitmusCheckProgram(corpus_by_name()[name])


@pytest.mark.skipif(not columnar.HAVE_NUMPY, reason="numpy is not installed")
@pytest.mark.parametrize(
    "program, models, forced_prefix",
    [
        (TargetProgram("publish-pair", 2, 2), SC_MODELS, ()),
        (TargetProgram("queue-cwl", 2, 1), SC_MODELS, ()),
        (TargetProgram("queue-2lc-faithful", 2, 1), SC_MODELS, (0,) * 16),
        (MachineProgram(race_build), ("px86", "dpox86", "epoch"), ()),
        (litmus("gen-2014-1"), ("px86", "epoch"), ()),
    ],
    ids=["publish-pair", "queue-cwl", "queue-2lc-faithful", "px86-race",
         "gen-2014-1"],
)
def test_lockstep_on_numpy_precompute(
    monkeypatch, program, models, forced_prefix
):
    """The suffixes prefix sharing feeds are short (tens of events), so
    the other lockstep tests run them through the stdlib precompute;
    forced onto the numpy branch, they must build the same DAGs."""
    monkeypatch.setattr(analysis, "_NUMPY_MIN_EVENTS", 0)
    runs, analyzed, total = assert_lockstep(program, models, forced_prefix)
    assert runs > 1
    assert analyzed < total


#: A generated litmus program where a sleep-set-blocked run is followed
#: by a restore *deeper* than the one it started from (only the minimum
#: restore point is shared), and where the blocked run re-simulated
#: events equal to the previous run's (so the true common prefix is
#: longer than the restore point).
GEN_1_139 = generate_programs(1, 140)[139]


@pytest.mark.parametrize(
    "program",
    [
        TargetProgram("queue-cwl", 2, 1),
        litmus("sb-plain"),
        litmus("sb-partial-forward"),
        litmus("gen-2014-1"),
    ],
    ids=["queue-cwl", "sb-plain", "sb-partial-forward", "gen-2014-1"],
)
def test_shared_events_is_the_common_prefix(program):
    engine = Engine(program)
    previous = None
    for explored in engine.explore():
        result = explored.result
        trace = result[0] if isinstance(result, tuple) else result
        events = list(trace)
        expected = 0 if previous is None else common_prefix(previous, events)
        assert explored.shared_events == expected, explored.index
        previous = events
    if not isinstance(program, TargetProgram):
        assert engine.stats.sleep_blocked > 0


def test_shared_events_after_a_deeper_restore():
    """The shallowest restore since the last yield bounds what is
    shared; re-simulated events equal to the previous run's are not
    counted, so the report may fall short of the common prefix but never
    exceeds it."""
    engine = Engine(_LitmusCheckProgram(GEN_1_139))
    previous = None
    short = 0
    for explored in engine.explore():
        events = list(explored.result[0])
        expected = 0 if previous is None else common_prefix(previous, events)
        assert explored.shared_events <= expected, explored.index
        short += explored.shared_events < expected
        previous = events
    assert engine.stats.sleep_blocked > 0
    assert short


@pytest.mark.parametrize(
    "program", [litmus("gen-2014-1"), _LitmusCheckProgram(GEN_1_139)],
    ids=["gen-2014-1", "gen-1-139"],
)
def test_lockstep_across_sleep_set_blocked_runs(program):
    analysis = PrefixSharedAnalysis(("px86", "epoch"), DOMAINS)
    for explored in Engine(program).explore():
        trace = explored.result[0]
        graphs = analysis.advance(trace, explored.shared_events)
        for (model, domain), graph in graphs.items():
            expected = analyze_graph(trace, model, domain=domain).graph
            assert dag_view(graph) == dag_view(expected), explored.index


def test_reexecute_shares_nothing():
    engine = Engine(TargetProgram("queue-cwl", 2, 1), replay="reexecute")
    shared = [explored.shared_events for explored in engine.explore()]
    assert len(shared) == 28
    assert set(shared) == {0}
