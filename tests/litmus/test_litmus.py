"""Litmus corpus and differential runner tests.

Pins the acceptance-critical facts: the corpus size and validity, the
genuine px86-vs-dpox86 and px86-vs-epoch disagreements, the
partial-forwarding witness outcome that the pre-fix TSO machine could
not produce, and bitset/graph domain agreement across the corpus.
"""

import pytest

from repro.litmus import (
    LitmusConfig,
    LitmusError,
    LitmusProgram,
    corpus_by_name,
    default_corpus,
    generate_programs,
    hand_written,
    run_corpus,
    run_program,
)
from repro.litmus.corpus import PARTIAL_X, PARTIAL_Y


def outcomes_of(report, model):
    """The (regs, mem) pairs a model allows, as comparable tuples."""
    return {
        (
            tuple(tuple(r) for r in o["regs"]),
            tuple(sorted(o["mem"].items())),
        )
        for o in report["outcomes"][model]
    }


class TestCorpus:
    def test_hand_written_all_validate(self):
        programs = hand_written()
        assert len(programs) >= 20
        for program in programs:
            program.validate()

    def test_default_corpus_size_and_unique_names(self):
        corpus = default_corpus()
        assert len(corpus) >= 20
        names = [p.name for p in corpus]
        assert len(set(names)) == len(names)
        assert corpus_by_name().keys() == set(names)

    def test_generator_is_deterministic(self):
        first = generate_programs(2014, 4)
        second = generate_programs(2014, 4)
        assert first == second
        different = generate_programs(2015, 4)
        assert first != different

    def test_validation_rejects_bad_programs(self):
        bad = LitmusProgram(
            name="bad",
            description="",
            threads=((("frobnicate", "x"),),),
            locations=("x",),
        )
        with pytest.raises(LitmusError, match="unknown op"):
            bad.validate()
        undeclared = LitmusProgram(
            name="bad2",
            description="",
            threads=((("store", "y", 1),),),
            locations=("x",),
        )
        with pytest.raises(LitmusError, match="undeclared location"):
            undeclared.validate()


class TestDisagreements:
    def test_px86_vs_dpox86_on_weak_flush(self):
        """mp-clflushopt: px86 allows flag=1 with x unpersisted (the
        weak flush never committed); dpox86 forbids exactly that."""
        program = corpus_by_name()["mp-clflushopt"]
        report = run_program(program, ("px86", "dpox86"))
        px86 = outcomes_of(report, "px86")
        dpox86 = outcomes_of(report, "dpox86")
        flag_without_x = {
            o
            for o in px86
            if dict(o[1]) == {"flag": 1, "x": 0}
        }
        assert flag_without_x
        assert not (flag_without_x & dpox86)
        assert dpox86 < px86

    def test_px86_vs_epoch_on_barrier(self):
        """mp-barrier: epoch orders x before flag; px86 lowers the
        barrier to an sfence with nothing pending, ordering nothing."""
        program = corpus_by_name()["mp-barrier"]
        report = run_program(program, ("epoch", "px86"))
        epoch = outcomes_of(report, "epoch")
        px86 = outcomes_of(report, "px86")
        flag_without_x = {
            o for o in px86 if dict(o[1]) == {"flag": 1, "x": 0}
        }
        assert flag_without_x
        assert not (flag_without_x & epoch)

    def test_clflush_agrees_across_x86_family(self):
        """mp-clflush: the synchronous flush makes px86 and dpox86
        coincide (clflush is the family's agreement point)."""
        program = corpus_by_name()["mp-clflush"]
        report = run_program(program, ("px86", "dpox86"))
        assert outcomes_of(report, "px86") == outcomes_of(report, "dpox86")
        assert not report["disagreements"]

    def test_committing_fence_closes_the_gap(self):
        """mp-clflushopt-sfence: with the fence the family agrees, and
        the dangerous flag-without-x outcome is gone."""
        program = corpus_by_name()["mp-clflushopt-sfence"]
        report = run_program(program, ("px86", "dpox86"))
        px86 = outcomes_of(report, "px86")
        assert px86 == outcomes_of(report, "dpox86")
        assert not any(dict(o[1]) == {"flag": 1, "x": 0} for o in px86)


class TestForwardingWitness:
    def test_partial_forward_outcome_present(self):
        """sb-partial-forward: both threads read their own partial
        store composed over zeros AND miss the peer's store — possible
        only if the partial-overlap load forwarded without draining.
        The pre-fix machine flushed the buffer on partial overlap,
        making each thread's store visible before the peer's load, so
        this register outcome could never appear."""
        program = corpus_by_name()["sb-partial-forward"]
        report = run_program(program, ("strict",))
        regs = {
            tuple(tuple(r) for r in o["regs"])
            for o in report["outcomes"]["strict"]
        }
        assert ((PARTIAL_X, 0), (PARTIAL_Y, 0)) in regs


class TestDomainsAndSummary:
    def test_cross_domain_agreement(self):
        """bitset and graph domains yield identical outcome sets over a
        representative slice of the corpus."""
        by_name = corpus_by_name()
        slice_names = (
            "mp-clflushopt",
            "chain-clflushopt-sfence",
            "cross-thread-flush",
            "sb-partial-forward",
        )
        models = ("strict", "epoch", "px86", "dpox86")
        for name in slice_names:
            report = run_program(
                by_name[name], models, domains=("bitset", "graph")
            )
            assert report["domain_mismatches"] == []

    def test_run_corpus_summary(self):
        programs = [
            corpus_by_name()[name]
            for name in ("mp-clflushopt", "mp-barrier", "sb-plain")
        ]
        report = run_corpus(programs, LitmusConfig(("epoch", "px86", "dpox86")))
        summary = report["summary"]
        assert summary["programs"] == 3
        assert summary["schedules"] > 0
        assert summary["programs_with_disagreements"] >= 2
        assert summary["domain_mismatches"] == 0
        assert len(report["programs"]) == 3


class TestCutLimitDegradesGracefully:
    """One oversized persist DAG must not abort a corpus run: the
    runner records the truncation per program instead of letting
    ``RecoveryError`` propagate out of ``run_program``."""

    def test_run_program_records_cut_limit_exceeded(self):
        program = corpus_by_name()["mp-clflushopt"]
        report = run_program(program, ("px86", "strict"), cut_limit=1)
        assert set(report["cut_limit_exceeded"]) == {"px86", "strict"}
        # Truncated models carry partial (lower-bound) outcome sets and
        # are excluded from the lockstep domain check.
        assert report["domain_mismatches"] == []

    def test_run_corpus_survives_and_counts_truncations(self):
        by_name = corpus_by_name()
        programs = [by_name["mp-clflushopt"], by_name["sb-plain"]]
        report = run_corpus(programs, LitmusConfig(("px86",), cut_limit=1))
        summary = report["summary"]
        assert summary["programs"] == 2
        assert summary["cut_limit_exceeded"] == 2

    def test_generous_limit_reports_no_truncation(self):
        program = corpus_by_name()["sb-plain"]
        report = run_program(program, ("px86",))
        assert report["cut_limit_exceeded"] == []


class TestBufferedBarrierRegression:
    """Satellite 3: fences and persist barriers issued while stores are
    buffered must keep their model semantics after draining."""

    def test_epoch_orders_across_buffered_barrier(self):
        program = corpus_by_name()["chain-epoch"]
        report = run_program(program, ("epoch",))
        # The persist order x < y < z forbids any state persisting a
        # later cell without every earlier one.
        for mem in (o["mem"] for o in report["outcomes"]["epoch"]):
            if mem["z"] == 1:
                assert mem["x"] == 1 and mem["y"] == 1
            if mem["y"] == 1:
                assert mem["x"] == 1

    def test_px86_orders_across_buffered_flush_chain(self):
        program = corpus_by_name()["chain-clflushopt-sfence"]
        report = run_program(program, ("px86",))
        for o in report["outcomes"]["px86"]:
            mem = o["mem"]
            # {x, y} < z: a persisted z implies both x and y.
            if mem["z"] == 1:
                assert mem["x"] == 1 and mem["y"] == 1
        # x and y themselves are unordered: both one-sided states exist.
        mems = [o["mem"] for o in report["outcomes"]["px86"]]
        assert any(m["x"] == 1 and m["y"] == 0 for m in mems)
        assert any(m["x"] == 0 and m["y"] == 1 for m in mems)
