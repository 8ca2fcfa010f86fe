"""Semantics tests for the persistency models (paper Sections 4-5).

Every test encodes one ordering rule from the paper as a tiny hand-built
SC trace and asserts the critical path each model assigns.
"""

import pytest

from repro.core import AnalysisConfig, analyze, make_model
from repro.core.model import MODELS

from tests.core.helpers import B, L, NS, P, R, S, V, build

NO_COALESCE = AnalysisConfig(coalescing=False)


def cp(trace, model, config=None):
    return analyze(trace, model, config).critical_path


class TestStrict:
    def test_program_order_serialises_persists(self):
        trace = build([(0, S, P, 1), (0, S, P + 64, 2), (0, S, P + 128, 3)])
        assert cp(trace, "strict") == 3

    def test_loads_order_persists_transitively(self):
        # Persist A; load x; other thread stores x after observing...
        # here: t0 persist then volatile store; t1 load sees it, persists.
        trace = build(
            [(0, S, P, 1), (0, S, V, 1), (1, L, V, 1), (1, S, P + 64, 2)]
        )
        assert cp(trace, "strict") == 2

    def test_unordered_cross_thread_persists_are_concurrent(self):
        # "persists from different threads that are unordered by
        # happens-before ... are concurrent" (Section 5.1).
        trace = build([(0, S, P, 1), (1, S, P + 64, 2)])
        assert cp(trace, "strict") == 1

    def test_ignores_barriers_and_strands(self):
        plain = build([(0, S, P, 1), (0, S, P + 64, 2)])
        annotated = build(
            [(0, S, P, 1), (0, B), (0, NS), (0, S, P + 64, 2)]
        )
        assert cp(plain, "strict") == cp(annotated, "strict") == 2

    def test_load_before_store_conflict_ordered(self):
        # t0 persists A then loads x; t1 stores x then persists B.
        # The load-before-store conflict orders A before B under SC.
        trace = build(
            [(0, S, P, 1), (0, L, V, 0), (1, S, V, 1), (1, S, P + 64, 2)]
        )
        assert cp(trace, "strict") == 2


class TestEpoch:
    def test_same_epoch_persists_concurrent(self):
        trace = build([(0, S, P, 1), (0, S, P + 64, 2), (0, S, P + 128, 3)])
        assert cp(trace, "epoch") == 1

    def test_barrier_orders_epochs(self):
        trace = build(
            [(0, S, P, 1), (0, B), (0, S, P + 64, 2), (0, B), (0, S, P + 128, 3)]
        )
        assert cp(trace, "epoch") == 3

    def test_barrier_orders_across_accesses_not_just_persists(self):
        # Rule (1): any two accesses separated by a barrier are ordered.
        # A < load(x) by barrier; load < store(x) by conflict;
        # store < B by t1's barrier: A < B.
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, L, V, 0),
                (1, S, V, 1),
                (1, B),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "epoch") == 2

    def test_volatile_conflicts_propagate(self):
        # Message passing through a volatile flag orders persists when
        # both sides use barriers (Section 5.2 rule 2 + rule 1).
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, S, V, 1),
                (1, L, V, 1),
                (1, B),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "epoch") == 2

    def test_racing_epochs_are_unordered(self):
        # Same message passing but with no barrier on the writer side:
        # a persist-epoch race; persists to different addresses stay
        # concurrent even though SC orders the underlying stores.
        trace = build(
            [
                (0, S, P, 1),
                (0, S, V, 1),
                (1, L, V, 1),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "epoch") == 1

    def test_same_address_ordered_even_in_racing_epochs(self):
        # "two persists to the same address are always ordered even if
        # they occur in racing epochs" (strong persist atomicity).
        trace = build([(0, S, P, 1), (1, S, P, 2)])
        assert cp(trace, "epoch", NO_COALESCE) == 2

    def test_synchronization_through_persistent_memory(self):
        # Section 5.2: atomic RMW to a persistent address provides
        # well-defined cross-thread persist ordering via strong persist
        # atomicity, even without barriers around it on the reader side.
        flag = P + 1024
        trace = build(
            [
                (0, S, P, 1),       # data persist
                (0, B),
                (0, R, flag, 1),    # persistent RMW publish
                (1, R, flag, 2),    # persistent RMW observe (SPA-ordered)
                (1, B),
                (1, S, P + 64, 2),  # dependent persist
            ]
        )
        assert cp(trace, "epoch", NO_COALESCE) == 4

    def test_new_strand_is_ignored(self):
        with_strand = build(
            [(0, S, P, 1), (0, B), (0, NS), (0, S, P + 64, 2)]
        )
        assert cp(with_strand, "epoch") == 2


class TestBpfs:
    def test_volatile_conflicts_not_tracked(self):
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, S, V, 1),
                (1, L, V, 1),
                (1, B),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "epoch") == 2
        assert cp(trace, "bpfs") == 1

    def test_load_before_store_conflict_missed(self):
        # The paper: BPFS's last-persisting-thread tags cannot detect a
        # conflict whose first access is a load — TSO-style detection.
        # Chain under epoch: A < load (barrier), load < store P+512
        # (load-before-store conflict), store P+512 < B (barrier), giving
        # three links; BPFS misses the middle conflict and sees only the
        # flag persist + B chain of two.
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, L, P + 512, 0),
                (1, S, P + 512, 1),
                (1, B),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "epoch", NO_COALESCE) == 3
        assert cp(trace, "bpfs", NO_COALESCE) == 2

    def test_store_store_conflict_still_detected(self):
        # Store-store conflicts to the persistent space are detected by
        # both models: A < flag-store (barrier), flag < flag' (conflict
        # and strong persist atomicity), flag' < B (barrier) — four
        # persists in one chain.  Missing the conflict would leave two.
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, S, P + 512, 7),
                (1, S, P + 512, 8),
                (1, B),
                (1, S, P + 64, 2),
            ]
        )
        assert cp(trace, "bpfs", NO_COALESCE) == 4
        assert cp(trace, "epoch", NO_COALESCE) == 4


class TestStrand:
    def test_new_strand_clears_dependences(self):
        trace = build(
            [(0, S, P, 1), (0, B), (0, NS), (0, S, P + 64, 2)]
        )
        assert cp(trace, "strand") == 1

    def test_new_strand_drops_the_unbarriered_epoch(self):
        """Section 5.3: a new strand starts with no ordering constraints,
        so a persist the old strand issued after its last barrier does
        not order the new strand's first barriered persist either."""
        trace = build(
            [(0, S, P, 1), (0, NS), (0, B), (0, S, P + 64, 2)]
        )
        assert cp(trace, "strand") == 1

    def test_barriers_order_within_strand(self):
        trace = build(
            [(0, NS), (0, S, P, 1), (0, B), (0, S, P + 64, 2)]
        )
        assert cp(trace, "strand") == 2

    def test_strand_ordering_via_read_then_barrier(self):
        # Section 5.3: "a persist strand begins by reading persisted
        # memory locations after which new persists must be ordered",
        # then a persist barrier enforces the dependence.
        trace = build(
            [
                (0, S, P, 1),       # strand 1: persist A
                (0, NS),            # strand 2
                (0, L, P, 1),       # read A (strong persist atomicity edge)
                (0, B),
                (0, S, P + 64, 2),  # must be ordered after A
            ]
        )
        assert cp(trace, "strand") == 2

    def test_strands_without_reads_are_concurrent(self):
        trace = build(
            [
                (0, S, P, 1),
                (0, B),
                (0, NS),
                (0, S, P + 64, 2),
                (0, B),
                (0, NS),
                (0, S, P + 128, 3),
            ]
        )
        assert cp(trace, "strand") == 1

    def test_same_address_across_strands_ordered(self):
        trace = build([(0, S, P, 1), (0, NS), (0, S, P, 2)])
        assert cp(trace, "strand", NO_COALESCE) == 2


class TestRegistry:
    def test_all_models_constructible(self):
        for name in MODELS:
            assert make_model(name).name == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_model("release_persistency")

    def test_models_are_fresh_instances(self):
        assert make_model("epoch") is not make_model("epoch")
