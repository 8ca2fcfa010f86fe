"""Prefix-sharing replay vs. from-scratch re-execution: exact agreement.

Snapshot/restore is only admissible because it is *invisible*: the
engine must visit the same schedules, analyze the same DAGs, check the
same cuts, and report the identical violation set whether it restores
the deepest common prefix or re-executes every schedule from step 0.
These tests pin that on the issue's three equivalence targets —
publish-pair, CWL, and the paper-faithful 2LC queue (via the repo's
usual violating-subtree idiom to keep the 2LC tree small) — and across
the analysis domains.
"""

import pytest

from repro.check import CheckConfig, Engine, check_target

MODELS = ("strict", "epoch", "strand")


def run_modes(target, threads, ops, **overrides):
    """The same check under every replay mode (plus the oracle domain)."""
    results = {}
    for replay in ("share", "reexecute"):
        config = CheckConfig(
            models=MODELS, max_schedules=None, replay=replay, **overrides
        )
        results[replay] = check_target(target, threads, ops, config)
    results["oracle"] = check_target(
        target,
        threads,
        ops,
        CheckConfig(
            models=MODELS,
            max_schedules=None,
            replay="reexecute",
            graph_domain="graph",
            **overrides,
        ),
    )
    return results


def assert_identical(results):
    """Same violations, same work counters, across all modes."""
    baseline = results["reexecute"]
    for result in results.values():
        assert sorted(result.distinct) == sorted(baseline.distinct)
        assert result.stats.describe() == baseline.stats.describe()
        for key, violation in result.distinct.items():
            assert violation.describe() == baseline.distinct[key].describe()
    return baseline


def test_publish_pair_identical():
    baseline = assert_identical(run_modes("publish-pair", 2, 2))
    # The missing barrier must surface under the relaxed models only.
    models = {key[0] for key in baseline.distinct}
    assert models == {"epoch", "strand"}


def test_queue_cwl_identical_and_clean():
    baseline = assert_identical(run_modes("queue-cwl", 2, 1))
    assert baseline.ok
    assert baseline.stats.schedules > 1


def faithful_2lc_prefix():
    """The choice prefix of a small violating 2LC subtree: the first
    violation's schedule less its last 8 choices."""
    first = check_target(
        "queue-2lc-faithful",
        2,
        1,
        CheckConfig(models=MODELS, max_schedules=None, stop_at_first=True),
    )
    assert not first.ok
    return tuple(first.violations[0].choices[:-8])


def test_queue_2lc_faithful_identical_on_violating_subtree():
    baseline = assert_identical(
        run_modes(
            "queue-2lc-faithful", 2, 1, forced_prefix=faithful_2lc_prefix()
        )
    )
    assert not baseline.ok
    models = {key[0] for key in baseline.distinct}
    assert models <= {"epoch", "strand"} and models


def test_flush_target_identical_under_x86_models():
    """Prefix-sharing replay must also be invisible on traces carrying
    the x86 flush family (flush entries drain through the store buffer,
    so restored snapshots must reproduce buffered-flush state exactly).
    The missing commit fence surfaces under px86 but never dpox86."""
    results = {}
    for replay in ("share", "reexecute"):
        results[replay] = check_target(
            "publish-clflushopt-nofence",
            1,
            1,
            CheckConfig(
                models=("strict", "px86", "dpox86"),
                max_schedules=None,
                replay=replay,
            ),
        )
    results["oracle"] = check_target(
        "publish-clflushopt-nofence",
        1,
        1,
        CheckConfig(
            models=("strict", "px86", "dpox86"),
            max_schedules=None,
            replay="reexecute",
            graph_domain="graph",
        ),
    )
    baseline = assert_identical(results)
    assert not baseline.ok
    models = {key[0] for key in baseline.distinct}
    assert models == {"px86"}


def test_clwb_target_clean_under_x86_models():
    """The fenced clwb publish is clean under the whole x86 family —
    in both replay modes."""
    for replay in ("share", "reexecute"):
        result = check_target(
            "publish-clwb",
            1,
            1,
            CheckConfig(
                models=("strict", "px86", "dpox86"),
                max_schedules=None,
                replay=replay,
            ),
        )
        assert result.ok


def test_share_is_default_for_targets():
    """With no explicit replay, target programs get prefix sharing —
    and still match an explicit re-execution run."""
    default = check_target(
        "publish-pair", 2, 1, CheckConfig(models=MODELS, max_schedules=None)
    )
    explicit = check_target(
        "publish-pair",
        2,
        1,
        CheckConfig(models=MODELS, max_schedules=None, replay="reexecute"),
    )
    assert sorted(default.distinct) == sorted(explicit.distinct)
    assert default.stats.describe() == explicit.stats.describe()


# -- the engine's journaled conflict tables ---------------------------------


def table_view(engine):
    """A deep, comparable copy of the engine's three conflict tables."""

    def access(record):
        agent, count, clock, depth = record
        return agent, count, dict(clock), depth

    return (
        {agent: dict(clock) for agent, clock in engine._clocks.items()},
        {obj: access(last) for obj, last in engine._last_write.items()},
        {
            obj: {reader: access(last) for reader, last in readers.items()}
            for obj, readers in engine._last_reads.items()
        },
    )


def tables_by_prefix(monkeypatch, target, threads, ops, config):
    """Run one check, recording the conflict tables at every decision
    point, keyed by the choice prefix that reached it."""
    seen = {}
    choose = Engine._choose

    def recording(engine, machine, runnable):
        prefix = tuple(node.chosen for node in engine._stack[: engine._depth])
        view = table_view(engine)
        assert seen.setdefault(prefix, view) == view, prefix
        return choose(engine, machine, runnable)

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_choose", recording)
        check_target(target, threads, ops, config)
    return seen


@pytest.mark.parametrize(
    "target, threads, ops, models, subtree",
    [
        ("publish-pair", 2, 2, MODELS, False),
        ("queue-cwl", 2, 1, MODELS, False),
        ("queue-2lc-faithful", 2, 1, MODELS, True),
        ("publish-clflushopt-nofence", 1, 1, ("strict", "px86", "dpox86"), False),
        ("publish-clwb", 1, 1, ("strict", "px86", "dpox86"), False),
    ],
)
def test_journaled_tables_lockstep_reexecution(
    monkeypatch, target, threads, ops, models, subtree
):
    """At every decision point of a prefix-sharing run, the tables that
    journal restores left behind equal the ones a from-scratch run holds
    at the same choice prefix."""
    forced = faithful_2lc_prefix() if subtree else ()
    tables = {}
    for replay in ("share", "reexecute"):
        config = CheckConfig(
            models=models,
            max_schedules=None,
            replay=replay,
            forced_prefix=forced,
        )
        tables[replay] = tables_by_prefix(
            monkeypatch, target, threads, ops, config
        )
    shared, fresh = tables["share"], tables["reexecute"]
    assert len(shared) > 1
    assert shared.keys() == fresh.keys()
    for prefix, view in shared.items():
        assert view == fresh[prefix], prefix


def test_engine_stats_identical_on_e2e_subtree():
    """The benchmark's check-2lc subtree: the same decision nodes, races
    and backtrack points under both replays."""
    engines = {}
    for replay in ("share", "reexecute"):
        result = check_target(
            "queue-2lc-faithful",
            2,
            1,
            CheckConfig(forced_prefix=(0,) * 16, replay=replay),
        )
        engines[replay] = result.stats.engine
    assert engines["share"] == engines["reexecute"]
    engine = engines["share"]
    assert (
        engine["nodes"],
        engine["races_detected"],
        engine["backtrack_points"],
    ) == (13_591, 2_339, 749)
