"""Prefix-partitioned sharding of the exploration frontier.

A DPOR exploration is a depth-first walk and does not parallelize by
splitting its *own* frontier (backtrack sets grow dynamically).  What
does partition cleanly is the *schedule tree itself*: every execution of
the program extends exactly one scheduler-choice prefix of depth ``d``,
so enumerating all depth-``d`` prefixes (cheap probe executions — the
tree's top is tiny) and running one independent DPOR exploration per
prefix, with that prefix pinned (``forced_prefix``), covers every
interleaving.  Shards are fanned out over
:func:`repro.harness.parallel.fan_out` worker processes.

Soundness and cost: each shard explores its subtree exhaustively up to
equivalence with an *empty* initial sleep set, so the union of shards
misses nothing; the price is that two shards may re-explore schedules
that DPOR with global sleep sets would have pruned across the prefix
boundary — equivalence classes straddling shards are verified once per
shard.  The merge therefore deduplicates violations by their
schedule-independent identity and sums per-shard stats, reporting both.

At depth 0 the one shard is the whole tree and honours every config
field, the unshardable ones included: ``repro check --jobs 1`` runs
it.  :data:`CHECK_JOB` registers this module as the ``check`` job kind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.checker import (
    CheckConfig,
    CheckResult,
    CheckStats,
    CheckViolation,
    check_target,
)
from repro.errors import ReproError
from repro.fuzz.targets import TARGET_CHOICES, make_target
from repro.harness.parallel import JobKind, fan_out
from repro.schema import Option, decode, encode, options_of
from repro.sim.scheduler import ReplayableScheduler, Scheduler


class _ProbeStop(Exception):
    """Internal: carries the enabled set at the probed depth."""

    def __init__(self, enabled: List[int]) -> None:
        super().__init__("probe")
        self.enabled = enabled


def _enabled_after(
    run: Callable[[Scheduler], object], prefix: Sequence[int]
) -> Optional[List[int]]:
    """The sorted enabled set after replaying ``prefix``, or None when
    the program finishes within the prefix."""
    position = {"index": 0}

    def choose(machine: object, runnable: Sequence[int]) -> int:
        index = position["index"]
        if index == len(prefix):
            raise _ProbeStop(sorted(runnable))
        position["index"] = index + 1
        return prefix[index]

    try:
        run(ReplayableScheduler(choose))
    except _ProbeStop as probe:
        return probe.enabled
    return None


def enumerate_prefixes(
    run: Callable[[Scheduler], object], depth: int
) -> List[Tuple[int, ...]]:
    """All scheduler-choice prefixes of length ``depth`` of a program.

    Prefixes where the program terminates early are returned at their
    (shorter) full length.  The full schedule tree is the disjoint union
    of the subtrees under these prefixes, which is what makes
    prefix-sharded exploration exhaustive.
    """
    if depth < 0:
        raise ReproError(f"shard depth must be non-negative, got {depth}")
    frontier: List[Tuple[int, ...]] = [()]
    complete: List[Tuple[int, ...]] = []
    for _ in range(depth):
        extended: List[Tuple[int, ...]] = []
        for prefix in frontier:
            enabled = _enabled_after(run, prefix)
            if enabled is None:
                complete.append(prefix)
            else:
                extended.extend(prefix + (agent,) for agent in enabled)
        frontier = extended
        if not frontier:
            break
    return complete + frontier


#: Shard task keys beyond the config's encoding: the kind, the target
#: coordinates and the pinned prefix.
_TASK_KEYS = ("kind", "target", "threads", "ops", "prefix")


@dataclass
class ShardReport:
    """Per-shard statistics surfaced next to the merged result."""

    prefix: Tuple[int, ...]
    stats: Dict[str, object]
    violations: int


def shard_tasks(
    target: str,
    threads: int,
    ops: int,
    config: CheckConfig,
    shard_depth: int = 2,
) -> List[Dict[str, object]]:
    """The JSON-safe worker tasks of one prefix-partitioned check run.

    Probes the schedule tree to ``shard_depth`` and returns one
    :func:`check_shard_worker` task per prefix.  Shared by
    :func:`check_target_sharded` and :data:`CHECK_JOB`, so a check job
    submitted to the daemon shards exactly like a ``repro check --jobs
    N`` run — and its shard digests are stable across both paths.

    Raises:
        ReproError: when ``shard_depth`` is above 0 and ``config`` sets
            a field that prefix shards cannot honour.
    """
    if shard_depth:
        config.check_shardable()
    fuzz_target = make_target(target)
    # The probe must run the exact program the shards re-explore:
    # history recording adds marker steps, shifting every choice point.
    record = config.oracle != "invariant"
    prefixes = enumerate_prefixes(
        lambda scheduler: fuzz_target.build(
            threads, ops, scheduler, record_history=record
        ),
        shard_depth,
    )
    spec = encode(config)
    return [
        {"kind": "check", "target": target, "threads": threads, "ops": ops,
         **spec, "prefix": list(prefix)}
        for prefix in prefixes
    ]


class ShardMerge:
    """Accumulates :func:`check_shard_worker` payloads into one result.

    Deduplicates violations by their schedule-independent key, sums
    per-shard stats, collects :class:`ShardReport` rows, and records
    in-band shard errors (exploration-limit overruns) as failures.
    Shared by :func:`check_target_sharded` and the serve merge stage so
    both report identical verdicts for identical shard sets.
    """

    def __init__(self) -> None:
        self.result = CheckResult(stats=CheckStats())
        self.reports: List[ShardReport] = []
        self.failures: List[str] = []

    def add(self, payload: Dict[str, object]) -> None:
        """Fold one shard's wire payload in (error payloads included)."""
        if payload.get("error") is not None:
            self.failures.append(
                f"shard {tuple(payload['prefix'])}: {payload['error']}"
            )
            return
        self.result.stats.merge(payload["stats"])
        shard_violations = [
            CheckViolation.from_payload(v) for v in payload["violations"]
        ]
        for violation in shard_violations:
            key = violation.key()
            if key not in self.result.distinct:
                self.result.distinct[key] = violation
                self.result.violations.append(violation)
        self.reports.append(
            ShardReport(
                prefix=tuple(payload["prefix"]),
                stats=dict(payload["stats"]),
                violations=len(shard_violations),
            )
        )

    def add_failure(self, task: Dict[str, object], error: str) -> None:
        """Record a shard whose worker crashed (out-of-band failure)."""
        self.failures.append(f"shard {tuple(task['prefix'])}: {error}")

    def finish(self) -> Tuple[CheckResult, List[ShardReport]]:
        """The merged result and per-shard reports, failures raised.

        Raises:
            ReproError: when any shard failed or overran its bounds.
        """
        if self.failures:
            raise ReproError(
                f"{len(self.failures)} shard(s) failed: "
                + "; ".join(sorted(self.failures))
            )
        self.reports.sort(key=lambda report: report.prefix)
        return self.result, self.reports


def check_shard_worker(task: Dict[str, object]) -> Dict[str, object]:
    """Run one shard's DPOR exploration (module-level: crosses the
    process boundary for :func:`repro.harness.parallel.fan_out`).

    ``task`` carries the target coordinates, the pinned prefix, and the
    bounds; the JSON-safe result carries the shard's stats and distinct
    violations.  An exploration-limit overrun is reported in-band (the
    ``error`` field) so the merge can fail loudly with shard context.
    """
    config = decode(CheckConfig, task, extra=_TASK_KEYS, task=True)
    config = replace(
        config,
        forced_prefix=config.forced_prefix
        + tuple(int(c) for c in task["prefix"]),
    )
    try:
        result = check_target(
            str(task["target"]), int(task["threads"]), int(task["ops"]), config
        )
    except ReproError as exc:
        return {"prefix": list(task["prefix"]), "error": str(exc)}
    return {
        "prefix": list(task["prefix"]),
        "error": None,
        "stats": result.stats.describe(),
        "violations": [v.describe() for v in result.distinct.values()],
    }


def check_target_sharded(
    target: str,
    threads: int,
    ops: int,
    config: Optional[CheckConfig] = None,
    jobs: Optional[int] = None,
    shard_depth: int = 2,
) -> Tuple[CheckResult, List[ShardReport]]:
    """Model-check a target with the schedule tree split across workers.

    Enumerates every depth-``shard_depth`` choice prefix, fans one DPOR
    exploration per prefix out over ``jobs`` processes, and merges:
    violations are deduplicated by their schedule-independent key
    (shards can rediscover the same violation), stats are summed, and
    per-shard reports are returned for ``--stats``.  At depth 0 the one
    shard explores the whole tree under every field of ``config``.

    Raises:
        ReproError: when any shard fails or overruns its schedule bound.
    """
    config = config or CheckConfig()
    tasks = shard_tasks(target, threads, ops, config, shard_depth)
    merge = ShardMerge()
    fan_out(
        check_shard_worker, tasks, jobs, merge.add, on_failure=merge.add_failure
    )
    return merge.finish()


def _fold_check(
    config: CheckConfig,
    job: Dict[str, object],
    payloads: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    merge = ShardMerge()
    for payload in payloads:
        merge.add(payload)
    result, reports = merge.finish()
    return {
        "violations": len(result.distinct),
        "schedules": result.stats.schedules,
        "cuts_checked": result.stats.cuts_checked,
        "violation_occurrences": result.stats.violation_occurrences,
        "shards": len(reports),
        "stats": result.stats.describe(),
        "text": "\n".join(result.summary_lines()),
    }


#: A sharded model check as a job: one :func:`check_shard_worker` task
#: per depth-``shard_depth`` prefix, merged by :class:`ShardMerge`
#: (whose in-band shard failures fail the job).  Its config keys are
#: the shardable :class:`CheckConfig` fields only.
CHECK_JOB = JobKind(
    name="check",
    config=CheckConfig,
    keys=options_of(
        target=Option(choices=TARGET_CHOICES, noun="fuzz target"),
        threads=Option(int),
        ops=Option(int, help="operations per thread"),
        shard_depth=Option(
            int, default=2,
            help="choice-prefix depth that partitions the schedule tree",
        ),
    ),
    plan=lambda config, job: shard_tasks(
        job["target"], job["threads"], job["ops"], config, job["shard_depth"]
    ),
    worker=check_shard_worker,
    fold=_fold_check,
)
