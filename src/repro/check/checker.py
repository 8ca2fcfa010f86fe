"""The persistency model checker: DPOR exploration × deduplicated cuts.

Ties the pieces together: the DPOR engine (:mod:`repro.check.engine`)
enumerates one execution per schedule-equivalence class; each execution
is analyzed into a persist DAG per persistency model; canonical DAG
hashing (:mod:`repro.check.canonical`) skips whole verification jobs
whose DAG an earlier schedule already produced; and within a schedule,
cut images are memoized by content hash
(:func:`repro.core.recovery.cut_content_key`) so byte-identical failure
states are imaged and checked once.

Deduplication soundness:

* *DAG dedup (cross-schedule, per model)*: equal canonical DAG keys mean
  equal persists, writes, and dependence edges — the recovery observer's
  whole input — so the earlier schedule's verdicts cover this one.  This
  assumes the recovery checker is a function of the failure image and
  the target's ground truth, which equal traces… equal DAGs guarantee
  for the persistent state; targets whose check depends on *volatile*
  results of the run are still covered because equal DAGs from the same
  program arise from executions related by commuting independent steps,
  which reach the same final state.
* *Cut memo (within schedule, across models and cuts)*: the checker and
  ground truth are fixed for one execution, so equal image bytes give
  equal verdicts regardless of which model's DAG produced the cut.  A
  memo hit that was a violation is *re-recorded* under the current
  model — distinct violation sets per model are preserved exactly.

Cuts are judged by the execution's :class:`~repro.fuzz.judge.CutJudge`,
and **both deduplications are disabled** unless it is ``image_only``.
Under a history oracle (``CheckConfig.oracle`` of ``"dl"``/``"bdl"``)
it is not: the durable-linearizability verdict depends on *cut
membership* (which operations are persisted-complete), not only on the
failure image's bytes, so equal image content does not imply equal
verdicts; and equal canonical DAGs do not imply equal recorded
histories.  Oracle runs therefore image and judge every cut of every
schedule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import PrefixSharedAnalysis
from repro.core.model import MODEL_CHOICES, validate_models
from repro.core.recovery import (
    cut_content_key,
    cut_members,
    enumerate_cut_masks,
    image_at_cut,
    minimal_cut_mask,
)
from repro.check.canonical import canonical_dag_key
from repro.check.engine import REDUCTIONS, REPLAYS, Engine, EngineStats
from repro.errors import RecoveryError, ReproError
from repro.fuzz.judge import CutJudge, Verdict
from repro.histories.oracle import ORACLES, cut_checker
from repro.memory.nvram import NvramImage
from repro.schema import decode_keys, encode, option, options
from repro.sim.machine import Machine
from repro.sim.scheduler import Scheduler

#: Persistency models checked when the caller does not choose.
DEFAULT_MODELS = ("strict", "epoch", "strand")

#: Occurrence records kept per result; distinct violations are unbounded.
MAX_RECORDED_VIOLATIONS = 1_000

#: Analysis domains that build persist DAGs (the checker's choices).
GRAPH_DOMAINS = ("bitset", "graph")

#: Engine counters that :meth:`CheckStats.merge` folds by maximum.
_ENGINE_MAXIMA = ("max_depth", "branching_max")


@dataclass(frozen=True)
class CheckConfig:
    """Knobs of one model-checking run (the ``repro check`` flags and
    the check job spec, see :mod:`repro.schema`).

    ``replay`` None lets the engine pick prefix-sharing whenever the
    program supports it.  The ``"bitset"`` and ``"graph"`` domains
    produce byte-identical results; the former is just faster.  History
    oracles (``"dl"``/``"bdl"``, recordable targets only) disable
    DAG/cut deduplication (see the module docstring).  ``reduction``,
    ``replay``, ``graph_domain`` and ``forced_prefix`` are not
    shardable: prefix shards run DPOR with the defaults.
    """

    models: Tuple[str, ...] = option(
        DEFAULT_MODELS, many=True, choices=MODEL_CHOICES,
        noun="persistency model", flag="--model",
        cli={"dest": "models", "action": "append", "nargs": None},
        help="persistency model to check (repeatable; default: "
        + " ".join(DEFAULT_MODELS) + ")",
    )
    max_schedules: Optional[int] = option(
        20_000, type=int, optional=True,
        help="abort (exit 2) past this many explored schedules",
    )
    max_cuts_per_graph: int = option(
        4_096, type=int, key="max_cuts", flag="--max-cuts",
        help="per-DAG cut budget before falling back to minimal cuts",
    )
    stop_at_first: bool = option(
        False, type=bool,
        help="stop at the first violation instead of collecting all",
    )
    reduction: str = option(
        "dpor", choices=REDUCTIONS, shardable=False,
        help="'none' disables DPOR (exhaustive enumeration)",
    )
    forced_prefix: Tuple[int, ...] = option(
        (), type=int, many=True, flag=None, shardable=False
    )
    replay: Optional[str] = option(
        None, choices=tuple(sorted(REPLAYS)), optional=True, shardable=False,
        help="backtracking strategy: 'share' restores the deepest common "
        "prefix from a snapshot, 'reexecute' replays from step 0 "
        "(default: share when the target supports it)",
    )
    graph_domain: str = option(
        "bitset", choices=GRAPH_DOMAINS, noun="graph domain",
        flag="--domain", shardable=False,
        help="persist-DAG analysis domain; 'graph' is the frozenset "
        "reference oracle, 'bitset' the packed-integer fast path",
    )
    oracle: str = option(
        "invariant", choices=ORACLES, noun="oracle",
        help="per-cut judge: the target's recovery invariant, durable "
        "linearizability (dl), or buffered durable linearizability "
        "(bdl); dl/bdl disable DAG/cut deduplication (verdicts depend "
        "on cut membership, not image bytes)",
    )

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ReproError` on unusable models or
        domain, before any schedule runs."""
        validate_models(self.models)
        if self.graph_domain not in GRAPH_DOMAINS:
            raise ReproError(
                f"graph_domain {self.graph_domain!r} cannot build persist "
                f"DAGs; expected one of {GRAPH_DOMAINS}"
            )

    def check_shardable(self) -> None:
        """Raise :class:`~repro.errors.ReproError` when a field marked
        not shardable is off its default: prefix shards run DPOR with
        the default replay and domain, and pin their own prefix."""
        for opt in options(CheckConfig).values():
            value = getattr(self, opt.name)
            if not opt.shardable and value != opt.default:
                raise ReproError(
                    f"{opt.flag or opt.name} {value} is not supported with "
                    f"--jobs > 1 (shards run DPOR with the default replay "
                    f"and domain)"
                )


@dataclass(frozen=True)
class CheckViolation:
    """One recovery-check failure found by the checker.

    ``key()`` is the violation's schedule-independent identity: the
    model, the canonical DAG, the cut's image content, and the error.
    Occurrences in other (equivalent or distinct) schedules reuse it.
    ``condition`` is the history oracle's classification (``"dl"`` or
    ``"dl+bdl"``; None under the invariant oracle).
    """

    schedule_index: int = option(type=int)
    model: str = option()
    cut: Tuple[int, ...] = option(type=int, many=True)
    error: str = option()
    choices: Tuple[int, ...] = option(type=int, many=True)
    dag_key: str = option()
    cut_key: str = option()
    condition: Optional[str] = option(None, optional=True)

    def key(self) -> Tuple[str, str, str, str]:
        """Deduplication identity (model, dag, cut content, error)."""
        return (self.model, self.dag_key, self.cut_key, self.error)

    def describe(self) -> Dict[str, object]:
        """JSON-safe record (shard wire format / corpus export input)."""
        return encode(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CheckViolation":
        """Rebuild a violation from :meth:`describe` output."""
        return cls(**decode_keys(options(cls), payload))


@dataclass
class CheckStats:
    """Work and savings counters for one checking run."""

    schedules: int = option(0, type=int)
    executions: int = option(0, type=int)
    sleep_blocked: int = option(0, type=int)
    dags_analyzed: int = option(0, type=int)
    dags_deduped: int = option(0, type=int)
    cuts_checked: int = option(0, type=int)
    cuts_imaged: int = option(0, type=int)
    cut_memo_hits: int = option(0, type=int)
    violation_occurrences: int = option(0, type=int)
    engine: Dict[str, int] = option(default_factory=dict, type=int, keyed=True)

    @property
    def imaging_ratio(self) -> float:
        """Fraction of checked cuts that needed a fresh image."""
        if not self.cuts_checked:
            return 0.0
        return self.cuts_imaged / self.cuts_checked

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (for shard merging and ``--stats``)."""
        return encode(self)

    def merge(self, other: Dict[str, object]) -> None:
        """Fold another run's :meth:`describe` payload into this one.

        Counters add up, except the engine's depth and branching maxima,
        which take the larger value.
        """
        theirs = CheckStats(**decode_keys(options(CheckStats), other))
        for name in self.__dataclass_fields__:
            if name != "engine":
                mine = getattr(self, name)
                setattr(self, name, mine + getattr(theirs, name))
        for key, value in theirs.engine.items():
            fold = max if key in _ENGINE_MAXIMA else operator.add
            self.engine[key] = fold(self.engine.get(key, 0), value)


@dataclass
class CheckResult:
    """Outcome of one model-checking run."""

    stats: CheckStats
    violations: List[CheckViolation] = field(default_factory=list)
    #: First occurrence of each distinct violation, by :meth:`CheckViolation.key`.
    distinct: Dict[Tuple[str, str, str, str], CheckViolation] = field(
        default_factory=dict
    )

    @property
    def ok(self) -> bool:
        """True when no violation was found."""
        return not self.distinct

    @property
    def condition_counts(self) -> Dict[str, int]:
        """Distinct violations per broken condition ("dl", "dl+bdl").

        Empty under the invariant oracle.
        """
        counts: Dict[str, int] = {}
        for violation in self.distinct.values():
            if violation.condition is not None:
                counts[violation.condition] = (
                    counts.get(violation.condition, 0) + 1
                )
        return counts

    def summary_lines(self) -> List[str]:
        """The ``repro check`` summary table, one row per line."""
        stats = self.stats
        rows = [
            ("schedules explored", str(stats.schedules)),
            ("sleep-set aborts", str(stats.sleep_blocked)),
            (
                "persist DAGs analyzed",
                f"{stats.dags_analyzed} ({stats.dags_deduped} deduped)",
            ),
            (
                "cuts checked",
                f"{stats.cuts_checked} ({stats.cut_memo_hits} memo hits, "
                f"{stats.dags_deduped} DAGs skipped)",
            ),
            (
                "cut images materialized",
                f"{stats.cuts_imaged} "
                f"({100.0 * stats.imaging_ratio:.1f}% of checked)",
            ),
            (
                "violations",
                f"{len(self.distinct)} distinct "
                f"({stats.violation_occurrences} occurrences)",
            ),
        ]
        for condition in sorted(self.condition_counts):
            rows.append(
                (
                    f"breaks {condition}",
                    f"{self.condition_counts[condition]} distinct",
                )
            )
        width = max(len(label) for label, _ in rows)
        return [f"  {label.ljust(width)}  {value}" for label, value in rows]


def _record(
    result: CheckResult, violation: CheckViolation
) -> None:
    """Count an occurrence; keep the first of each distinct violation."""
    result.stats.violation_occurrences += 1
    key = violation.key()
    if key not in result.distinct:
        result.distinct[key] = violation
    if len(result.violations) < MAX_RECORDED_VIOLATIONS:
        result.violations.append(violation)


def _cuts_for(graph, max_cuts: int) -> List[int]:
    """Every consistent cut, or each persist's minimal cut over the limit.

    Oversized graphs fall back to one minimal cut per persist.  Cuts stay
    packed ints end-to-end: enumeration, content hashing and imaging all
    take bitmasks and never materialize frozensets.
    """
    try:
        return list(enumerate_cut_masks(graph, limit=max_cuts))
    except RecoveryError:
        return [minimal_cut_mask(graph, pid) for pid in range(len(graph.nodes))]


def check_runs(
    run: Callable[[Scheduler], object],
    trace_of: Callable[[object], object],
    base_of: Callable[[object], NvramImage],
    checker_of: Callable[[object], Callable[[NvramImage], None]],
    config: Optional[CheckConfig] = None,
    history_spec_of: Optional[Callable[[object], object]] = None,
) -> CheckResult:
    """Model-check an arbitrary program adapter.

    ``run(scheduler)`` executes the program once (or is a
    :class:`~repro.check.engine.CheckProgram`, unlocking prefix-sharing
    replay); ``trace_of`` / ``base_of`` / ``checker_of`` project the
    trace, base NVRAM image, and recovery checker out of its result.
    In shared-replay mode the result aliases the one retained machine,
    so each schedule is fully processed here before the next one runs —
    which the per-schedule loop below already guarantees.  This is the
    engine room under :func:`check_build` and :func:`check_target`.

    With a history oracle on the config, ``history_spec_of`` must
    project the run's :class:`~repro.histories.oracle.HistorySpec`; the
    program must have been built with operation recording on.  Oracle
    runs disable DAG and cut deduplication (their verdicts depend on
    cut membership and recorded history, not image bytes alone).  Any
    exception the checker raises counts as a violation.
    """
    config = config or CheckConfig()
    config.validate()
    engine = Engine(
        run,
        reduction=config.reduction,
        forced_prefix=config.forced_prefix,
        max_schedules=config.max_schedules,
        replay=config.replay,
    )
    result = CheckResult(stats=CheckStats())
    seen_dags: Dict[str, Set[str]] = {model: set() for model in config.models}
    analysis = PrefixSharedAnalysis(config.models, (config.graph_domain,))
    stop = False
    for explored in engine.explore():
        trace = trace_of(explored.result)
        graphs = analysis.advance(trace, explored.shared_events)
        base = base_of(explored.result)
        check = _any_error_violates(checker_of(explored.result))
        judge: Optional[CutJudge] = None
        memo: Dict[str, Optional[Verdict]] = {}
        for model in config.models:
            graph = graphs[model, config.graph_domain]
            result.stats.dags_analyzed += 1
            dag_key = canonical_dag_key(graph)
            if judge is None:
                # One judge per execution: persist ids are
                # model-independent, so the first model's graph
                # attributes operations for every model of this trace.
                history = None
                if (
                    history_spec_of is not None
                    and config.oracle != "invariant"
                ):
                    history = partial(
                        cut_checker,
                        trace,
                        graph,
                        history_spec_of(explored.result),
                        config.oracle,
                    )
                judge = CutJudge(
                    check, graph, base, history=history, oracle=config.oracle
                )
            if judge.image_only:
                if dag_key in seen_dags[model]:
                    result.stats.dags_deduped += 1
                    continue
                seen_dags[model].add(dag_key)
            for cut in _cuts_for(graph, config.max_cuts_per_graph):
                result.stats.cuts_checked += 1
                cut_key = cut_content_key(graph, cut)
                if judge.image_only and cut_key in memo:
                    result.stats.cut_memo_hits += 1
                    verdict = memo[cut_key]
                else:
                    image = image_at_cut(graph, cut, base, check=False)
                    result.stats.cuts_imaged += 1
                    verdict = judge.judge(cut, image).verdict
                    if judge.image_only:
                        memo[cut_key] = verdict
                if verdict is not None:
                    _record(
                        result,
                        CheckViolation(
                            schedule_index=explored.index,
                            model=model,
                            cut=tuple(cut_members(cut)),
                            error=verdict.error,
                            choices=explored.choices,
                            dag_key=dag_key,
                            cut_key=cut_key,
                            condition=verdict.condition,
                        ),
                    )
                    if config.stop_at_first:
                        stop = True
                        break
            if stop:
                break
        if stop:
            break
    _fold_engine_stats(result.stats, engine.stats)
    return result


def _any_error_violates(
    check: Callable[[NvramImage], None]
) -> Callable[[NvramImage], None]:
    """``check`` re-raising any exception as a same-message
    :class:`~repro.errors.RecoveryError`: adapters may signal a
    violation with any exception."""

    def adapted(image: NvramImage) -> None:
        try:
            check(image)
        except RecoveryError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            raise RecoveryError(str(exc)) from exc

    return adapted


def _fold_engine_stats(stats: CheckStats, engine_stats: EngineStats) -> None:
    """Copy engine counters into the check-level stats."""
    stats.schedules = engine_stats.schedules
    stats.executions = engine_stats.executions
    stats.sleep_blocked = engine_stats.sleep_blocked
    stats.engine = engine_stats.describe()


def check_build(
    build: Callable[[Scheduler], Machine],
    check: Callable[[NvramImage, Machine], None],
    config: Optional[CheckConfig] = None,
    base_image: Optional[Callable[[Machine], NvramImage]] = None,
) -> CheckResult:
    """Model-check a machine-factory program.

    ``build(scheduler)`` constructs the (not-yet-run) machine,
    ``check(image, machine)`` raises on a recovery violation, and
    ``base_image`` (when given) supplies pre-workload durable state.
    Exposed to the engine as a :class:`~repro.check.engine.CheckProgram`
    so prefix-sharing replay applies by default.  ``CheckConfig(
    reduction="none")`` checks every interleaving instead of one per
    equivalence class.
    """

    class _BuildProgram:
        def build(self, scheduler: Scheduler) -> Machine:
            return build(scheduler)

        def finish(self, machine: Machine):
            return machine.trace, machine

    run = _BuildProgram()

    def base_of(result) -> NvramImage:
        machine = result[1]
        if base_image is not None:
            return base_image(machine)
        region = machine.memory.region("persistent")
        return NvramImage.from_region(region, blank=True)

    def checker_of(result) -> Callable[[NvramImage], None]:
        machine = result[1]
        return lambda image: check(image, machine)

    return check_runs(
        run,
        trace_of=lambda result: result[0],
        base_of=base_of,
        checker_of=checker_of,
        config=config,
    )


def check_target(
    target: str,
    threads: int,
    ops: int,
    config: Optional[CheckConfig] = None,
) -> CheckResult:
    """Model-check a registered fuzz target at a fixed program size.

    Reuses the exact fuzz pipeline (``FuzzTarget.setup`` → machine +
    finalize → trace, base image, recovery checker), so a violation
    found here is replayable by ``repro fuzz replay`` once exported to
    a corpus.  The target's two-phase ``setup`` API runs as a
    :class:`~repro.check.engine.CheckProgram` (prefix-sharing replay).

    A history oracle on the config builds the program with operation
    recording on (recordable targets only — ``setup`` raises otherwise)
    and judges every cut by durable linearizability instead of the
    target's invariant.
    """
    from repro.fuzz.targets import make_target

    fuzz_target = make_target(target)
    config = config or CheckConfig()
    record = config.oracle != "invariant"

    class _TargetProgram:
        def __init__(self) -> None:
            self._finalize = None

        def build(self, scheduler: Scheduler) -> Machine:
            machine, finalize = fuzz_target.setup(
                threads, ops, scheduler, record_history=record
            )
            self._finalize = finalize
            return machine

        def finish(self, machine: Machine):
            return self._finalize(machine)

    return check_runs(
        _TargetProgram(),
        trace_of=lambda run: run.trace,
        base_of=lambda run: run.base_image,
        checker_of=lambda run: run.check,
        config=config,
        history_spec_of=lambda run: run.history_spec,
    )
