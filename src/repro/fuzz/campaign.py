"""Campaign engine: sample schedule × failure-cut configs and run them.

A campaign fuzzes one target: it samples ``budget`` case specs — each a
(scheduler kind, scheduler seed, thread count, program size, persistency
model, cut family, cut seed) tuple — runs every case through the target
pipeline (build → run under the seeded schedule → persist DAG → the
run's :class:`~repro.fuzz.judge.CutJudge` at each injected failure cut),
and aggregates per-case outcomes with event/persist/violation counters.

With a fault axis configured (``CampaignConfig.faults``), each case
additionally carries a serialized :class:`~repro.inject.plan.FaultPlan`
and the judge materializes every cut image *faulty*.  Outcomes then
count each injected-fault image as **masked**, **detected**,
**undetected** (an unhardened target's documented exposure), or — the
campaign-failing verdict — **silent corruption**: a hardened target
returned wrong state as good.  Genuine ordering violations (the clean
image fails too) stay ordinary violations regardless of faults.

Cases are independent.  The module owns the campaign's one job form:
:func:`plan_shards` batches the sampled cases into JSON-safe
``{"kind": "fuzz", "cases": [...]}`` shards, :func:`run_shard` executes
one, and :func:`fold_shards` folds shard payloads into a
:class:`CampaignResult`; :data:`FUZZ_JOB` registers them as the
``fuzz`` job kind.  :func:`run_campaign` (the batch executor, over
:func:`repro.harness.parallel.fan_out`) and ``repro serve`` (the daemon
executor) both run exactly these, and both resume through the same
:class:`~repro.harness.cache.ResultStore` entries.  Every case that
violates its recovery invariant carries the recorded schedule choices,
so the finding can be minimized and replayed deterministically.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.analysis import analyze_graph
from repro.core.model import MODEL_CHOICES, validate_models
from repro.core.recovery import FailureInjector
from repro.errors import FuzzError, ReproError
from repro.fuzz.judge import (
    ClassKey,
    CutJudge,
    CutVerdicts,
    Verdict,
    recorded_key,
    validate_axes,
)
from repro.fuzz.targets import TARGET_CHOICES, TargetRun, make_target
from repro.harness.cache import ResultStore
from repro.harness.parallel import JobKind, RetryPolicy, fan_out
from repro.harness.runner import SEED_SPACE
from repro.histories.oracle import ORACLES
from repro.inject.plan import FAULT_KINDS, FaultPlan
from repro.schema import (
    Option, decode_keys, encode, option, options, options_of
)
from repro.sim.scheduler import (
    SCHEDULER_KINDS,
    ChoiceRecordingScheduler,
    make_scheduler,
)

#: Failure-cut families a case can draw from.
CUT_FAMILIES = ("minimal", "extension", "sample", "prefix")

#: Family sampling weights: minimal cuts are the adversarial workhorse
#: (they deterministically expose missing-ordering bugs), so they get
#: the largest share of the budget.
_FAMILY_DECK = (
    "minimal", "minimal", "minimal",
    "extension", "extension",
    "sample", "sample",
    "prefix",
)

#: Cap on minimal/prefix images per case (step grows past this).
_MAX_SWEEP_CUTS = 256

#: Violations recorded in full per case (the count is always exact).
_MAX_RECORDED_VIOLATIONS = 3

#: Undetected-fault samples recorded per case (the count is exact).
_MAX_RECORDED_UNDETECTED = 3


@dataclass(frozen=True)
class CaseSpec:
    """One fully-determined fuzz case (JSON-safe, process-portable).

    ``faults`` is either None (clean run) or the canonical JSON string
    of a :class:`~repro.inject.plan.FaultPlan` — a string keeps the spec
    hashable and its content digest stable.

    ``oracle`` selects how each failure cut is judged: ``"invariant"``
    (the target's ad-hoc recovery check), ``"dl"`` (durable
    linearizability of the recorded operation history), or ``"bdl"``
    (its buffered relaxation).  History oracles build the program with
    operation recording on, so their traces — and hence schedules under
    a given seed — differ from invariant-mode runs by design.

    ``crash_recovery`` (depth, 0 = off) additionally runs the target's
    repair procedure on every judged cut image through the nested-crash
    harness (:mod:`repro.crashrec`), judging repair idempotence,
    convergence, and invariant/oracle preservation.
    """

    target: str = option()
    threads: int = option(type=int)
    ops: int = option(type=int)
    sched: str = option()
    sched_seed: int = option(type=int)
    model: str = option()
    cuts: str = option()
    cut_seed: int = option(type=int)
    cut_samples: int = option(32, type=int)
    faults: Optional[str] = option(None, optional=True)
    oracle: str = option("invariant")
    crash_recovery: int = option(0, type=int)

    def plan(self) -> Optional[FaultPlan]:
        """The spec's fault plan, decoded, or None for a clean case."""
        if self.faults is None:
            return None
        return FaultPlan.from_json(self.faults)

    def describe(self) -> Dict[str, object]:
        """JSON dict representation (wire format for workers/corpus)."""
        return encode(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CaseSpec":
        """Rebuild a spec from :meth:`describe` output.

        Fields with defaults (``cut_samples``, ``faults``, ``oracle``,
        ``crash_recovery``) may be absent — payloads written before the
        field existed still load.
        """
        return _decoded(cls, payload, "case spec")


@dataclass(frozen=True)
class CaseViolation:
    """One recorded violation at one failure cut.

    The fields mirror the :class:`~repro.fuzz.judge.Verdict` it records:
    ``silent`` marks silent corruption under fault injection,
    ``condition`` the history-oracle condition broken (None for
    invariant violations), and ``crash``/``crash_schedule`` the repair
    oracle and nested-crash cut sequence of a repair violation (None
    for ordinary violations).
    """

    cut: Tuple[int, ...] = option(type=int, many=True)
    error: str = option()
    silent: bool = option(False, type=bool)
    condition: Optional[str] = option(None, optional=True)
    crash: Optional[str] = option(None, optional=True)
    crash_schedule: Optional[Tuple[Tuple[int, ...], ...]] = option(
        None, type=int, many=2, optional=True
    )


@dataclass
class CaseOutcome:
    """Everything one executed case reports back to the campaign.

    :func:`~repro.schema.encode` gives its wire form (worker results and
    shard payloads), and :meth:`from_payload` reads it back.
    """

    spec: CaseSpec = option(type=CaseSpec)
    index: int = option(type=int)
    events: int = option(type=int)
    persists: int = option(type=int)
    cuts_checked: int = option(type=int)
    violation_count: int = option(type=int)
    violations: Tuple[CaseViolation, ...] = option(
        (), type=CaseViolation, many=True
    )
    #: Recorded schedule choices; carried only for violating cases.
    choices: Optional[Tuple[int, ...]] = option(
        None, type=int, many=True, optional=True
    )
    #: Cut images where at least one fault actually landed.
    fault_images: int = option(0, type=int)
    #: Total faults injected across the case's images.
    faults_injected: int = option(0, type=int)
    #: Faulted images whose recovery was indistinguishable from clean.
    fault_masked: int = option(0, type=int)
    #: Diagnoses quarantined by degrading recovery (detected faults).
    fault_detected: int = option(0, type=int)
    #: Faulted images an *unhardened* target mis-recovered (documented
    #: exposure, not a campaign failure; hardened targets count these
    #: as silent-corruption violations instead).
    fault_undetected: int = option(0, type=int)
    #: Exact count of silent-corruption violations (violations carrying
    #: ``silent=True``; the recorded list is capped, this is not).
    silent_violation_count: int = option(0, type=int)
    #: Sampled undetected-fault sightings (capped, count is exact).
    undetected: Tuple[CaseViolation, ...] = option(
        (), type=CaseViolation, many=True
    )
    #: Exact violation tally per broken condition ("dl", "dl+bdl");
    #: populated only by history oracles (the recorded list is capped,
    #: these counts are not).
    condition_counts: Dict[str, int] = option(
        default_factory=dict, type=int, keyed=True
    )
    #: Repair executions across the case's crash-recovery explorations.
    crash_repairs: int = option(0, type=int)
    #: Nested crash cuts of repair runs explored.
    crash_nested_cuts: int = option(0, type=int)
    #: Exact violation tally per crash-recovery oracle ("idempotence",
    #: "convergence", "preservation"); the recorded list is capped,
    #: these counts are not.
    crash_counts: Dict[str, int] = option(
        default_factory=dict, type=int, keyed=True
    )
    #: Set when the case itself failed to run (crashed worker cell);
    #: encoded only then.
    error: Optional[str] = option(None, optional=True, sparse=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CaseOutcome":
        """Rebuild an outcome from its encoding (keys added after the
        first wire format may be absent)."""
        return _decoded(cls, payload, "case outcome")


def _decoded(cls: type, payload: object, what: str):
    """``cls`` decoded from ``payload``; a malformed payload raises
    :class:`~repro.errors.FuzzError` naming the key."""
    if not isinstance(payload, dict):
        raise FuzzError(f"malformed {what}: not a JSON object: {payload!r}")
    try:
        return cls(**decode_keys(options(cls), payload))
    except ReproError as exc:
        raise FuzzError(f"malformed {what}: {exc}") from exc


@dataclass(frozen=True)
class Finding:
    """One violating case, pinned down for minimization and replay.

    ``condition`` carries the history-oracle classification of the
    finding's violation (None for invariant-mode findings); the
    minimizer re-validates it on the shrunk repro.  ``crash`` and
    ``crash_schedule`` carry the crash-during-recovery oracle and the
    nested-crash cut sequence for repair findings.
    """

    spec: CaseSpec
    cut: Tuple[int, ...]
    error: str
    choices: Tuple[int, ...]
    condition: Optional[str] = None
    crash: Optional[str] = None
    crash_schedule: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def class_key(self) -> ClassKey:
        """The verdict class the minimizer must keep reproducing."""
        return recorded_key(self.spec.faults, self.condition, self.crash)


@dataclass
class CaseExecution:
    """A case's program run, persist DAG and cut judge (parent-process
    form)."""

    spec: CaseSpec
    run: TargetRun
    graph: object
    choices: Tuple[int, ...]
    judge: CutJudge


def execute_spec(spec: CaseSpec) -> CaseExecution:
    """Build and run a case's program, recording its schedule.

    Returns the executed :class:`~repro.fuzz.targets.TargetRun`, the
    persist DAG under the spec's model, the recorded choices, and the
    run's :class:`~repro.fuzz.judge.CutJudge`.  History oracles build
    with operation recording on so the run carries the history spec the
    judge needs.

    Raises:
        FuzzError: when the spec's oracle, fault and crash axes may not
            be combined (see :func:`~repro.fuzz.judge.validate_axes`).
    """
    target = make_target(spec.target)
    recorder = ChoiceRecordingScheduler(
        make_scheduler(spec.sched, spec.sched_seed)
    )
    run = target.build(
        spec.threads,
        spec.ops,
        recorder,
        record_history=spec.oracle != "invariant",
    )
    # The bitset domain also gives the injector mask-based cut
    # enumeration; the frozenset domain ("graph") is the oracle.
    graph = analyze_graph(run.trace, spec.model, domain="bitset").graph
    judge = CutJudge.for_run(
        run,
        graph,
        spec.model,
        oracle=spec.oracle,
        plan=spec.plan(),
        crash_recovery=spec.crash_recovery or None,
        hardened=target.hardened,
    )
    return CaseExecution(
        spec=spec,
        run=run,
        graph=graph,
        choices=tuple(recorder.choices),
        judge=judge,
    )


def iter_case_images(spec: CaseSpec, injector: FailureInjector) -> Iterator:
    """Yield the (cut, image) pairs the spec's cut family prescribes."""
    if spec.cuts == "minimal":
        step = max(1, injector.persist_count // _MAX_SWEEP_CUTS)
        return injector.minimal_images(step=step)
    if spec.cuts == "prefix":
        step = max(1, injector.persist_count // _MAX_SWEEP_CUTS)
        return injector.prefix_images(step=step)
    if spec.cuts == "extension":
        return injector.extension_images(spec.cut_samples, seed=spec.cut_seed)
    if spec.cuts == "sample":
        return injector.random_images(spec.cut_samples, seed=spec.cut_seed)
    raise FuzzError(
        f"unknown cut family {spec.cuts!r}; expected one of {CUT_FAMILIES}"
    )


def run_case(
    spec: CaseSpec, index: int = 0, stop_at_first: bool = False
) -> CaseOutcome:
    """Execute one case end-to-end and judge every injected cut.

    Each cut goes to the run's :class:`~repro.fuzz.judge.CutJudge`;
    its verdicts are tallied into the outcome: violations (ordinary,
    condition-classified under a history oracle, or repair-oracle
    violations with ``spec.crash_recovery`` > 0) and silent corruption
    are recorded, undetected faults sampled, and detected/masked faults
    counted.

    ``stop_at_first`` stops scanning cuts at the first violation;
    campaigns scan the whole family so the violation count is
    meaningful.
    """
    execution = execute_spec(spec)
    injector = FailureInjector(execution.graph, execution.run.base_image)
    outcome = CaseOutcome(
        spec=spec,
        index=index,
        events=len(execution.run.trace),
        persists=injector.persist_count,
        cuts_checked=0,
        violation_count=0,
    )
    for cut, image in iter_case_images(spec, injector):
        outcome.cuts_checked += 1
        judged = execution.judge.judge(cut, image)
        if _tally(outcome, cut, judged, stop_at_first):
            break
    if outcome.violation_count:
        outcome.choices = execution.choices
    return outcome


def _tally(
    outcome: CaseOutcome,
    cut: Iterable[int],
    judged: CutVerdicts,
    stop_at_first: bool,
) -> bool:
    """Fold one cut's verdicts into ``outcome``; True to stop scanning.

    Repair-oracle violations come first; with ``stop_at_first`` they
    end the scan before the cut's own verdict is counted.
    """
    outcome.crash_repairs += judged.repairs
    outcome.crash_nested_cuts += judged.nested_cuts
    for verdict in judged.crash:
        _record(outcome, cut, verdict)
    if stop_at_first and judged.crash:
        return True
    if judged.faults:
        outcome.fault_images += 1
        outcome.faults_injected += judged.faults
    verdict = judged.verdict
    if verdict is None:
        return False
    if verdict.kind == "masked":
        outcome.fault_masked += 1
    elif verdict.kind == "detected":
        outcome.fault_detected += len(verdict.report.quarantined)
    elif verdict.kind == "undetected":
        outcome.fault_undetected += 1
        if len(outcome.undetected) < _MAX_RECORDED_UNDETECTED:
            outcome.undetected += (
                CaseViolation(cut=tuple(sorted(cut)), error=verdict.error),
            )
    else:
        _record(outcome, cut, verdict)
        return stop_at_first
    return False


def _record(
    outcome: CaseOutcome, cut: Iterable[int], verdict: Verdict
) -> None:
    """Count one violation exactly; keep the first few in full."""
    outcome.violation_count += 1
    if verdict.kind == "silent":
        outcome.silent_violation_count += 1
    if verdict.condition is not None:
        counts = outcome.condition_counts
        counts[verdict.condition] = counts.get(verdict.condition, 0) + 1
    if verdict.crash is not None:
        counts = outcome.crash_counts
        counts[verdict.crash] = counts.get(verdict.crash, 0) + 1
    if len(outcome.violations) < _MAX_RECORDED_VIOLATIONS:
        outcome.violations += (
            CaseViolation(
                cut=tuple(sorted(cut)),
                error=verdict.error,
                silent=verdict.kind == "silent",
                condition=verdict.condition,
                crash=verdict.crash,
                crash_schedule=verdict.schedule,
            ),
        )


def run_case_task(task: dict) -> dict:
    """Worker entry point: run one case from a JSON-safe task dict.

    ``task`` is one element of :func:`case_tasks` output; the result is
    an encoded :class:`CaseOutcome` (see :meth:`CaseOutcome.from_payload`).
    Module-level so it crosses the process boundary of the
    :class:`~repro.harness.parallel.TaskPool` under both
    :func:`~repro.harness.parallel.fan_out` and ``repro serve``.
    """
    spec = CaseSpec.from_payload(task["spec"])
    return encode(run_case(spec, index=task["index"]))


def case_tasks(config: CampaignConfig) -> List[dict]:
    """The campaign's JSON-safe worker tasks, one per sampled case.

    :func:`plan_shards` batches these into shards, so every executor
    runs the exact cases, in the exact sampling order, of the config.
    """
    return [
        {"index": index, "spec": spec.describe()}
        for index, spec in enumerate(sample_specs(config))
    ]


@dataclass
class CampaignConfig:
    """Parameters of one fuzzing campaign.

    ``faults`` lists the fault kinds (:data:`~repro.inject.plan.FAULT_KINDS`)
    the campaign injects; empty means a clean (ordering-only) campaign.
    ``oracle`` selects the per-cut judge (``"invariant"``, ``"dl"``,
    ``"bdl"``); history oracles require a recordable target and compose
    with neither fault injection (faults break the invariant, not a
    linearizability condition).  ``jobs``, ``task_timeout`` and
    ``task_retries`` shape *how* the campaign executes, never what it
    computes, so they are excluded from :meth:`describe` and from the
    planned shards (and therefore from result-store keys).
    """

    target: str = option(choices=TARGET_CHOICES, noun="fuzz target")
    budget: int = option(200, type=int, help="cases to sample and run")
    models: Sequence[str] = option(
        ("epoch", "strand"), many=True, choices=MODEL_CHOICES,
        noun="persistency model",
        help="persistency models to sample (default: epoch strand)",
    )
    schedulers: Sequence[str] = option(
        SCHEDULER_KINDS, many=True, choices=SCHEDULER_KINDS,
        noun="scheduler kind", help="scheduler kinds to sample (default: all)",
    )
    seed: int = option(0, type=int)
    jobs: Optional[int] = option(
        None, type=int, optional=True, key=None, cli={"default": 1},
        help="worker processes for the campaign (1 = serial)",
    )
    cut_samples: int = option(32, type=int)
    faults: Sequence[str] = option(
        (), many=True, choices=FAULT_KINDS, noun="fault kind",
        help="inject device faults of these kinds into every cut image "
        "(before repair runs, under crash recovery)",
    )
    oracle: str = option(
        "invariant", choices=ORACLES, noun="oracle",
        help="per-cut judge (and repair preservation baseline): the "
        "target's recovery invariant, durable linearizability (dl), or "
        "buffered durable linearizability (bdl); dl/bdl record "
        "operation histories and classify each violation by the "
        "strongest condition it breaks",
    )
    crash_recovery: int = option(
        0, type=int, cli={"metavar": "DEPTH"},
        help="crash the target's repair procedure at cuts of its own "
        "persist DAG up to DEPTH levels deep and judge idempotence, "
        "convergence, and preservation (0 = off; requires a repairable "
        "target)",
    )
    task_timeout: Optional[float] = option(
        None, type=float, optional=True, key=None,
        help="per-case wall-clock timeout in seconds (pool mode only)",
    )
    task_retries: int = option(
        0, type=int, key=None,
        help="retries before a case is recorded as failed",
    )

    def validate(self) -> None:
        """Raise on unusable parameters."""
        target = make_target(self.target)
        RetryPolicy(self.task_retries, timeout=self.task_timeout)
        if self.budget <= 0:
            raise FuzzError(f"budget must be positive, got {self.budget}")
        validate_models(self.models, FuzzError)
        if not self.schedulers:
            raise FuzzError("at least one scheduler kind is required")
        for kind in self.schedulers:
            make_scheduler(kind)
        for kind in self.faults:
            if kind not in FAULT_KINDS:
                raise FuzzError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )
        validate_axes(
            self.oracle,
            recordable=target.recordable,
            repairable=target.repairable,
            faults=bool(self.faults),
            crash_recovery=self.crash_recovery or None,
            target=self.target,
        )

    def describe(self) -> Dict[str, object]:
        """JSON dict of everything that determines sampled outcomes.

        Execution-shape knobs (``jobs``, ``task_timeout``,
        ``task_retries``) carry no spec key, so they are absent: this
        dict is also a valid ``repro serve`` fuzz job spec, and results
        stored by a serial run must resume a parallel one and vice versa.
        """
        return encode(self)


def _total(name: str, doc: str, per_key: bool = False) -> property:
    """A campaign total: every outcome's ``name`` counter summed, key by
    key for ``per_key`` tallies."""

    def total(self: "CampaignResult"):
        values = [getattr(outcome, name) for outcome in self.outcomes]
        if not per_key:
            return sum(values)
        return dict(sum(map(Counter, values), Counter()))

    return property(total, doc=doc)


@dataclass
class CampaignResult:
    """Aggregated outcomes of one campaign."""

    config: CampaignConfig
    outcomes: List[CaseOutcome]

    @property
    def cases(self) -> int:
        """Cases executed."""
        return len(self.outcomes)

    @property
    def violating_cases(self) -> int:
        """Cases with at least one recovery violation."""
        return sum(1 for outcome in self.outcomes if outcome.violation_count)

    violations = _total(
        "violation_count", "Total (cut, invariant) violations in all cases."
    )
    cuts_checked = _total(
        "cuts_checked", "Total failure cuts materialised and checked."
    )
    fault_images = _total(
        "fault_images", "Cut images where at least one fault actually landed."
    )
    faults_injected = _total(
        "faults_injected", "Total faults injected across the campaign."
    )
    fault_masked = _total(
        "fault_masked", "Faulted images recovery shrugged off."
    )
    fault_detected = _total(
        "fault_detected", "Diagnoses quarantined by degrading recovery."
    )
    fault_undetected = _total(
        "fault_undetected",
        "Mis-recoveries on unhardened targets (documented exposure).",
    )
    silent_corruptions = _total(
        "silent_violation_count",
        "Silent-corruption violations — the fault campaign's failure "
        "verdict: a hardened target returned wrong state as good.",
    )
    condition_counts = _total(
        "condition_counts",
        'Total violations per broken condition ("dl", "dl+bdl"); empty for '
        "invariant-oracle campaigns, which carry no condition semantics.",
        per_key=True,
    )
    crash_repairs = _total(
        "crash_repairs", "Repair executions across all crash explorations."
    )
    crash_nested_cuts = _total(
        "crash_nested_cuts", "Nested crash cuts of repair runs explored."
    )
    crash_counts = _total(
        "crash_counts",
        "Total violations per crash-recovery oracle; empty unless the "
        "campaign ran with ``crash_recovery`` > 0.",
        per_key=True,
    )

    @property
    def crash_violations(self) -> int:
        """Total crash-during-recovery oracle violations."""
        return sum(self.crash_counts.values())

    @property
    def failed_cases(self) -> int:
        """Cases that crashed instead of completing (error outcomes)."""
        return sum(1 for outcome in self.outcomes if outcome.error)

    @property
    def findings(self) -> List[Finding]:
        """One finding per violating case (its first recorded violation).

        A genuine ordering violation reproduces without faults (the
        clean image fails too), so its spec is stripped of the fault
        plan — the minimizer and corpus then work on the clean case.  A
        silent-corruption finding keeps the plan: the faults *are* the
        counterexample.  Crash-during-recovery findings keep it too —
        the repair that broke was repairing the faulty image.
        """
        found = []
        for outcome in self.outcomes:
            if outcome.violation_count and outcome.violations:
                violation = outcome.violations[0]
                spec = outcome.spec
                if (
                    not violation.silent
                    and violation.crash is None
                    and spec.faults is not None
                ):
                    spec = replace(spec, faults=None)
                found.append(
                    Finding(
                        spec=spec,
                        cut=violation.cut,
                        error=violation.error,
                        choices=outcome.choices or (),
                        condition=violation.condition,
                        crash=violation.crash,
                        crash_schedule=violation.crash_schedule,
                    )
                )
        return found

    def summary(self) -> str:
        """Multi-line human-readable campaign report."""
        events = sum(outcome.events for outcome in self.outcomes)
        oracle = self.config.oracle
        lines = [
            f"fuzz campaign: target={self.config.target} "
            f"budget={self.config.budget} "
            f"models={','.join(self.config.models)}"
            + (f" oracle={oracle}" if oracle != "invariant" else ""),
            (
                f"  {self.cases} case(s), {events} events, "
                f"{self.cuts_checked} cut(s) checked"
            ),
            (
                f"  {self.violations} violation(s) "
                f"across {self.violating_cases} case(s)"
            ),
        ]
        by_model: Dict[str, int] = {}
        for outcome in self.outcomes:
            by_model[outcome.spec.model] = (
                by_model.get(outcome.spec.model, 0) + outcome.violation_count
            )
        for model in sorted(by_model):
            lines.append(f"    {model}: {by_model[model]} violation(s)")
        for condition in sorted(self.condition_counts):
            lines.append(
                f"    breaks {condition}: "
                f"{self.condition_counts[condition]} violation(s)"
            )
        if self.config.crash_recovery:
            lines.append(
                f"  crash-recovery depth={self.config.crash_recovery}: "
                f"{self.crash_violations} repair violation(s) — "
                f"{self.crash_repairs} repair(s), "
                f"{self.crash_nested_cuts} nested cut(s)"
            )
            crash_counts = self.crash_counts
            for oracle in sorted(crash_counts):
                lines.append(
                    f"    breaks {oracle}: {crash_counts[oracle]} "
                    f"violation(s)"
                )
        if self.config.faults or self.fault_images:
            lines.append(
                f"  faults: {self.faults_injected} injected across "
                f"{self.fault_images} image(s) — "
                f"{self.fault_masked} masked, "
                f"{self.fault_detected} detected, "
                f"{self.fault_undetected} undetected"
            )
            lines.append(
                f"  {self.silent_corruptions} silent corruption(s)"
            )
        if self.failed_cases:
            lines.append(f"  {self.failed_cases} case(s) failed to run")
        return "\n".join(lines)


def sample_specs(config: CampaignConfig) -> List[CaseSpec]:
    """Deterministically sample the campaign's ``budget`` case specs.

    With a fault axis configured, each spec additionally draws one fault
    kind and one plan seed; a clean campaign draws exactly the sequence
    it always did (``faults=()`` reproduces pre-fault sampling bit for
    bit).
    """
    config.validate()
    target = make_target(config.target)
    kinds = list(config.faults)
    rng = random.Random(config.seed)
    # Fault plans draw from their own stream so enabling the fault axis
    # never perturbs which schedules/cuts a given seed explores.
    fault_rng = random.Random(config.seed ^ 0x5CA1AB1E)
    specs = []
    for _ in range(config.budget):
        spec = CaseSpec(
            target=config.target,
            threads=rng.randint(*target.thread_range),
            ops=rng.randint(*target.ops_range),
            sched=rng.choice(list(config.schedulers)),
            sched_seed=rng.randrange(SEED_SPACE),
            model=rng.choice(list(config.models)),
            cuts=rng.choice(
                [f for f in _FAMILY_DECK if f in CUT_FAMILIES]
            ),
            cut_seed=rng.randrange(SEED_SPACE),
            cut_samples=config.cut_samples,
            oracle=config.oracle,
            crash_recovery=config.crash_recovery,
        )
        if kinds:
            plan = FaultPlan.for_kind(
                fault_rng.choice(kinds), seed=fault_rng.randrange(SEED_SPACE)
            )
            spec = replace(spec, faults=plan.to_json())
        specs.append(spec)
    return specs


def _check_batch(batch: int) -> None:
    """Raise :class:`FuzzError` unless ``batch`` is a usable shard size."""
    if batch < 1:
        raise FuzzError(f"fuzz shard batch must be at least 1, got {batch}")


def plan_shards(config: CampaignConfig, batch: int = 1) -> List[dict]:
    """The campaign's shard tasks: :func:`case_tasks` in runs of ``batch``.

    Every executor plans with this, so a shard's task dict — and hence
    its :func:`~repro.harness.cache.shard_key` — is the same whichever
    executor computed it.

    Raises:
        FuzzError: when ``batch`` is below 1.
    """
    _check_batch(batch)
    cases = case_tasks(config)
    return [
        {"kind": "fuzz", "cases": cases[start : start + batch]}
        for start in range(0, len(cases), batch)
    ]


def run_shard(task: dict) -> dict:
    """Worker entry point: run one shard's cases in order.

    Returns the shard payload ``{"kind", "indices", "outcomes"}`` with
    encoded outcomes (see :meth:`CaseOutcome.from_payload`).
    """
    return {
        "kind": "fuzz",
        "indices": [case["index"] for case in task["cases"]],
        "outcomes": [run_case_task(case) for case in task["cases"]],
    }


def _failed_shard(task: dict, error: str) -> dict:
    """The payload reporting every case of a crashed shard as failed."""
    return {
        "kind": "fuzz",
        "indices": [case["index"] for case in task["cases"]],
        "outcomes": [
            encode(
                CaseOutcome(
                    spec=CaseSpec.from_payload(case["spec"]),
                    index=case["index"],
                    events=0,
                    persists=0,
                    cuts_checked=0,
                    violation_count=0,
                    error=error,
                )
            )
            for case in task["cases"]
        ],
    }


def decode_shard(payload: dict) -> List[CaseOutcome]:
    """The outcomes of one shard payload.

    Raises:
        FuzzError: when the payload or an outcome is malformed, naming
            the key.
    """
    wires = payload.get("outcomes")
    if not isinstance(wires, list):
        raise FuzzError(f"malformed fuzz shard: no outcome list: {wires!r}")
    return [CaseOutcome.from_payload(wire) for wire in wires]


def fold_shards(
    config: CampaignConfig, payloads: Iterable[dict]
) -> CampaignResult:
    """Fold shard payloads, in any order, into the campaign's result.

    Raises:
        FuzzError: when an outcome is malformed, naming the key.
    """
    outcomes = [
        outcome for payload in payloads for outcome in decode_shard(payload)
    ]
    outcomes.sort(key=lambda outcome: outcome.index)
    return CampaignResult(config=config, outcomes=outcomes)


def run_campaign(
    config: CampaignConfig, store: Optional[ResultStore] = None
) -> CampaignResult:
    """Run one campaign, fanning its shards out over worker processes.

    Results are deterministic for a fixed config: cases are seeded from
    ``config.seed`` and outcomes are folded in sampling order, so serial
    and parallel runs report identically.

    With a ``store``, shards already in it are not re-run and every
    fresh shard is stored as soon as it completes, so an interrupted
    campaign resumes to the byte-identical summary of a straight run.
    A stored shard whose outcomes do not decode is quarantined and its
    case re-run.  A daemon sharing the store serves these shards as
    hits, and vice versa.  Shards that crash (see
    ``CampaignConfig.task_retries``) are reported as error outcomes but
    never stored, so they retry next run.
    """
    payloads: List[dict] = []
    hits = fan_out(
        run_shard,
        plan_shards(config),
        config.jobs,
        payloads.append,
        store=store,
        check=decode_shard,
        timeout=config.task_timeout,
        retries=config.task_retries,
        on_failure=lambda task, error: payloads.append(
            _failed_shard(task, error)
        ),
    )
    return fold_shards(config, [*hits.values(), *payloads])


def _fold_fuzz(
    config: CampaignConfig, job: Dict[str, object], payloads: Sequence[dict]
) -> Dict[str, object]:
    result = fold_shards(config, payloads)
    return {
        "violations": result.violations,
        "cases": result.cases,
        "violating_cases": result.violating_cases,
        "cuts_checked": result.cuts_checked,
        "silent_corruptions": result.silent_corruptions,
        "crash_violations": result.crash_violations,
        "text": result.summary(),
    }


#: A fuzz (or crash-recovery) campaign as a job: :func:`plan_shards` in
#: runs of the job's ``batch``, folded by :func:`fold_shards`.
FUZZ_JOB = JobKind(
    name="fuzz",
    config=CampaignConfig,
    keys=options_of(batch=Option(int, default=1)),
    plan=lambda config, job: plan_shards(config, job["batch"]),
    worker=run_shard,
    fold=_fold_fuzz,
    validate=lambda config, job: _check_batch(job["batch"]),
    check=decode_shard,
)
