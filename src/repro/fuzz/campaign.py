"""Campaign engine: sample schedule × failure-cut configs and run them.

A campaign fuzzes one target: it samples ``budget`` case specs — each a
(scheduler kind, scheduler seed, thread count, program size, persistency
model, cut family, cut seed) tuple — runs every case through the target
pipeline (build → run under the seeded schedule → persist DAG → recovery
check at each injected failure cut), and aggregates per-case outcomes
with event/persist/violation counters.

With a fault axis configured (``CampaignConfig.faults``), each case
additionally carries a serialized :class:`~repro.inject.plan.FaultPlan`
and every cut image is materialized *faulty* through
:func:`repro.inject.engine.materialize_faulty`.  Outcomes then classify
each injected-fault image as **masked** (recovery unaffected),
**detected** (quarantined with a diagnosis), **undetected** (an
unhardened target's documented exposure), or — the campaign-failing
verdict — **silent corruption**: a hardened target returned wrong state
as good.  Genuine ordering violations (the clean image fails too) stay
ordinary violations regardless of faults.

Cases are independent.  The module owns the campaign's one job form:
:func:`plan_shards` batches the sampled cases into JSON-safe
``{"kind": "fuzz", "cases": [...]}`` shards, :func:`run_shard` executes
one, and :func:`fold_shards` folds shard payloads into a
:class:`CampaignResult`.  :func:`run_campaign` (the batch executor,
over :func:`repro.harness.parallel.fan_out`) and ``repro serve`` (the
daemon executor) both run exactly these, and both resume through the
same :class:`~repro.harness.cache.ResultStore` entries.  Every case that
violates its recovery invariant carries the recorded schedule choices,
so the finding can be minimized and replayed deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.analysis import analyze_graph
from repro.core.recovery import FailureInjector
from repro.crashrec import CrashRecReport, crash_recovery_check
from repro.errors import FuzzError, RecoveryError
from repro.fuzz.targets import TargetRun, make_target
from repro.histories.oracle import cut_checker, validate_oracle
from repro.harness.cache import ResultStore
from repro.harness.parallel import fan_out
from repro.harness.runner import SEED_SPACE
from repro.inject.engine import materialize_faulty
from repro.inject.plan import FAULT_KINDS, FaultPlan
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

    target: str
    threads: int
    ops: int
    sched: str
    sched_seed: int
    model: str
    cuts: str
    cut_seed: int
    cut_samples: int = 32
    faults: Optional[str] = None
    oracle: str = "invariant"
    crash_recovery: int = 0

    def plan(self) -> Optional[FaultPlan]:
        """The spec's fault plan, decoded, or None for a clean case."""
        if self.faults is None:
            return None
        return FaultPlan.from_json(self.faults)

    def describe(self) -> Dict[str, object]:
        """JSON dict representation (wire format for workers/corpus)."""
        return {
            "target": self.target,
            "threads": self.threads,
            "ops": self.ops,
            "sched": self.sched,
            "sched_seed": self.sched_seed,
            "model": self.model,
            "cuts": self.cuts,
            "cut_seed": self.cut_seed,
            "cut_samples": self.cut_samples,
            "faults": self.faults,
            "oracle": self.oracle,
            "crash_recovery": self.crash_recovery,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CaseSpec":
        """Rebuild a spec from :meth:`describe` output.

        Fields with defaults (``cut_samples``, ``faults``, ``oracle``,
        ``crash_recovery``) may be absent — payloads written before the
        field existed still load.
        """
        try:
            return cls(
                **{
                    key: payload[key]
                    for key in cls.__dataclass_fields__
                    if key in payload
                }
            )
        except (KeyError, TypeError) as exc:
            raise FuzzError(f"malformed case spec: {exc}") from exc


@dataclass(frozen=True)
class CaseViolation:
    """One recovery-invariant violation at one failure cut.

    ``silent`` marks the fault-injection verdict "silent corruption": a
    hardened target's degrading recovery returned state its ground truth
    refutes, while the clean image at the same cut recovers fine — the
    injected fault, not the ordering model, produced wrong state that
    went undetected.

    ``condition`` names the correctness condition the cut broke under a
    history oracle (``"dl"`` — durable linearizability only, or
    ``"dl+bdl"`` — its buffered relaxation too); None for invariant-mode
    violations, which carry no condition semantics.

    ``crash`` names the crash-during-recovery oracle the cut's repair
    broke (``"idempotence"``, ``"convergence"``, ``"preservation"``) and
    ``crash_schedule`` the nested-crash cut sequence that exposed it;
    both are None for ordinary (non-repair) violations.
    """

    cut: Tuple[int, ...]
    error: str
    silent: bool = False
    condition: Optional[str] = None
    crash: Optional[str] = None
    crash_schedule: Optional[Tuple[Tuple[int, ...], ...]] = None


@dataclass
class CaseOutcome:
    """Everything one executed case reports back to the campaign."""

    spec: CaseSpec
    index: int
    events: int
    persists: int
    cuts_checked: int
    violation_count: int
    violations: List[CaseViolation] = field(default_factory=list)
    #: Recorded schedule choices; carried only for violating cases.
    choices: Optional[Tuple[int, ...]] = None
    #: Cut images where at least one fault actually landed.
    fault_images: int = 0
    #: Total faults injected across the case's images.
    faults_injected: int = 0
    #: Faulted images whose recovery was indistinguishable from clean.
    fault_masked: int = 0
    #: Diagnoses quarantined by degrading recovery (detected faults).
    fault_detected: int = 0
    #: Faulted images an *unhardened* target mis-recovered (documented
    #: exposure, not a campaign failure; hardened targets count these
    #: as silent-corruption violations instead).
    fault_undetected: int = 0
    #: Exact count of silent-corruption violations (violations carrying
    #: ``silent=True``; the recorded list is capped, this is not).
    silent_violation_count: int = 0
    #: Sampled undetected-fault sightings (capped, count is exact).
    undetected: List[CaseViolation] = field(default_factory=list)
    #: Exact violation tally per broken condition ("dl", "dl+bdl");
    #: populated only by history oracles (the recorded list is capped,
    #: these counts are not).
    condition_counts: Dict[str, int] = field(default_factory=dict)
    #: Repair executions across the case's crash-recovery explorations.
    crash_repairs: int = 0
    #: Nested crash cuts of repair runs explored.
    crash_nested_cuts: int = 0
    #: Exact violation tally per crash-recovery oracle ("idempotence",
    #: "convergence", "preservation"); the recorded list is capped,
    #: these counts are not.
    crash_counts: Dict[str, int] = field(default_factory=dict)
    #: Set when the case itself failed to run (crashed worker cell).
    error: Optional[str] = None


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


@dataclass
class CaseExecution:
    """A case's program run and persist DAG (parent-process form)."""

    spec: CaseSpec
    run: TargetRun
    graph: object
    choices: Tuple[int, ...]
    #: Lazily-built history-oracle cut checker (see
    #: :func:`oracle_checker_for`); always None for invariant specs.
    oracle_check: Optional[object] = None


def oracle_checker_for(execution: CaseExecution):
    """The execution's history-oracle cut checker, built once per run.

    Returns None for invariant-oracle specs.  History extraction scans
    the whole trace, so the checker is cached on the execution — the
    minimizer probes hundreds of cuts of the same run.
    """
    if execution.spec.oracle == "invariant":
        return None
    if execution.oracle_check is None:
        execution.oracle_check = cut_checker(
            execution.run.trace,
            execution.graph,
            execution.run.history_spec,
            execution.spec.oracle,
        )
    return execution.oracle_check


def crashrec_check_for(
    execution: CaseExecution, cut, image
) -> CrashRecReport:
    """Judge one cut image's repair through the nested-crash harness.

    Shared by :func:`run_case` and the minimizer so both judge a cut
    identically: the structure invariant backs the preservation oracle
    (and, for history-oracle specs, the cut's DL/BDL verdict does too),
    with the harness's baseline guard skipping preservation when the
    un-repaired image already fails.
    """
    spec = execution.spec

    def invariant(img) -> Optional[str]:
        try:
            execution.run.check(img)
        except RecoveryError as exc:
            return str(exc)
        return None

    adapted = None
    oracle_check = oracle_checker_for(execution)
    if oracle_check is not None:

        def adapted(img, _cut=cut) -> Optional[str]:
            failure = oracle_check(_cut, img)
            return failure[0] if failure is not None else None

    return crash_recovery_check(
        execution.run.repair,
        image,
        spec.model,
        depth=spec.crash_recovery,
        check=invariant,
        oracle_check=adapted,
    )


def execute_spec(spec: CaseSpec) -> CaseExecution:
    """Build and run a case's program, recording its schedule.

    Returns the executed :class:`~repro.fuzz.targets.TargetRun`, the
    persist DAG under the spec's model, and the recorded choices.
    History oracles build with operation recording on so the run carries
    the history spec the checker needs.
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
    return CaseExecution(
        spec=spec, run=run, graph=graph, choices=tuple(recorder.choices)
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
    """Execute one case end-to-end and check every injected cut.

    ``stop_at_first`` stops scanning cuts at the first violation (the
    minimizer's reproduce-check); campaigns scan the whole family so the
    violation count is meaningful.

    With a fault plan on the spec, every cut image is additionally
    materialized faulty and each faulted image is classified:

    * **masked** — recovery (and its ground-truth check) succeeds as if
      the faults never happened;
    * **detected** — degrading recovery quarantines diagnoses but what
      it *returns* as good state checks out;
    * **genuine violation** — the *clean* image at the same cut also
      fails its plain check: the ordering model, not the fault, is at
      fault, and the case reports an ordinary violation;
    * **silent corruption** (hardened targets) / **undetected**
      (unhardened) — recovery returned wrong state as good and only the
      clean-image recheck reveals it.  Silent corruption is recorded as
      a ``silent=True`` violation — the fault campaign's failure
      verdict; undetected faults are counted as the unhardened target's
      documented exposure.

    Under a history oracle (``spec.oracle`` of ``"dl"`` or ``"bdl"``)
    every cut is judged by the recorded operation history instead of the
    target's ad-hoc invariant, and each violation carries the strongest
    condition it breaks.  Fault injection composes with the recovery
    *invariant*, not with history conditions, so a fault plan on a
    history-oracle spec is rejected.

    With ``spec.crash_recovery`` > 0 every judged cut image (the faulty
    one when the plan's faults landed — repair must cope with device
    damage too) additionally goes through the crash-during-recovery
    harness; repair-oracle failures are recorded as violations carrying
    their crash oracle and nested-crash schedule.
    """
    validate_oracle(spec.oracle)
    execution = execute_spec(spec)
    target = make_target(spec.target)
    if spec.crash_recovery and not target.repairable:
        raise FuzzError(
            f"target {spec.target!r} has no repair procedure (required "
            f"by crash-recovery mode)"
        )
    plan = spec.plan()
    if plan is not None and spec.oracle != "invariant":
        raise FuzzError(
            "fault injection and history oracles are mutually exclusive: "
            f"case has oracle {spec.oracle!r} and a fault plan"
        )
    oracle_check = oracle_checker_for(execution)
    injector = FailureInjector(execution.graph, execution.run.base_image)
    cuts_checked = 0
    violation_count = 0
    violations: List[CaseViolation] = []
    fault_images = 0
    faults_injected = 0
    fault_masked = 0
    fault_detected = 0
    fault_undetected = 0
    silent_violation_count = 0
    undetected: List[CaseViolation] = []
    condition_counts: Dict[str, int] = {}
    crash_repairs = 0
    crash_nested_cuts = 0
    crash_counts: Dict[str, int] = {}

    def clean_image_violates(image) -> Optional[str]:
        """The plain check's error on the clean cut image, if any."""
        try:
            execution.run.check(image)
        except RecoveryError as exc:
            return str(exc)
        return None

    def record_violation(
        cut,
        error: str,
        silent: bool,
        condition: Optional[str] = None,
        crash: Optional[str] = None,
        crash_schedule=None,
    ) -> None:
        nonlocal violation_count, silent_violation_count
        violation_count += 1
        if silent:
            silent_violation_count += 1
        if condition is not None:
            condition_counts[condition] = (
                condition_counts.get(condition, 0) + 1
            )
        if crash is not None:
            crash_counts[crash] = crash_counts.get(crash, 0) + 1
        if len(violations) < _MAX_RECORDED_VIOLATIONS:
            violations.append(
                CaseViolation(
                    cut=tuple(sorted(cut)),
                    error=error,
                    silent=silent,
                    condition=condition,
                    crash=crash,
                    crash_schedule=crash_schedule,
                )
            )

    def judge_crashrec(cut, image) -> bool:
        """Nested-crash repair oracles on one cut image; True on failure."""
        nonlocal crash_repairs, crash_nested_cuts
        report = crashrec_check_for(execution, cut, image)
        crash_repairs += report.repairs
        crash_nested_cuts += report.nested_cuts
        for crash_violation in report.violations:
            record_violation(
                cut,
                crash_violation.error,
                silent=False,
                crash=crash_violation.oracle,
                crash_schedule=crash_violation.schedule,
            )
        return bool(report.violations)

    crashrec = spec.crash_recovery > 0 and execution.run.repair is not None

    for cut, image in iter_case_images(spec, injector):
        cuts_checked += 1
        faults = []
        faulty = None
        if plan is not None:
            faulty, faults = materialize_faulty(
                execution.graph, cut, execution.run.base_image, plan
            )
        if crashrec:
            crashed = judge_crashrec(cut, faulty if faults else image)
            if crashed and stop_at_first:
                break
        if oracle_check is not None:
            failure = oracle_check(cut, image)
            if failure is not None:
                error, condition = failure
                record_violation(
                    cut, error, silent=False, condition=condition
                )
                if stop_at_first:
                    break
            continue
        if not faults:
            # Clean path: no plan, or the plan's dice injected nothing
            # (the faulty image is then byte-identical to the clean one).
            error = clean_image_violates(image)
            if error is not None:
                record_violation(cut, error, silent=False)
                if stop_at_first:
                    break
            continue

        fault_images += 1
        faults_injected += len(faults)
        checker = execution.run.check_report or execution.run.check
        try:
            report = checker(faulty)
        except RecoveryError as exc:
            # Recovery produced state the ground truth refutes.  Blame
            # attribution: if the clean image at this cut also violates,
            # the ordering model is broken regardless of faults.
            clean_error = clean_image_violates(image)
            if clean_error is not None:
                record_violation(cut, clean_error, silent=False)
                if stop_at_first:
                    break
            elif target.hardened:
                record_violation(cut, str(exc), silent=True)
                if stop_at_first:
                    break
            else:
                fault_undetected += 1
                if len(undetected) < _MAX_RECORDED_UNDETECTED:
                    undetected.append(
                        CaseViolation(cut=tuple(sorted(cut)), error=str(exc))
                    )
            continue
        if execution.run.check_report is not None and report.quarantined:
            fault_detected += len(report.quarantined)
        else:
            fault_masked += 1

    return CaseOutcome(
        spec=spec,
        index=index,
        events=len(execution.run.trace),
        persists=injector.persist_count,
        cuts_checked=cuts_checked,
        violation_count=violation_count,
        violations=violations,
        choices=execution.choices if violation_count else None,
        fault_images=fault_images,
        faults_injected=faults_injected,
        fault_masked=fault_masked,
        fault_detected=fault_detected,
        fault_undetected=fault_undetected,
        silent_violation_count=silent_violation_count,
        undetected=undetected,
        condition_counts=condition_counts,
        crash_repairs=crash_repairs,
        crash_nested_cuts=crash_nested_cuts,
        crash_counts=crash_counts,
    )


def _schedule_to_wire(schedule) -> Optional[List[List[int]]]:
    """JSON-safe encoding of a nested-crash schedule."""
    if schedule is None:
        return None
    return [list(level) for level in schedule]


def _schedule_from_wire(entry) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Rebuild a nested-crash schedule from its wire encoding."""
    if entry is None:
        return None
    return tuple(tuple(level) for level in entry)


def _violations_to_wire(violations: List[CaseViolation]) -> List[dict]:
    """JSON-safe encoding of recorded violations."""
    return [
        {
            "cut": list(violation.cut),
            "error": violation.error,
            "silent": violation.silent,
            "condition": violation.condition,
            "crash": violation.crash,
            "crash_schedule": _schedule_to_wire(violation.crash_schedule),
        }
        for violation in violations
    ]


def _violations_from_wire(entries: List[dict]) -> List[CaseViolation]:
    """Rebuild recorded violations from their wire encoding."""
    return [
        CaseViolation(
            cut=tuple(entry["cut"]),
            error=entry["error"],
            silent=entry.get("silent", False),
            condition=entry.get("condition"),
            crash=entry.get("crash"),
            crash_schedule=_schedule_from_wire(entry.get("crash_schedule")),
        )
        for entry in entries
    ]


def outcome_to_wire(outcome: CaseOutcome) -> dict:
    """JSON-safe encoding of one outcome (worker results and shard
    payloads)."""
    return {
        "spec": outcome.spec.describe(),
        "index": outcome.index,
        "events": outcome.events,
        "persists": outcome.persists,
        "cuts_checked": outcome.cuts_checked,
        "violation_count": outcome.violation_count,
        "violations": _violations_to_wire(outcome.violations),
        "choices": list(outcome.choices) if outcome.choices else None,
        "fault_images": outcome.fault_images,
        "faults_injected": outcome.faults_injected,
        "fault_masked": outcome.fault_masked,
        "fault_detected": outcome.fault_detected,
        "fault_undetected": outcome.fault_undetected,
        "silent_violation_count": outcome.silent_violation_count,
        "undetected": _violations_to_wire(outcome.undetected),
        "condition_counts": dict(outcome.condition_counts),
        "crash_repairs": outcome.crash_repairs,
        "crash_nested_cuts": outcome.crash_nested_cuts,
        "crash_counts": dict(outcome.crash_counts),
    }


def run_case_task(task: dict) -> dict:
    """Worker entry point: run one case from a JSON-safe task dict.

    ``task`` is one element of :func:`case_tasks` output; the result is
    a wire-format :class:`CaseOutcome` (see :func:`outcome_from_wire`).
    Module-level so it crosses the process boundary for both
    :func:`repro.harness.parallel.fan_out` and the serve worker pool.
    """
    spec = CaseSpec.from_payload(task["spec"])
    return outcome_to_wire(run_case(spec, index=task["index"]))


def case_tasks(config: CampaignConfig) -> List[dict]:
    """The campaign's JSON-safe worker tasks, one per sampled case.

    :func:`plan_shards` batches these into shards, so every executor
    runs the exact cases, in the exact sampling order, of the config.
    """
    return [
        {"index": index, "spec": spec.describe()}
        for index, spec in enumerate(sample_specs(config))
    ]


def outcome_from_wire(payload: dict) -> CaseOutcome:
    """Rebuild a :class:`CaseOutcome` from a worker's result dict."""
    return CaseOutcome(
        spec=CaseSpec.from_payload(payload["spec"]),
        index=payload["index"],
        events=payload["events"],
        persists=payload["persists"],
        cuts_checked=payload["cuts_checked"],
        violation_count=payload["violation_count"],
        violations=_violations_from_wire(payload["violations"]),
        choices=(
            tuple(payload["choices"]) if payload["choices"] else None
        ),
        fault_images=payload.get("fault_images", 0),
        faults_injected=payload.get("faults_injected", 0),
        fault_masked=payload.get("fault_masked", 0),
        fault_detected=payload.get("fault_detected", 0),
        fault_undetected=payload.get("fault_undetected", 0),
        silent_violation_count=payload.get("silent_violation_count", 0),
        undetected=_violations_from_wire(payload.get("undetected", [])),
        condition_counts=dict(payload.get("condition_counts", {})),
        crash_repairs=payload.get("crash_repairs", 0),
        crash_nested_cuts=payload.get("crash_nested_cuts", 0),
        crash_counts=dict(payload.get("crash_counts", {})),
        error=payload.get("error"),
    )


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

    target: str
    budget: int = 200
    models: Sequence[str] = ("epoch", "strand")
    schedulers: Sequence[str] = SCHEDULER_KINDS
    seed: int = 0
    jobs: Optional[int] = None
    cut_samples: int = 32
    faults: Sequence[str] = ()
    oracle: str = "invariant"
    crash_recovery: int = 0
    task_timeout: Optional[float] = None
    task_retries: int = 0

    def validate(self) -> None:
        """Raise on unusable parameters."""
        target = make_target(self.target)
        if self.budget <= 0:
            raise FuzzError(f"budget must be positive, got {self.budget}")
        if not self.models:
            raise FuzzError("at least one persistency model is required")
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
        validate_oracle(self.oracle)
        if self.oracle != "invariant":
            if not target.recordable:
                raise FuzzError(
                    f"target {self.target!r} does not record operation "
                    f"histories (required by the dl/bdl oracles)"
                )
            if self.faults:
                raise FuzzError(
                    "fault injection and history oracles are mutually "
                    "exclusive: drop --faults or use the invariant oracle"
                )
        if self.crash_recovery < 0:
            raise FuzzError(
                f"crash-recovery depth must be non-negative, got "
                f"{self.crash_recovery}"
            )
        if self.crash_recovery and not target.repairable:
            raise FuzzError(
                f"target {self.target!r} has no repair procedure "
                f"(required by --crash-recovery)"
            )

    def describe(self) -> Dict[str, object]:
        """JSON dict of everything that determines sampled outcomes.

        Execution-shape knobs (``jobs``, ``task_timeout``,
        ``task_retries``) are deliberately absent: this dict is also a
        valid ``repro serve`` fuzz job spec, and results stored by a
        serial run must resume a parallel one and vice versa.
        """
        return {
            "target": self.target,
            "budget": self.budget,
            "models": list(self.models),
            "schedulers": list(self.schedulers),
            "seed": self.seed,
            "cut_samples": self.cut_samples,
            "faults": list(self.faults),
            "oracle": self.oracle,
            "crash_recovery": self.crash_recovery,
        }


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

    @property
    def violations(self) -> int:
        """Total (cut, invariant) violations across all cases."""
        return sum(outcome.violation_count for outcome in self.outcomes)

    @property
    def cuts_checked(self) -> int:
        """Total failure cuts materialised and checked."""
        return sum(outcome.cuts_checked for outcome in self.outcomes)

    @property
    def fault_images(self) -> int:
        """Cut images where at least one fault actually landed."""
        return sum(outcome.fault_images for outcome in self.outcomes)

    @property
    def faults_injected(self) -> int:
        """Total faults injected across the campaign."""
        return sum(outcome.faults_injected for outcome in self.outcomes)

    @property
    def fault_masked(self) -> int:
        """Faulted images recovery shrugged off."""
        return sum(outcome.fault_masked for outcome in self.outcomes)

    @property
    def fault_detected(self) -> int:
        """Diagnoses quarantined by degrading recovery."""
        return sum(outcome.fault_detected for outcome in self.outcomes)

    @property
    def fault_undetected(self) -> int:
        """Mis-recoveries on unhardened targets (documented exposure)."""
        return sum(outcome.fault_undetected for outcome in self.outcomes)

    @property
    def silent_corruptions(self) -> int:
        """Silent-corruption violations — the fault campaign's failure
        verdict: a hardened target returned wrong state as good."""
        return sum(
            outcome.silent_violation_count for outcome in self.outcomes
        )

    @property
    def condition_counts(self) -> Dict[str, int]:
        """Total violations per broken condition ("dl", "dl+bdl").

        Empty for invariant-oracle campaigns, which carry no condition
        semantics.
        """
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for condition, count in outcome.condition_counts.items():
                totals[condition] = totals.get(condition, 0) + count
        return totals

    @property
    def crash_repairs(self) -> int:
        """Repair executions across all crash-recovery explorations."""
        return sum(outcome.crash_repairs for outcome in self.outcomes)

    @property
    def crash_nested_cuts(self) -> int:
        """Nested crash cuts of repair runs explored."""
        return sum(outcome.crash_nested_cuts for outcome in self.outcomes)

    @property
    def crash_counts(self) -> Dict[str, int]:
        """Total violations per crash-recovery oracle.

        Empty unless the campaign ran with ``crash_recovery`` > 0.
        """
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            for oracle, count in outcome.crash_counts.items():
                totals[oracle] = totals.get(oracle, 0) + count
        return totals

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


def plan_shards(config: CampaignConfig, batch: int = 1) -> List[dict]:
    """The campaign's shard tasks: :func:`case_tasks` in runs of ``batch``.

    Every executor plans with this, so a shard's task dict — and hence
    its :func:`~repro.harness.cache.shard_key` — is the same whichever
    executor computed it.
    """
    cases = case_tasks(config)
    return [
        {"kind": "fuzz", "cases": cases[start : start + batch]}
        for start in range(0, len(cases), batch)
    ]


def run_shard(task: dict) -> dict:
    """Worker entry point: run one shard's cases in order.

    Returns the shard payload ``{"kind", "indices", "outcomes"}`` with
    wire-format outcomes (see :func:`outcome_from_wire`).
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
            {
                "spec": case["spec"],
                "index": case["index"],
                "events": 0,
                "persists": 0,
                "cuts_checked": 0,
                "violation_count": 0,
                "violations": [],
                "choices": None,
                "error": error,
            }
            for case in task["cases"]
        ],
    }


def fold_shards(
    config: CampaignConfig, payloads: Iterable[dict]
) -> CampaignResult:
    """Fold shard payloads, in any order, into the campaign's result."""
    outcomes = [
        outcome_from_wire(wire)
        for payload in payloads
        for wire in payload["outcomes"]
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
    A daemon sharing the store serves these shards as hits, and vice
    versa.  Shards that crash (see ``CampaignConfig.task_retries``) are
    reported as error outcomes but never stored, so they retry next run.
    """
    tasks = plan_shards(config)
    if store is None:
        hits, pending = {}, dict.fromkeys(range(len(tasks)))
    else:
        hits, pending = store.resolve(tasks)
    payloads = list(hits.values())

    def merge(payload: dict) -> None:
        payloads.append(payload)
        if store is not None:
            # One case per shard: the case index is the shard index.
            store.store(pending[payload["indices"][0]], payload)

    def failed(task: dict, error: str) -> None:
        payloads.append(_failed_shard(task, error))

    fan_out(
        run_shard,
        [tasks[index] for index in pending],
        config.jobs,
        merge,
        timeout=config.task_timeout,
        retries=config.task_retries,
        on_failure=failed,
    )
    return fold_shards(config, payloads)
