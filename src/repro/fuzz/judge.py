"""The cut judge: the one place a failure cut's verdicts are decided.

The paper defines correctness through its recovery observer: persistent
memory is read at a failure cut and recovery is judged on it.  The
campaign, the minimizer, corpus replay and the model checker all ask
that question through one :class:`CutJudge`, built once per run.

A cut's primary verdict is a **violation** (of the target's invariant,
or under a history oracle of the ``condition`` it names, ``"dl"`` or
``"dl+bdl"``; with a fault plan, the clean image fails too), **silent**
corruption (a hardened target's degrading recovery returned wrong state
as good from a faulted image whose clean twin recovers), **undetected**
(the same on an unhardened target, its documented exposure),
**detected** (diagnoses quarantined, what recovery returned checks out)
or **masked** (indistinguishable from clean) — or none when the cut
recovers cleanly.  With the crash-recovery axis on, every repair oracle
(``crash``) the nested-crash exploration of the cut's repair breaks is
one more violation.

A verdict's :attr:`Verdict.class_key` is ``(kind, condition, crash)``:
the minimizer keeps only shrinks that reproduce a finding's key, and
replay reports a repro stale when its cut yields a different one.
:func:`validate_axes` holds every rule on combining the oracle, fault
and crash axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Tuple

from repro.core.recovery import image_at_cut
from repro.crashrec import CRASH_ORACLES, CrashSchedule, crash_recovery_check
from repro.errors import FuzzError, RecoveryError
from repro.histories.oracle import cut_checker, validate_oracle
from repro.inject.engine import materialize_faulty
from repro.inject.plan import FaultPlan
from repro.inject.report import RecoveryReport
from repro.memory.nvram import NvramImage

#: A verdict's identity: (kind, condition, crash oracle).
ClassKey = Tuple[str, Optional[str], Optional[str]]

#: Verdict kinds in which recovery returned state the ground truth
#: refutes; "violation" and "silent" are campaign failures.
FAILING = ("violation", "silent", "undetected")


def validate_axes(
    oracle: str,
    *,
    recordable: bool,
    repairable: bool,
    faults: bool = False,
    crash_recovery: Optional[int] = None,
    crash: Optional[str] = None,
    target: Optional[str] = None,
) -> None:
    """Raise :class:`~repro.errors.FuzzError` unless the axes combine.

    ``crash_recovery`` is the nested-crash depth (None: repair oracles
    off), ``crash`` a recorded repair oracle; ``recordable`` and
    ``repairable`` say whether the run records operation histories and
    exposes a repair procedure, and ``target`` names it in messages.
    """
    validate_oracle(oracle)
    who = "this run" if target is None else f"target {target!r}"
    if oracle != "invariant":
        if not recordable:
            raise FuzzError(
                f"{who} does not record operation histories (required by "
                f"the dl/bdl oracles)"
            )
        if faults:
            raise FuzzError(
                "fault injection and history oracles are mutually "
                "exclusive: drop --faults or use the invariant oracle"
            )
    if crash is not None and crash not in CRASH_ORACLES:
        raise FuzzError(
            f"unknown crash oracle {crash!r}; expected one of "
            f"{', '.join(CRASH_ORACLES)}"
        )
    if crash_recovery is not None:
        if crash_recovery < 0:
            raise FuzzError(
                f"crash-recovery depth must be non-negative, got "
                f"{crash_recovery}"
            )
        if not repairable:
            raise FuzzError(
                f"{who} has no repair procedure (required by "
                f"--crash-recovery)"
            )


def recorded_key(
    faults: Optional[str], condition: Optional[str], crash: Optional[str]
) -> ClassKey:
    """The class key a finding or repro case recorded.

    A repair-oracle finding is keyed by its oracle; otherwise a case
    that kept its fault plan recorded silent corruption (genuine
    ordering violations are stripped of their plan).
    """
    if crash is not None:
        return ("violation", None, crash)
    return ("silent" if faults is not None else "violation", condition, None)


@dataclass(frozen=True)
class Verdict:
    """One judgement of one cut (see the module docstring for kinds).

    ``error`` is the recovery error (empty for detected/masked),
    ``schedule`` the nested-crash cut sequence of a repair-oracle
    violation, and ``report`` the degrading recovery's
    :class:`~repro.inject.report.RecoveryReport` for detected/masked
    verdicts.
    """

    kind: str
    error: str = ""
    condition: Optional[str] = None
    crash: Optional[str] = None
    schedule: Optional[CrashSchedule] = None
    report: Optional[RecoveryReport] = None

    @property
    def class_key(self) -> ClassKey:
        """(kind, condition, crash): what minimization and replay pin."""
        return (self.kind, self.condition, self.crash)


@dataclass(frozen=True)
class CutVerdicts:
    """Everything judging one cut produced.

    ``crash`` holds the repair-oracle violations (in exploration order),
    ``verdict`` the primary verdict (None when the cut recovers
    cleanly), ``faults`` the number of faults that landed on the cut's
    image, and ``repairs``/``nested_cuts`` the nested-crash work done.
    """

    crash: Tuple[Verdict, ...] = ()
    verdict: Optional[Verdict] = None
    faults: int = 0
    repairs: int = 0
    nested_cuts: int = 0

    def find(self, key: ClassKey) -> Optional[Verdict]:
        """The first verdict whose class key is ``key``, if any."""
        for verdict in self.crash + (self.verdict,):
            if verdict is not None and verdict.class_key == key:
                return verdict
        return None


class CutJudge:
    """Judges failure cuts of one executed run.

    ``check``, ``check_report`` and ``repair`` are the run's (see
    :class:`~repro.fuzz.targets.TargetRun`); ``graph`` is any model's
    persist DAG of the run (persist ids are model-independent) over
    ``base_image``.  ``history`` builds the run's history cut checker
    on first use.  ``plan`` is the decoded fault plan,
    ``crash_recovery`` the nested-crash depth explored under ``model``
    (None: repair oracles off), and ``hardened`` turns undetected
    faults into silent corruption.

    Raises:
        FuzzError: when the axes may not be combined (see
            :func:`validate_axes`).
    """

    def __init__(
        self,
        check: Callable[[NvramImage], object],
        graph,
        base_image: NvramImage,
        *,
        model: Optional[str] = None,
        check_report: Optional[Callable[[NvramImage], object]] = None,
        repair=None,
        history: Optional[Callable[[], Callable]] = None,
        oracle: str = "invariant",
        plan: Optional[FaultPlan] = None,
        crash_recovery: Optional[int] = None,
        hardened: bool = False,
    ) -> None:
        validate_axes(
            oracle,
            recordable=history is not None,
            repairable=repair is not None,
            faults=plan is not None,
            crash_recovery=crash_recovery,
        )
        self.check = check
        self.graph = graph
        self.base_image = base_image
        self.model = model
        self.check_report = check_report
        self.repair = repair
        self.oracle = oracle
        self.plan = plan
        self.crash_recovery = crash_recovery
        self.hardened = hardened
        self._history = history if oracle != "invariant" else None
        self._cut_check = None

    @classmethod
    def for_run(
        cls,
        run,
        graph,
        model: str,
        *,
        oracle: str = "invariant",
        plan: Optional[FaultPlan] = None,
        crash_recovery: Optional[int] = None,
        hardened: bool = False,
    ) -> "CutJudge":
        """The judge of one :class:`~repro.fuzz.targets.TargetRun`."""
        history = None
        if run.history_spec is not None:
            history = partial(
                cut_checker, run.trace, graph, run.history_spec, oracle
            )
        return cls(
            run.check,
            graph,
            run.base_image,
            model=model,
            check_report=run.check_report,
            repair=run.repair,
            history=history,
            oracle=oracle,
            plan=plan,
            crash_recovery=crash_recovery,
            hardened=hardened,
        )

    @property
    def image_only(self) -> bool:
        """True when a verdict depends on the image bytes alone.

        History conditions depend on which operations the cut persisted,
        and a fault plan's dice are seeded by the cut, so neither lets
        equal image content stand for an equal verdict.
        """
        return self.oracle == "invariant" and self.plan is None

    def judge(
        self, cut: Iterable[int], image: Optional[NvramImage] = None
    ) -> CutVerdicts:
        """Judge one cut; ``image`` is its clean image (imaged if None)."""
        if image is None:
            image = image_at_cut(self.graph, cut, self.base_image, check=False)
        faulty, faults = image, ()
        if self.plan is not None:
            faulty, faults = materialize_faulty(
                self.graph, cut, self.base_image, self.plan
            )
        verdicts: Tuple[Verdict, ...] = ()
        repairs = nested_cuts = 0
        if self.crash_recovery is not None:
            history_error = None
            if self._history is not None:

                def history_error(img: NvramImage) -> Optional[str]:
                    failure = self._conditions(cut, img)
                    return failure[0] if failure is not None else None

            report = crash_recovery_check(
                self.repair,
                faulty,
                self.model,
                depth=self.crash_recovery,
                check=self._invariant,
                oracle_check=history_error,
            )
            repairs, nested_cuts = report.repairs, report.nested_cuts
            verdicts = tuple(
                Verdict(
                    "violation",
                    violation.error,
                    crash=violation.oracle,
                    schedule=violation.schedule,
                )
                for violation in report.violations
            )
        return CutVerdicts(
            crash=verdicts,
            verdict=self._primary(cut, image, faulty, bool(faults)),
            faults=len(faults),
            repairs=repairs,
            nested_cuts=nested_cuts,
        )

    def _invariant(self, image: NvramImage) -> Optional[str]:
        """The invariant's error on ``image``, or None when it holds."""
        try:
            self.check(image)
        except RecoveryError as exc:
            return str(exc)
        return None

    def _conditions(self, cut, image: NvramImage):
        """``(error, condition)`` when ``image`` breaks the history
        oracle at ``cut``, else None (the checker is built on first
        use: extraction scans the whole trace)."""
        if self._cut_check is None:
            self._cut_check = self._history()
        return self._cut_check(cut, image)

    def _primary(
        self, cut, image: NvramImage, faulty: NvramImage, faulted: bool
    ) -> Optional[Verdict]:
        """The cut's own verdict (the repair oracles aside)."""
        if self._history is not None:
            failure = self._conditions(cut, image)
            if failure is None:
                return None
            return Verdict("violation", failure[0], condition=failure[1])
        if not faulted:
            # No plan, or its dice injected nothing (the faulty image is
            # then byte-identical to the clean one).
            error = self._invariant(image)
            return None if error is None else Verdict("violation", error)
        try:
            report = (self.check_report or self.check)(faulty)
        except RecoveryError as exc:
            # Blame attribution: when the clean image at this cut fails
            # too, the ordering model is broken regardless of faults.
            error = self._invariant(image)
            if error is not None:
                return Verdict("violation", error)
            kind = "silent" if self.hardened else "undetected"
            return Verdict(kind, str(exc))
        if not isinstance(report, RecoveryReport):
            report = None
        if self.check_report is not None and report.quarantined:
            return Verdict("detected", report=report)
        return Verdict("masked", report=report)
