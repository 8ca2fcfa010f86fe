"""Disk corpus of replayable counterexamples.

Each finding the fuzzer keeps is one ``<digest>.repro.json`` file: the
case spec that built the program, the recorded schedule choices that
pin its interleaving, the failure cut (a consistent cut of the persist
DAG), and the recovery error it produced.  Files are content-addressed
with the same canonical-JSON/SHA-256 digest the harness result store uses
(:func:`repro.harness.cache.content_digest`) and written via a sibling
temp file plus :func:`os.replace`, so concurrent writers and crashes
leave complete entries either way.

Replay is policy-independent: the recorded choices drive a
:class:`~repro.sim.scheduler.ReplayScheduler`, so the exact execution is
reproduced even if scheduler implementations change; the cut is then
re-applied and re-judged by the same :class:`~repro.fuzz.judge.CutJudge`
the campaign uses.  A case carrying a fault plan (:mod:`repro.inject`)
re-materializes the *same* faulty image — the engine is fully seeded —
so the replayed :class:`~repro.inject.report.RecoveryReport` is
identical to the original.  A repro that no longer reproduces (e.g. the
workload changed underneath it) reports a stale-entry diagnosis rather
than crashing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # layering: fuzz only needs the violation's fields
    from repro.check.checker import CheckViolation

from repro.core.analysis import analyze_graph
from repro.core.recovery import is_consistent_cut
from repro.errors import FuzzError, ReproError, SimulationError
from repro.fuzz.campaign import CaseSpec, Finding
from repro.fuzz.judge import (
    FAILING,
    ClassKey,
    CutJudge,
    Verdict,
    recorded_key,
    validate_axes,
)
from repro.fuzz.targets import make_target
from repro.harness.cache import atomic_write, content_digest, quarantine_file
from repro.inject.plan import FaultPlan
from repro.inject.report import RecoveryReport
from repro.schema import decode, encode, option
from repro.sim.scheduler import ReplayScheduler, make_scheduler

_PathLike = Union[str, Path]

#: Bump when the repro file format changes; old entries fail to load.
CORPUS_FORMAT_VERSION = 1


def _shared(source: object, cls: type) -> Dict[str, object]:
    """``source``'s values of the fields it shares (by name) with
    ``cls`` — every case axis (target, schedule, model, faults, oracle,
    crash depth, ...) crosses a conversion without being listed here."""
    names = {f.name for f in fields(source)}
    return {
        f.name: getattr(source, f.name) for f in fields(cls) if f.name in names
    }


@dataclass(frozen=True)
class ReproCase:
    """One replayable counterexample (the corpus wire format).

    ``faults`` is None for ordering violations, or the canonical JSON of
    the :class:`~repro.inject.plan.FaultPlan` whose injected faults are
    the counterexample (silent corruption under fault injection).

    ``oracle`` names the per-cut judge that produced the case
    (``"invariant"``, ``"dl"``, ``"bdl"``); ``condition`` carries the
    history oracle's classification of the violation (``"dl"`` or
    ``"dl+bdl"``, None for invariant cases).  Replay re-judges the cut
    with the same oracle and re-validates the classification.

    ``crash`` names the crash-during-recovery oracle a repair violation
    broke (``"idempotence"``, ``"convergence"``, ``"preservation"``;
    None for ordinary cases), ``crash_schedule`` the nested-crash cut
    sequence that exposed it, and ``crash_recovery`` the exploration
    depth to replay at.
    """

    target: str = option()
    threads: int = option(type=int)
    ops: int = option(type=int)
    sched: str = option()
    sched_seed: int = option(type=int)
    model: str = option()
    cut: Tuple[int, ...] = option(type=int, many=True)
    choices: Tuple[int, ...] = option(type=int, many=True)
    error: str = option()
    minimized: bool = option(False, type=bool)
    faults: Optional[str] = option(None, optional=True)
    oracle: str = option("invariant")
    condition: Optional[str] = option(None, optional=True)
    crash: Optional[str] = option(None, optional=True)
    crash_schedule: Optional[Tuple[Tuple[int, ...], ...]] = option(
        None, type=int, many=2, optional=True
    )
    crash_recovery: int = option(0, type=int)

    def plan(self) -> Optional[FaultPlan]:
        """The case's fault plan, decoded, or None for a clean case."""
        if self.faults is None:
            return None
        return FaultPlan.from_json(self.faults)

    @classmethod
    def from_verdict(
        cls,
        spec: CaseSpec,
        cut: Iterable[int],
        choices: Tuple[int, ...],
        verdict: Verdict,
    ) -> "ReproCase":
        """The minimized case of ``spec``'s run: its recorded ``choices``
        and ``cut``, and the cut's verdict (error, condition, repair
        oracle and nested-crash schedule)."""
        return cls(
            cut=tuple(sorted(cut)),
            choices=choices,
            error=verdict.error,
            minimized=True,
            condition=verdict.condition,
            crash=verdict.crash,
            crash_schedule=verdict.schedule,
            **_shared(spec, cls),
        )

    def to_finding(self) -> Finding:
        """The campaign finding this case re-minimizes from: its spec
        with the adversarial minimal-cut family, and its verdict."""
        spec = CaseSpec(cuts="minimal", cut_seed=0, **_shared(self, CaseSpec))
        return Finding(spec=spec, **_shared(self, Finding))

    def describe(self) -> Dict[str, object]:
        """JSON dict representation (exactly what is written to disk)."""
        return {"version": CORPUS_FORMAT_VERSION, **encode(self)}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ReproCase":
        """Rebuild a case from :meth:`describe` output.

        ``faults``, ``oracle``, ``condition`` and the ``crash*`` fields
        may be absent (entries written before the fields existed load as
        clean invariant cases).

        Raises:
            FuzzError: on a malformed or wrong-version payload, an
                unknown target, or axes a campaign would reject.
        """
        try:
            if payload["version"] != CORPUS_FORMAT_VERSION:
                raise FuzzError(
                    f"repro format version {payload['version']} is not "
                    f"{CORPUS_FORMAT_VERSION}"
                )
            return decode(cls, payload, extra=("version",))
        except FuzzError:
            raise
        except (KeyError, ReproError) as exc:
            raise FuzzError(f"malformed repro payload: {exc}") from exc

    def validate(self) -> None:
        """Hold the case's axes to the rules a campaign is held to (see
        :func:`~repro.fuzz.judge.validate_axes`); raises FuzzError."""
        target = make_target(self.target)
        repair = self.crash is not None or self.crash_recovery != 0
        validate_axes(
            self.oracle,
            recordable=target.recordable,
            repairable=target.repairable,
            faults=self.faults is not None,
            crash_recovery=self.crash_recovery if repair else None,
            crash=self.crash,
            target=self.target,
        )

    @property
    def class_key(self) -> ClassKey:
        """The verdict class replay must get back to reproduce."""
        return recorded_key(self.faults, self.condition, self.crash)

    def key(self) -> str:
        """Content digest identifying this case (names its corpus file)."""
        return content_digest(self.describe())


@dataclass
class ReplayResult:
    """Outcome of replaying one corpus entry.

    ``report`` carries the degrading checker's
    :class:`~repro.inject.report.RecoveryReport` for fault-plan cases
    that did *not* reproduce — two replays of the same case always
    produce equal reports (the property the determinism tests pin).
    ``condition`` is the history oracle's classification of the replayed
    violation (None for invariant cases or non-reproductions).
    """

    reproduced: bool
    detail: str
    report: Optional[RecoveryReport] = None
    condition: Optional[str] = None


def replay_case(case: ReproCase) -> ReplayResult:
    """Re-execute a repro case and re-judge its failure cut.

    The recorded choices drive a :class:`ReplayScheduler` (falling back
    to the original seeded scheduler when a case carries none), the
    persist DAG is rebuilt under the case's model (with operation
    recording on for a history oracle), and the run's
    :class:`~repro.fuzz.judge.CutJudge` judges the recorded cut — on
    the bit-identically re-faulted image when a fault plan rides along,
    and exploring nested crashes of repair for a repair-oracle case.

    ``reproduced`` is True exactly when a verdict of the case's class
    key comes back.  A different failing verdict of the same family (a
    different condition, verdict kind, or repair oracle) reports the
    repro stale, as does a schedule, cut or axis that no longer fits
    the rebuilt run.
    """
    target = make_target(case.target)
    if case.choices:
        scheduler = ReplayScheduler(case.choices)
    else:
        scheduler = make_scheduler(case.sched, case.sched_seed)
    try:
        run = target.build(
            case.threads,
            case.ops,
            scheduler,
            record_history=case.oracle != "invariant",
        )
    except SimulationError as exc:
        return ReplayResult(
            False, f"stale repro: recorded schedule no longer applies ({exc})"
        )
    graph = analyze_graph(run.trace, case.model).graph
    if not is_consistent_cut(graph, case.cut):
        return ReplayResult(
            False,
            "stale repro: recorded cut is not a consistent cut of the "
            "rebuilt persist DAG",
        )
    try:
        judge = CutJudge.for_run(
            run,
            graph,
            case.model,
            oracle=case.oracle,
            plan=case.plan(),
            crash_recovery=None if case.crash is None else case.crash_recovery,
            hardened=target.hardened,
        )
    except FuzzError as exc:
        return ReplayResult(False, f"stale repro: {exc}")
    judged = judge.judge(case.cut)
    match = judged.find(case.class_key)
    if match is not None:
        return ReplayResult(True, match.error, condition=match.condition)
    held = "at the recorded cut"
    if case.crash is not None:
        others = ", ".join(sorted({verdict.crash for verdict in judged.crash}))
        if others:
            return ReplayResult(
                False,
                f"stale repro: repair now breaks {others}, not the recorded "
                f"{case.crash} oracle",
            )
        return ReplayResult(False, f"the {case.crash} repair oracle held {held}")
    verdict = judged.verdict
    if case.oracle != "invariant":
        if verdict is None:
            return ReplayResult(False, f"the {case.oracle} oracle held {held}")
        return ReplayResult(
            False,
            f"stale repro: cut now breaks condition {verdict.condition!r}, "
            f"not the recorded {case.condition!r}",
            condition=verdict.condition,
        )
    if verdict is not None and verdict.kind in FAILING:
        return ReplayResult(
            False,
            f"stale repro: cut now judges {verdict.kind}, not the recorded "
            f"{case.class_key[0]}",
        )
    if case.faults is not None:
        return ReplayResult(
            False,
            f"degrading recovery handled the injected faults {held}",
            report=None if verdict is None else verdict.report,
        )
    return ReplayResult(False, f"recovery invariant held {held}")


def case_from_check(
    target: str,
    threads: int,
    ops: int,
    violation: "CheckViolation",
    oracle: str = "invariant",
) -> ReproCase:
    """Package one ``repro.check`` violation as a replayable corpus case.

    The checker's recorded choices are scheduler agent ids — exactly
    what :class:`~repro.sim.scheduler.ReplayScheduler` consumes — so the
    resulting case replays through the standard ``repro fuzz replay``
    path; the ``sched``/``sched_seed`` fields are the documented
    fallback for stale recordings and for re-discovery minimization.
    ``oracle`` is the judge the checker ran under; the violation's
    condition classification rides along for history oracles.
    """
    return ReproCase(
        target=target,
        threads=threads,
        ops=ops,
        sched="random",
        sched_seed=0,
        model=violation.model,
        cut=tuple(violation.cut),
        choices=tuple(violation.choices),
        error=violation.error,
        minimized=False,
        oracle=oracle,
        condition=violation.condition,
    )


def export_check_violations(
    corpus_dir: _PathLike,
    target: str,
    threads: int,
    ops: int,
    violations: Iterable["CheckViolation"],
    oracle: str = "invariant",
) -> List[Path]:
    """Write checker counterexamples into a corpus directory.

    Returns the written paths (content-addressed, so re-exporting the
    same violations is idempotent).  ``repro fuzz replay --corpus-dir``
    and ``repro fuzz minimize`` then work on checker findings exactly
    as they do on fuzzer findings.
    """
    corpus = Corpus(corpus_dir)
    return [
        corpus.add(case_from_check(target, threads, ops, violation, oracle))
        for violation in violations
    ]


class Corpus:
    """A directory of ``*.repro.json`` counterexample files."""

    SUFFIX = ".repro.json"

    def __init__(self, root: _PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, case: ReproCase) -> Path:
        """The content-addressed file path for ``case``."""
        return self.root / f"{case.key()[:16]}{self.SUFFIX}"

    def add(self, case: ReproCase) -> Path:
        """Write ``case`` atomically; returns its path (idempotent)."""
        path = self.path_for(case)

        def write(stream) -> None:
            json.dump(case.describe(), stream, sort_keys=True, indent=2)
            stream.write("\n")

        atomic_write(path, write)
        return path

    def load(self, path: _PathLike) -> ReproCase:
        """Load one repro file.

        Truncated, non-UTF-8, or otherwise undecodable bytes surface as
        :class:`~repro.errors.FuzzError` — never a raw
        ``JSONDecodeError``/``UnicodeDecodeError`` (both are
        ``ValueError`` subclasses and are caught as such).

        Raises:
            FuzzError: when the file is unreadable or malformed.
        """
        try:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, ValueError) as exc:
            raise FuzzError(f"cannot read repro file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FuzzError(
                f"repro file {path} does not hold a JSON object"
            )
        return ReproCase.from_payload(payload)

    def load_or_quarantine(self, path: _PathLike) -> Optional[ReproCase]:
        """Load one repro file, quarantining it on corruption.

        An unreadable entry is renamed aside (``*.quarantined``, with a
        warning) and reported as None, so a sweep over the corpus keeps
        going instead of dying on one half-written file.
        """
        try:
            return self.load(path)
        except FuzzError as exc:
            quarantine_file(path, str(exc))
            return None

    def entries(self) -> List[Path]:
        """All repro files in the corpus, in sorted (stable) order."""
        return sorted(self.root.glob(f"*{self.SUFFIX}"))

    def replay_all(self) -> List[Tuple[Path, ReplayResult]]:
        """Replay every loadable entry; returns (path, result) pairs.

        Corrupt entries are quarantined and skipped, not fatal.
        """
        results: List[Tuple[Path, ReplayResult]] = []
        for path in self.entries():
            case = self.load_or_quarantine(path)
            if case is not None:
                results.append((path, replay_case(case)))
        return results
