"""Crash-during-recovery: instrumented repair under nested failures.

Recovery code is itself a program that persists: a repair procedure
truncating a torn log tail or tombstoning a corrupt KV slot issues
stores to NVRAM, and a machine can crash *during* those stores just as
it crashed during the original workload.  The paper's discipline has to
hold transitively — repair must be correct under the same persistency
model it repairs for.

This module closes that loop.  Structures express repair as a pure-data
:class:`~repro.inject.report.RepairPlan` computed from a crash image
(the structure owns the absolute addresses, so the plan carries them);
:func:`run_repair` executes a plan as an instrumented program on a bare
simulated machine under any registered persistency model, yielding the
repair's *own* persist DAG.  :func:`crash_recovery_check` then crashes
repair at consistent cuts of that DAG, re-runs repair on each nested
crash image up to a caller-chosen depth, and judges three oracles at
every completed repair:

* **idempotence** — repair of a repaired image must be a byte-level
  no-op (the second pass plans nothing and writes nothing);
* **convergence** — a non-idempotent repair must still reach a byte
  fixed point within the crash budget, else repeated crash/repair
  cycles lose state forever;
* **preservation** — when the un-repaired origin image already passed
  the structure invariant (and the durable-linearizability oracle, when
  wired), the repaired image must still pass: repair may drop
  quarantined state but never break healthy state.

Exploration is fully deterministic: repair programs are single-threaded
(round-robin scheduling has one choice), nested cuts come from the
fixed minimal-cut/prefix enumeration, and already-seen images are
memoized by content hash — so a violation's crash schedule (the tuple
of cut member-tuples per nesting level) replays exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core.analysis import analyze_graph
from repro.core.recovery import (
    FailureInjector,
    cut_members,
    cut_size,
    full_cut,
)
from repro.errors import RecoveryError
from repro.inject.report import RepairPlan
from repro.memory.nvram import NvramImage
from repro.sim.machine import Machine
from repro.sim.scheduler import make_scheduler

#: A repair planner: maps a crash image to the plan that fixes it.
Planner = Callable[[NvramImage], RepairPlan]

#: A crash schedule: one entry per nesting level, each the sorted
#: persist ids (within that repair run's DAG) the crash cut kept.
CrashSchedule = Tuple[Tuple[int, ...], ...]

#: The repair oracles :func:`crash_recovery_check` judges.
CRASH_ORACLES = ("idempotence", "convergence", "preservation")

#: Checker returning an error string (None when the image passes); the
#: harness never needs the distinction between invariant styles.
ImageChecker = Callable[[NvramImage], Optional[str]]


@dataclass
class RepairOutcome:
    """One crash-free execution of a repair plan.

    ``image`` is the input crash image with every repair persist
    applied; ``injector`` (over the repair's own persist DAG, based on
    the *input* image) materialises the nested crash states.  No-op
    plans skip the machine entirely: ``persist_count`` is 0 and
    ``injector`` is None.
    """

    plan: RepairPlan
    image: NvramImage
    persist_count: int
    injector: Optional[FailureInjector] = None


def _repair_body(ctx, plan: RepairPlan):
    """Thread body: the plan's stores and barriers, verbatim."""
    result = yield from plan.emit(ctx)
    return result


def run_repair(
    planner: Planner, image: NvramImage, model: str
) -> RepairOutcome:
    """Execute one repair pass as an instrumented program.

    The plan is computed from ``image`` Python-side, then replayed as a
    single simulated thread on a bare machine whose persistent region is
    pre-loaded with the image bytes; :func:`~repro.core.analysis.analyze_graph`
    under ``model`` gives the repair's persist DAG, from which the
    crash-free repaired image is materialised at the full cut.  The
    input image is never mutated.
    """
    plan = planner(image)
    if plan.is_noop:
        return RepairOutcome(plan=plan, image=image.copy(), persist_count=0)
    machine = Machine(
        scheduler=make_scheduler("round_robin"),
        persistent_size=image.size,
    )
    region = machine.memory.region("persistent")
    region.write_bytes(image.base, image.read_bytes(image.base, image.size))
    machine.spawn(_repair_body, plan, name="repair")
    trace = machine.run()
    graph = analyze_graph(trace, model).graph
    injector = FailureInjector(graph, image)
    repaired = injector.image_for(full_cut(graph))
    return RepairOutcome(
        plan=plan,
        image=repaired,
        persist_count=len(graph.nodes),
        injector=injector,
    )


def replay_schedule(
    planner: Planner,
    image: NvramImage,
    model: str,
    schedule: CrashSchedule,
) -> NvramImage:
    """Materialise the crash image a schedule leads to.

    Each schedule level crashes the repair of the previous level's image
    at the recorded cut.  Raises :class:`~repro.errors.RecoveryError`
    when a level's cut references persists the repair run no longer has
    (a stale schedule — the repair procedure changed).
    """
    current = image
    for level, cut in enumerate(schedule):
        outcome = run_repair(planner, current, model)
        if outcome.injector is None or any(
            pid >= outcome.persist_count for pid in cut
        ):
            raise RecoveryError(
                f"stale crash schedule: level {level} cut {cut!r} does not "
                f"fit a repair with {outcome.persist_count} persist(s)"
            )
        current = outcome.injector.image_for(frozenset(cut))
    return current


@dataclass(frozen=True)
class CrashRecViolation:
    """One oracle failure, addressed by its nested-crash schedule."""

    oracle: str
    schedule: CrashSchedule
    error: str


@dataclass
class CrashRecReport:
    """Aggregate result of one nested-crash exploration."""

    depth: int
    repairs: int = 0
    nested_cuts: int = 0
    images: int = 0
    truncated: bool = False
    violations: List[CrashRecViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every oracle held on every explored image."""
        return not self.violations

    def summary(self) -> str:
        """One-line human summary."""
        line = (
            f"crash-recovery depth={self.depth}: "
            f"{len(self.violations)} violation(s) over {self.images} "
            f"image(s), {self.repairs} repair(s), "
            f"{self.nested_cuts} nested cut(s)"
        )
        if self.truncated:
            line += " [repair budget exhausted]"
        return line


def _digest(image: NvramImage) -> str:
    """Content hash of an image's full byte range."""
    return hashlib.sha256(
        image.read_bytes(image.base, image.size)
    ).hexdigest()


def _crash_cuts(
    outcome: RepairOutcome, limit: int
) -> Iterator[Tuple[Tuple[int, ...], NvramImage]]:
    """Deterministic sample of proper crash cuts of a repair run.

    Every persist's minimal cut first (the most adversarial legal crash
    for each repair store), then creation-order prefixes; the empty cut
    (nothing repaired — identical to the parent image, which the content
    memo would skip anyway) and the full cut (the crash-free completion,
    judged separately) are excluded.
    """
    total = outcome.persist_count
    if total == 0 or outcome.injector is None:
        return
    seen = set()
    emitted = 0
    for source in (
        outcome.injector.minimal_images(),
        outcome.injector.prefix_images(),
    ):
        for cut, crashed in source:
            size = cut_size(cut)
            if size == 0 or size >= total:
                continue
            members = tuple(cut_members(cut))
            if members in seen:
                continue
            seen.add(members)
            yield members, crashed
            emitted += 1
            if emitted >= limit:
                return


def crash_recovery_check(
    planner: Planner,
    image: NvramImage,
    model: str,
    depth: int,
    check: Optional[ImageChecker] = None,
    oracle_check: Optional[ImageChecker] = None,
    cuts_per_level: int = 6,
    max_repairs: int = 200,
) -> CrashRecReport:
    """Explore nested crashes of repair and judge the three oracles.

    ``image`` is the origin crash state (a consistent cut of the
    original workload, possibly with device faults injected).  ``check``
    and ``oracle_check`` return an error string when an image violates
    the structure invariant / the durable-linearizability oracle; the
    **preservation** oracle consults each only when the *un-repaired*
    origin image already passed it, so known-broken workloads (whose
    origin images fail on their own) never charge their bugs to repair.

    ``depth`` bounds crash nesting: depth 0 judges only the crash-free
    repair, depth K additionally crashes repair at up to
    ``cuts_per_level`` cuts per image, K levels deep.  ``max_repairs``
    bounds total repair executions; overruns set ``truncated`` rather
    than raising.
    """
    report = CrashRecReport(depth=depth)
    baseline_check = check is not None and check(image) is None
    baseline_oracle = (
        oracle_check is not None and oracle_check(image) is None
    )
    explored = set()
    judged = set()

    def do_repair(img: NvramImage) -> Optional[RepairOutcome]:
        if report.repairs >= max_repairs:
            report.truncated = True
            return None
        report.repairs += 1
        return run_repair(planner, img, model)

    def judge(outcome: RepairOutcome, schedule: CrashSchedule) -> None:
        """The three oracles at one completed (crash-free) repair."""
        repaired = outcome.image
        second = do_repair(repaired)
        if second is not None and not second.plan.is_noop:
            report.violations.append(
                CrashRecViolation(
                    oracle="idempotence",
                    schedule=schedule,
                    error=(
                        "repair of a repaired image is not a no-op; the "
                        "second pass would "
                        + "; ".join(second.plan.actions)
                    ),
                )
            )
            # Non-idempotent repair may still converge: chase a byte
            # fixed point for up to depth + 1 further passes.
            current = second.image
            current_bytes = current.read_bytes(current.base, current.size)
            converged = False
            passes = 0
            for _ in range(depth + 1):
                again = do_repair(current)
                if again is None:
                    break
                passes += 1
                next_bytes = again.image.read_bytes(
                    again.image.base, again.image.size
                )
                if next_bytes == current_bytes:
                    converged = True
                    break
                current, current_bytes = again.image, next_bytes
            if not converged:
                report.violations.append(
                    CrashRecViolation(
                        oracle="convergence",
                        schedule=schedule,
                        error=(
                            f"repair reached no byte fixed point within "
                            f"{passes + 2} passes"
                        ),
                    )
                )
        if baseline_check:
            error = check(repaired)
            if error is not None:
                report.violations.append(
                    CrashRecViolation(
                        oracle="preservation",
                        schedule=schedule,
                        error=(
                            f"origin image passed the invariant but the "
                            f"repaired image does not: {error}"
                        ),
                    )
                )
        if baseline_oracle:
            error = oracle_check(repaired)
            if error is not None:
                report.violations.append(
                    CrashRecViolation(
                        oracle="preservation",
                        schedule=schedule,
                        error=(
                            f"origin image passed the durability oracle "
                            f"but the repaired image does not: {error}"
                        ),
                    )
                )

    def explore(
        img: NvramImage, schedule: CrashSchedule, remaining: int
    ) -> None:
        digest = _digest(img)
        if (digest, remaining) in explored:
            return
        explored.add((digest, remaining))
        outcome = do_repair(img)
        if outcome is None:
            return
        if digest not in judged:
            judged.add(digest)
            report.images += 1
            judge(outcome, schedule)
        if remaining <= 0:
            return
        for members, crashed in _crash_cuts(outcome, cuts_per_level):
            report.nested_cuts += 1
            explore(crashed, schedule + (members,), remaining - 1)

    explore(image, (), depth)
    return report
