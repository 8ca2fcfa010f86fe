"""Counterexample minimization (delta debugging in two stages).

A raw finding is rarely the story: it names a 4-thread, 24-insert
program and a 150-persist cut when the bug needs two threads, two
operations, and a handful of persists.  Minimization shrinks in two
stages, re-running the (deterministic, seeded) case after every
candidate shrink and keeping only changes that still violate:

1. **Workload shrink** — reduce operations per thread toward the
   target's floor (halving first, then decrementing), then reduce the
   thread count the same way.  Each candidate re-runs the full pipeline
   under the same seeded scheduler; a candidate "reproduces" when any
   cut of the spec's family still yields the finding's verdict class.
2. **Cut shrink** — on the final workload, restart from the smallest
   violating per-persist *minimal cut* (the persist and its ancestors,
   nothing else), then greedily remove persists: dropping a persist
   together with its in-cut descendants preserves downward closure, so
   every candidate is a consistent cut by construction.

The result is a :class:`~repro.fuzz.corpus.ReproCase` carrying the
shrunk spec, the recorded schedule choices of its final run, and the
minimal violating cut — deterministic to replay by construction.

Every judgement goes through the run's
:class:`~repro.fuzz.judge.CutJudge`, pinned to the finding's class key
``(kind, condition, crash)``: a candidate that still fails, but under a
different history-oracle condition (``--oracle dl``/``bdl``), repair
oracle (``--crash-recovery``) or verdict kind, is rejected — shrinking
never relabels the bug.  The final cut's verdict supplies the repro's
error, condition and nested-crash schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.recovery import FailureInjector, minimal_cut
from repro.errors import FuzzError
from repro.fuzz.campaign import (
    CampaignResult,
    CaseExecution,
    CaseSpec,
    Finding,
    execute_spec,
    iter_case_images,
)
from repro.fuzz.corpus import Corpus, ReproCase
from repro.fuzz.judge import ClassKey, Verdict
from repro.fuzz.targets import make_target

#: The class key of an ordinary invariant violation.
ORDINARY: ClassKey = ("violation", None, None)


@dataclass
class MinimizeStats:
    """Work counters for one minimization."""

    runs: int = 0
    cut_checks: int = 0


@dataclass
class MinimizeResult:
    """A minimized counterexample plus how much work it took."""

    case: ReproCase
    stats: MinimizeStats


def _first_match(
    execution: CaseExecution,
    key: ClassKey,
    stats: Optional[MinimizeStats] = None,
) -> Optional[Tuple[frozenset, Verdict]]:
    """The first cut of the spec's own family yielding ``key``, if any.

    Counts every cut judged in ``stats`` when one is given.
    """
    injector = FailureInjector(execution.graph, execution.run.base_image)
    for cut, image in iter_case_images(execution.spec, injector):
        if stats is not None:
            stats.cut_checks += 1
        verdict = execution.judge.judge(cut, image).find(key)
        if verdict is not None:
            return frozenset(cut), verdict
    return None


def _reproduces(spec: CaseSpec, stats: MinimizeStats, key: ClassKey) -> bool:
    """Does any cut of ``spec``'s family still yield class ``key``?"""
    stats.runs += 1
    return _first_match(execute_spec(spec), key) is not None


def _shrunk_candidates(value: int, floor: int) -> Iterable[int]:
    """Candidate reductions of ``value``: halve first, then decrement."""
    half = max(floor, value // 2)
    if half < value:
        yield half
    if value - 1 >= floor and value - 1 != half:
        yield value - 1


def shrink_workload(
    spec: CaseSpec,
    stats: Optional[MinimizeStats] = None,
    key: ClassKey = ORDINARY,
) -> CaseSpec:
    """Stage 1: shrink ops then threads while the case still reproduces.

    A candidate reproduces when a cut of its family still yields a
    verdict of class ``key``; candidates that still fail, but under a
    different class, are rejected.

    Raises:
        FuzzError: when ``spec`` does not reproduce to begin with.
    """
    stats = stats if stats is not None else MinimizeStats()
    if not _reproduces(spec, stats, key):
        raise FuzzError(
            f"case does not reproduce; nothing to minimize: {spec}"
        )
    target = make_target(spec.target)
    current = spec
    for fieldname, floor in (
        ("ops", target.ops_range[0]),
        ("threads", target.thread_range[0]),
    ):
        progress = True
        while progress:
            progress = False
            for candidate_value in _shrunk_candidates(
                getattr(current, fieldname), floor
            ):
                candidate = CaseSpec(
                    **{**current.describe(), fieldname: candidate_value}
                )
                if _reproduces(candidate, stats, key):
                    current = candidate
                    progress = True
                    break
    return current


def shrink_cut(
    execution: CaseExecution,
    stats: Optional[MinimizeStats] = None,
    max_checks: int = 600,
    key: ClassKey = ORDINARY,
) -> Tuple[frozenset, Verdict]:
    """Stage 2: shrink toward a minimal consistent cut still violating.

    Starts from the first cut of the spec's family yielding class
    ``key``, restarts from the smallest such per-persist minimal cut
    inside it, then greedily removes persists (each with its in-cut
    descendants, so every candidate stays downward-closed).
    ``max_checks`` bounds the total cut judgements; the best cut so far
    is returned when the budget runs out, with its verdict.

    Raises:
        FuzzError: when no cut of the family yields ``key``.
    """
    stats = stats if stats is not None else MinimizeStats()
    graph = execution.graph
    found = _first_match(execution, key, stats)
    if found is None:
        raise FuzzError(
            f"spec stopped reproducing during cut minimization: "
            f"{execution.spec}"
        )
    cut, verdict = found

    def check(candidate) -> Optional[Verdict]:
        stats.cut_checks += 1
        return execution.judge.judge(candidate).find(key)

    # Restart from the most adversarial single-persist explanation.
    by_size = sorted(cut, key=lambda pid: (len(minimal_cut(graph, pid)), pid))
    for pid in by_size:
        candidate = minimal_cut(graph, pid)
        if len(candidate) >= len(cut):
            break
        if stats.cut_checks >= max_checks:
            return cut, verdict
        shrunk = check(candidate)
        if shrunk is not None:
            cut, verdict = candidate, shrunk
            break

    # Greedy removal: drop a persist plus its in-cut descendants.
    progress = True
    while progress and stats.cut_checks < max_checks:
        progress = False
        for pid in sorted(cut, reverse=True):
            descendants = {
                other for other in cut if pid in graph.ancestors(other)
            }
            candidate = frozenset(cut - ({pid} | descendants))
            if len(candidate) >= len(cut):
                continue
            if stats.cut_checks >= max_checks:
                break
            shrunk = check(candidate)
            if shrunk is not None:
                cut, verdict = candidate, shrunk
                progress = True
                break
    return cut, verdict


def minimize_finding(
    finding: Finding, max_cut_checks: int = 600
) -> MinimizeResult:
    """Minimize one campaign finding into a replayable repro case.

    Shrinks the workload, then the cut, both pinned to the finding's
    class key (kind, condition, repair oracle), then records the
    schedule choices of the final run and the final cut's verdict — its
    error, condition and nested-crash schedule — for the corpus.

    Raises:
        FuzzError: when the finding does not reproduce.
    """
    key = finding.class_key
    stats = MinimizeStats()
    spec = shrink_workload(finding.spec, stats, key)
    execution = execute_spec(spec)
    stats.runs += 1
    cut, verdict = shrink_cut(execution, stats, max_cut_checks, key)
    case = ReproCase.from_verdict(spec, cut, execution.choices, verdict)
    return MinimizeResult(case=case, stats=stats)


def minimize_findings(
    result: CampaignResult,
    corpus: Optional[Corpus] = None,
    limit: int = 3,
    max_cut_checks: int = 600,
) -> List[MinimizeResult]:
    """Minimize a campaign's findings (at most one per persistency model).

    Findings beyond the first per model are duplicates of the same bug
    for minimization purposes; ``limit`` additionally caps the total.
    Minimized cases are written to ``corpus`` when one is given.
    """
    minimized: List[MinimizeResult] = []
    seen_models = set()
    for finding in result.findings:
        if len(minimized) >= limit:
            break
        if finding.spec.model in seen_models:
            continue
        seen_models.add(finding.spec.model)
        outcome = minimize_finding(finding, max_cut_checks=max_cut_checks)
        if corpus is not None:
            corpus.add(outcome.case)
        minimized.append(outcome)
    return minimized
