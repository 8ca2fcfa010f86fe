"""Crash-consistency fuzzing: schedule × failure-cut campaigns.

The recovery observer (Section 4 of the paper) makes crash consistency
checkable: a workload is correct iff its recovery invariant holds at
*every* consistent cut of the persist DAG.  This package turns that
check into a fuzzer — sample a schedule, run a recoverable workload
under it, sample failure cuts of the resulting DAG, and check recovery
at each — with delta-debugging minimization of counterexamples and a
disk corpus of deterministic, replayable repro files.

Layout: :mod:`~repro.fuzz.targets` registers workloads behind one
build/run/check interface; :mod:`~repro.fuzz.campaign` samples cases
and owns the campaign's shard plan, worker, and fold;
:mod:`~repro.fuzz.minimize` shrinks findings; and
:mod:`~repro.fuzz.corpus` stores and replays them.

Campaigns optionally compose with :mod:`repro.inject` — a configured
fault axis injects torn / dropped / corrupted persists into every cut
image and classifies each as masked, detected, undetected, or (the
failing verdict for hardened targets) silent corruption.
"""

from repro.fuzz.campaign import (
    CUT_FAMILIES,
    CampaignConfig,
    CampaignResult,
    CaseOutcome,
    CaseSpec,
    CaseViolation,
    Finding,
    case_tasks,
    execute_spec,
    fold_shards,
    outcome_from_wire,
    outcome_to_wire,
    plan_shards,
    run_campaign,
    run_case,
    run_case_task,
    run_shard,
    sample_specs,
)
from repro.fuzz.corpus import (
    Corpus,
    ReplayResult,
    ReproCase,
    case_from_check,
    export_check_violations,
    replay_case,
)
from repro.fuzz.minimize import (
    MinimizeResult,
    MinimizeStats,
    minimize_finding,
    minimize_findings,
    shrink_cut,
    shrink_workload,
)
from repro.fuzz.targets import TARGETS, FuzzTarget, TargetRun, make_target

__all__ = [
    "CUT_FAMILIES",
    "CampaignConfig",
    "CampaignResult",
    "CaseOutcome",
    "CaseSpec",
    "CaseViolation",
    "Corpus",
    "Finding",
    "FuzzTarget",
    "MinimizeResult",
    "MinimizeStats",
    "ReplayResult",
    "ReproCase",
    "TARGETS",
    "TargetRun",
    "case_from_check",
    "case_tasks",
    "execute_spec",
    "fold_shards",
    "export_check_violations",
    "make_target",
    "outcome_from_wire",
    "outcome_to_wire",
    "plan_shards",
    "run_case_task",
    "run_shard",
    "minimize_finding",
    "minimize_findings",
    "replay_case",
    "run_campaign",
    "run_case",
    "sample_specs",
    "shrink_cut",
    "shrink_workload",
]
