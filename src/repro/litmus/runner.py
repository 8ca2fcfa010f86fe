"""Litmus runner: execute a corpus under every model, differentially.

For each program the runner explores the TSO schedule space once (DPOR
via the check engine, prefix-sharing replay), then analyzes every
explored schedule under each requested persistency model and dependency
domain (only the events a schedule adds to the prefix it shares with
the previous one).  An *outcome* is the pair

    (regs, mem)

where ``regs`` are the per-thread register tuples the schedule produced
(volatile observations) and ``mem`` the per-location persisted values at
one consistent cut of that schedule's persist DAG (a crash state the
model admits).  The set of outcomes a model allows is its observable
behaviour; the differential report lists, pairwise, the outcomes one
model allows and another forbids — and any bitset-vs-frozenset domain
mismatch, which would be an implementation bug rather than a semantic
difference.

The module also owns the litmus job form: one :func:`program_task` per
corpus program, executed by :func:`run_program_task` and folded by
:func:`summarize_reports`, registered as the ``litmus`` job kind
(:data:`LITMUS_JOB`) that ``repro serve`` runs as shards.
:func:`run_corpus` runs a program list in-process instead, since
generated programs have no corpus name a task could carry.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.check.canonical import canonical_dag_key
from repro.check.checker import GRAPH_DOMAINS
from repro.check.engine import Engine
from repro.core.analysis import PrefixSharedAnalysis
from repro.core.model import MODEL_CHOICES, validate_models
from repro.core.recovery import cut_bytes, enumerate_cut_masks
from repro.errors import RecoveryError, ReproError
from repro.harness.parallel import JobKind
from repro.litmus.corpus import corpus_by_name
from repro.litmus.program import CELL_SIZE, LitmusError, LitmusProgram
from repro.schema import Option, decode, encode, option, options_of
from repro.sim.scheduler import Scheduler

#: An outcome: (per-thread register tuples, per-location persisted values).
Outcome = Tuple[Tuple[tuple, ...], Tuple[int, ...]]

#: Models a corpus run compares by default.
DEFAULT_MODELS = ("strict", "epoch", "strand", "px86", "dpox86")
#: Default bound on explored schedules per program.
DEFAULT_MAX_SCHEDULES = 20_000
#: Default bound on enumerated cuts per persist DAG.
DEFAULT_CUT_LIMIT = 50_000


@dataclass(frozen=True)
class LitmusConfig:
    """What a litmus run compares: the models and dependency domains
    each program is analyzed under, and the per-program bounds.

    The one description of a litmus job — ``repro litmus run`` flags,
    ``repro serve`` litmus specs and :func:`program_task` shard tasks
    (see :mod:`repro.schema`).
    """

    models: Tuple[str, ...] = option(
        DEFAULT_MODELS, many=True, choices=MODEL_CHOICES,
        noun="persistency model", flag="--model",
        cli={"dest": "models", "action": "append", "nargs": None},
        help="persistency model(s) to compare (default: strict epoch "
        "strand px86 dpox86)",
    )
    domains: Tuple[str, ...] = option(
        ("bitset",), many=True, choices=GRAPH_DOMAINS,
        noun="dependency domain", flag="--domain",
        cli={"nargs": None, "default": "bitset"},
        help="dependency domain for the persist DAG (default bitset; the "
        "level domain cannot materialise DAGs)",
    )
    max_schedules: int = option(
        DEFAULT_MAX_SCHEDULES, type=int,
        help="DPOR schedule budget per program",
    )
    cut_limit: int = option(
        DEFAULT_CUT_LIMIT, type=int,
        help="consistent-cut budget per persist DAG",
    )

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ReproError` on unusable models or
        domains."""
        validate_models(self.models)
        if not self.domains or not set(self.domains) <= set(GRAPH_DOMAINS):
            raise ReproError(
                f"litmus domains {self.domains!r} must be one or more of "
                f"{GRAPH_DOMAINS}"
            )


class _LitmusCheckProgram:
    """CheckProgram adapter so prefix-sharing replay applies."""

    def __init__(self, program: LitmusProgram) -> None:
        self._program = program
        self.addrs: Dict[str, int] = {}

    def build(self, scheduler: Scheduler):
        machine, self.addrs = self._program.build(scheduler)
        return machine

    def finish(self, machine):
        return machine.trace, tuple(t.result for t in machine.threads)


def _cut_values(
    graph, cut: int, addrs: Dict[str, int], locations: Sequence[str]
) -> Tuple[int, ...]:
    """Per-location values after persisting exactly ``cut`` (a mask)
    over all-zero cells."""
    overlay = cut_bytes(graph, cut)
    values = []
    for loc in locations:
        base = addrs[loc]
        value = 0
        for offset in range(CELL_SIZE):
            value |= overlay.get(base + offset, 0) << (8 * offset)
        values.append(value)
    return tuple(values)


def run_program(
    program: LitmusProgram,
    models: Sequence[str],
    domains: Sequence[str] = ("bitset",),
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> dict:
    """Run one litmus program under every model; returns its report dict.

    ``domains`` lists the dependency domains to analyze under; outcome
    sets are computed per (model, domain) and any difference between
    domains is reported as a ``domain_mismatch`` (the lockstep property
    says there must be none).
    """
    program.validate()
    adapter = _LitmusCheckProgram(program)
    engine = Engine(adapter, reduction="dpor", max_schedules=max_schedules)
    allowed: Dict[str, Dict[str, Set[Outcome]]] = {
        model: {domain: set() for domain in domains} for model in models
    }
    dag_keys: Dict[str, Set[str]] = {model: set() for model in models}
    seen: Dict[Tuple[str, str], Set[tuple]] = {
        (model, domain): set() for model in models for domain in domains
    }
    schedules = 0
    cut_limit_exceeded: Set[str] = set()
    analysis = PrefixSharedAnalysis(models, domains)
    for run in engine.explore():
        trace, regs = run.result
        schedules += 1
        graphs = analysis.advance(trace, run.shared_events)
        for model in models:
            for domain in domains:
                graph = graphs[model, domain]
                key = (canonical_dag_key(graph), regs)
                if key in seen[(model, domain)]:
                    continue
                seen[(model, domain)].add(key)
                dag_keys[model].add(key[0])
                outcomes = allowed[model][domain]
                try:
                    for cut in enumerate_cut_masks(graph, limit=cut_limit):
                        outcomes.add(
                            (
                                regs,
                                _cut_values(
                                    graph,
                                    cut,
                                    adapter.addrs,
                                    program.locations,
                                ),
                            )
                        )
                except RecoveryError:
                    # One oversized persist DAG must not abort the whole
                    # corpus run; record the truncation so the report
                    # says this model's outcome set is a lower bound.
                    cut_limit_exceeded.add(model)
    primary = domains[0]
    # Truncated enumerations may hold different partial sets per domain;
    # only untruncated models can witness a real lockstep violation.
    domain_mismatches = [
        model
        for model in models
        if model not in cut_limit_exceeded
        and any(
            allowed[model][domain] != allowed[model][primary]
            for domain in domains[1:]
        )
    ]
    universe: Set[Outcome] = set()
    for model in models:
        universe |= allowed[model][primary]
    report = {
        "name": program.name,
        "description": program.description,
        "tags": list(program.tags),
        "locations": list(program.locations),
        "schedules": schedules,
        "dags": {model: len(dag_keys[model]) for model in models},
        "outcomes": {
            model: [
                _outcome_json(outcome, program.locations)
                for outcome in _sorted_outcomes(allowed[model][primary])
            ]
            for model in models
        },
        "allowed": {model: len(allowed[model][primary]) for model in models},
        "forbidden": {
            model: len(universe - allowed[model][primary]) for model in models
        },
        "disagreements": _disagreements(
            {model: allowed[model][primary] for model in models},
            program.locations,
        ),
        "domain_mismatches": domain_mismatches,
        "cut_limit_exceeded": sorted(cut_limit_exceeded),
    }
    return report


def _sorted_outcomes(outcomes: Set[Outcome]) -> List[Outcome]:
    return sorted(outcomes)


def _outcome_json(outcome: Outcome, locations: Sequence[str]) -> dict:
    regs, mem = outcome
    return {
        "regs": [list(thread_regs) for thread_regs in regs],
        "mem": {loc: value for loc, value in zip(locations, mem)},
    }


def _disagreements(
    allowed: Dict[str, Set[Outcome]], locations: Sequence[str]
) -> List[dict]:
    """Pairwise allowed/forbidden differences between models."""
    models = list(allowed)
    rows = []
    for i, left in enumerate(models):
        for right in models[i + 1 :]:
            left_only = allowed[left] - allowed[right]
            right_only = allowed[right] - allowed[left]
            if not left_only and not right_only:
                continue
            rows.append(
                {
                    "left": left,
                    "right": right,
                    "left_only": [
                        _outcome_json(o, locations)
                        for o in _sorted_outcomes(left_only)
                    ],
                    "right_only": [
                        _outcome_json(o, locations)
                        for o in _sorted_outcomes(right_only)
                    ],
                }
            )
    return rows


def program_task(name: str, config: LitmusConfig = LitmusConfig()) -> dict:
    """The JSON-safe task running one named corpus program."""
    return {"kind": "litmus", "program": name, **encode(config)}


def run_program_task(task: dict) -> dict:
    """Worker entry point: run one :func:`program_task`; returns
    ``{"kind": "litmus", "report": ...}``."""
    config = decode(LitmusConfig, task, extra=("kind", "program"))
    program = corpus_by_name()[str(task["program"])]
    report = run_program(program, **asdict(config))
    return {"kind": "litmus", "report": report}


def summarize_reports(reports: Sequence[dict], config: LitmusConfig) -> dict:
    """The corpus summary of per-program reports (pinnable counts)."""
    return {
        "programs": len(reports),
        "models": list(config.models),
        "domains": list(config.domains),
        "schedules": sum(r["schedules"] for r in reports),
        "allowed": sum(sum(r["allowed"].values()) for r in reports),
        "forbidden": sum(sum(r["forbidden"].values()) for r in reports),
        "disagreement_pairs": sum(len(r["disagreements"]) for r in reports),
        "programs_with_disagreements": sum(
            1 for r in reports if r["disagreements"]
        ),
        "domain_mismatches": sum(
            len(r["domain_mismatches"]) for r in reports
        ),
        "cut_limit_exceeded": sum(
            1 for r in reports if r["cut_limit_exceeded"]
        ),
    }


def summary_lines(summary: dict) -> List[str]:
    """The human-readable report of a :func:`summarize_reports` dict."""
    lines = [
        f"litmus: programs={summary['programs']} "
        f"models={','.join(summary['models'])} "
        f"domains={','.join(summary['domains'])}",
        f"litmus: schedules={summary['schedules']} "
        f"allowed={summary['allowed']} forbidden={summary['forbidden']}",
        f"litmus: disagreement pairs={summary['disagreement_pairs']} "
        f"programs with disagreements="
        f"{summary['programs_with_disagreements']}",
        f"litmus: domain mismatches={summary['domain_mismatches']}",
    ]
    if summary["cut_limit_exceeded"]:
        lines.append(
            f"litmus: cut limit exceeded in "
            f"{summary['cut_limit_exceeded']} program(s) — "
            f"their outcome sets are lower bounds"
        )
    return lines


def run_corpus(
    programs: Sequence[LitmusProgram], config: LitmusConfig = LitmusConfig()
) -> dict:
    """Run a corpus under ``config``; returns the full differential
    report dict."""
    config.validate()
    reports = [run_program(program, **asdict(config)) for program in programs]
    return {
        "summary": summarize_reports(reports, config),
        "programs": reports,
    }


def _check_litmus_job(config: LitmusConfig, job: Dict[str, object]) -> None:
    names, by_name = job["programs"], corpus_by_name()
    missing = sorted(set(names or ()) - set(by_name))
    if missing:
        raise LitmusError(f"unknown litmus program(s): {', '.join(missing)}")
    job["programs"] = list(by_name if names is None else names)


def _fold_litmus(
    config: LitmusConfig, job: Dict[str, object], payloads: Sequence[dict]
) -> dict:
    reports = [payload["report"] for payload in payloads]
    summary = summarize_reports(reports, config)
    return {
        "violations": summary["domain_mismatches"],
        **summary,
        "text": "\n".join(summary_lines(summary)),
    }


#: A litmus sweep as a job: one :func:`program_task` per named corpus
#: program (the whole default corpus when ``programs`` is absent), whose
#: headline defect count is the bitset-vs-frozenset domain mismatches.
LITMUS_JOB = JobKind(
    name="litmus",
    config=LitmusConfig,
    keys=options_of(programs=Option(many=True, optional=True, default=None)),
    plan=lambda config, job: [
        program_task(name, config) for name in job["programs"]
    ],
    worker=run_program_task,
    fold=_fold_litmus,
    validate=_check_litmus_job,
)


def save_report(report: dict, path: str) -> None:
    """Write a report dict as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
