"""Job specs, planning, merging, and the durable job journal.

A *job* is one tenant-submitted unit of work: a sharded model check, a
fuzz (or crash-recovery) campaign, a litmus sweep, or the paper's
Table 1.  Each engine module owns its kind's task form and fold —
:func:`~repro.check.shard.shard_tasks` / :class:`~repro.check.shard.ShardMerge`
for checks, :func:`~repro.fuzz.campaign.plan_shards` /
:func:`~repro.fuzz.campaign.fold_shards` for campaigns,
:func:`~repro.litmus.runner.program_task` /
:func:`~repro.litmus.runner.summarize_reports` for litmus,
:func:`~repro.harness.parallel.plan_variants` /
:meth:`~repro.harness.runner.ExperimentRunner.fold` for the paper — and this
module only maps specs onto them, so a job submitted to the daemon
computes precisely what the one-shot CLI would, and its shards
content-address into the shared :class:`~repro.harness.cache.ResultStore`.

Job lifecycle::

    submitted -> sharded -> running -> merging -> done
                                   \\-> failed
    (any non-terminal state) ------------> cancelled

Every transition — and every completed shard — is journaled to
``<state-dir>/jobs/<id>.json`` through
:func:`repro.harness.cache.atomic_write`, so a killed daemon restarts
with every job's last durable state.  Records carry a content digest of
their identity (tenant, sequence number, spec): a journal entry whose
digest no longer matches its content is quarantined and dropped rather
than trusted.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.check import CheckConfig, ShardMerge, shard_tasks
from repro.errors import ReproError, ServeError
from repro.fuzz.campaign import CampaignConfig, fold_shards, plan_shards
from repro.fuzz.targets import TARGET_CHOICES
from repro.harness import (
    ExperimentRunner,
    build_table1,
    format_table1,
    table1_cells,
)
from repro.harness.cache import atomic_write, content_digest, quarantine_file
from repro.harness.parallel import plan_variants
from repro.litmus.corpus import corpus_by_name
from repro.litmus.runner import (
    LitmusConfig,
    program_task,
    summarize_reports,
    summary_lines,
)
from repro.schema import Option, decode, decode_keys, options_of

_PathLike = Union[str, Path]

#: Job kinds the planner understands.
JOB_KINDS = ("check", "fuzz", "litmus", "paper")

#: Every state a job can be in (see the module docstring's lifecycle).
JOB_STATES = (
    "submitted",
    "sharded",
    "running",
    "merging",
    "done",
    "failed",
    "cancelled",
)

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Bump when the journal encoding changes; old records stop resuming.
JOB_FORMAT_VERSION = 1


#: The engine config each job kind describes (its spec-keyed fields).
JOB_CONFIGS = {
    "check": CheckConfig,
    "fuzz": CampaignConfig,
    "litmus": LitmusConfig,
    "paper": ExperimentRunner,
}

#: Job-level spec keys per kind, beyond the engine config's.  A check
#: job's config keys are its shardable fields only.
JOB_KEYS: Dict[str, Dict[str, Option]] = {
    "check": options_of(
        target=Option(choices=TARGET_CHOICES, noun="fuzz target"),
        threads=Option(int),
        ops=Option(int, help="operations per thread"),
        shard_depth=Option(
            int, default=2,
            help="choice-prefix depth that partitions the schedule tree",
        ),
    ),
    "fuzz": options_of(batch=Option(int, default=1)),
    "litmus": options_of(
        programs=Option(many=True, optional=True, default=None)
    ),
    "paper": options_of(
        threads=Option(
            int, many=True, default=(1, 8), cli={"default": [1, 8]},
            help="thread counts of Table 1's rows",
        )
    ),
}


def validate_spec(spec: object) -> Dict[str, object]:
    """Validate a submitted job spec; returns it unchanged.

    Raises :class:`ServeError` on a malformed spec — unknown kind,
    unknown keys, wrongly typed values, or configuration the batch
    engines reject (unknown target, model or oracle, ...).  Validation
    runs at submit time so a bad spec fails the ``submit`` request, not
    the job.
    """
    _decode(spec)
    return spec


def _decode(spec: object):
    """``(engine config, job-level values)`` of a spec; raises
    :class:`ServeError` on a malformed one."""
    if not isinstance(spec, dict):
        raise ServeError("job spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    try:
        job = decode_keys(JOB_KEYS[kind], spec)
        config = decode(
            JOB_CONFIGS[kind], spec, extra=["kind", *JOB_KEYS[kind]]
        )
        if kind == "paper":
            job["cells"] = table1_cells(job["threads"])
    except ReproError as exc:
        raise ServeError(f"invalid {kind} job spec: {exc}") from exc
    if kind == "fuzz" and job["batch"] <= 0:
        raise ServeError("fuzz job batch size must be positive")
    if kind == "litmus":
        names, by_name = job["programs"], corpus_by_name()
        missing = sorted(set(names or ()) - set(by_name))
        if missing:
            raise ServeError(
                f"unknown litmus program(s): {', '.join(missing)}"
            )
        job["programs"] = list(by_name if names is None else names)
    return config, job


def plan_job(spec: Dict[str, object]) -> List[Dict[str, object]]:
    """Expand a validated spec into its ordered shard task list.

    Every task is JSON-safe, carries its ``kind``, and is exactly what
    :func:`repro.serve.workers.execute_shard` executes — and what
    :func:`repro.harness.cache.shard_key` digests.  Planning is
    deterministic (seeded sampling, schedule-tree probing), so a
    restarted daemon re-plans a job into byte-identical tasks and every
    already-computed shard resolves from the store.
    """
    config, job = _decode(spec)
    kind = spec["kind"]
    if kind == "check":
        tasks = shard_tasks(
            job["target"], job["threads"], job["ops"], config,
            shard_depth=job["shard_depth"],
        )
        for task in tasks:
            task["kind"] = "check"
        return tasks
    if kind == "fuzz":
        return plan_shards(config, batch=job["batch"])
    if kind == "paper":
        return plan_variants(config, job["cells"])
    return [program_task(name, config) for name in job["programs"]]


def merge_job(
    spec: Dict[str, object], payloads: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Fold a job's shard payloads (in shard order) into its summary.

    The summary is a JSON-safe dict whose ``violations`` field is the
    kind's headline defect count (distinct check violations, fuzz
    violations, litmus domain mismatches, none for the paper) and whose
    ``text`` field is the same human-readable report the batch CLI
    prints.

    Raises:
        ReproError: when a check shard reported an in-band failure
            (exploration-limit overrun) — the job fails, like the
            sharded CLI run would.
    """
    config, job = _decode(spec)
    kind = spec["kind"]
    if kind == "check":
        merge = ShardMerge()
        for payload in payloads:
            merge.add(payload)
        result, reports = merge.finish()
        return {
            "kind": "check",
            "violations": len(result.distinct),
            "schedules": result.stats.schedules,
            "cuts_checked": result.stats.cuts_checked,
            "violation_occurrences": result.stats.violation_occurrences,
            "shards": len(reports),
            "stats": result.stats.describe(),
            "text": "\n".join(result.summary_lines()),
        }
    if kind == "fuzz":
        result = fold_shards(config, payloads)
        return {
            "kind": "fuzz",
            "violations": result.violations,
            "cases": result.cases,
            "violating_cases": result.violating_cases,
            "cuts_checked": result.cuts_checked,
            "silent_corruptions": result.silent_corruptions,
            "crash_violations": result.crash_violations,
            "text": result.summary(),
        }
    if kind == "paper":
        for payload in payloads:
            config.fold(payload)
        table = build_table1(config, thread_counts=job["threads"])
        return {"kind": "paper", "violations": 0, "text": format_table1(table)}
    summary = summarize_reports(
        [payload["report"] for payload in payloads], config
    )
    return {
        "kind": "litmus",
        "violations": summary["domain_mismatches"],
        **summary,
        "text": "\n".join(summary_lines(summary)),
    }


def job_id(tenant: str, seq: int, spec: Dict[str, object]) -> str:
    """Stable job identifier: digest of (tenant, sequence, spec).

    Unlike shard keys, job identity *includes* the tenant and a
    per-daemon sequence number — two tenants submitting the same spec
    get distinct jobs (which then share every shard via the store).
    """
    return content_digest(
        {
            "kind": "serve-job",
            "version": JOB_FORMAT_VERSION,
            "tenant": tenant,
            "seq": seq,
            "spec": spec,
        }
    )[:16]


@dataclass
class JobRecord:
    """One job's durable state (the journal entry and the wire form)."""

    id: str
    tenant: str
    seq: int
    spec: Dict[str, object]
    state: str = "submitted"
    shards_total: int = 0
    shards_done: int = 0
    store_hits: int = 0
    store_misses: int = 0
    violations: Optional[int] = None
    summary: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def digest(self) -> str:
        """The record's identity digest (the journal tamper guard)."""
        return job_id(self.tenant, self.seq, self.spec)

    @property
    def active(self) -> bool:
        """True while the job can still make progress."""
        return self.state not in TERMINAL_STATES

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to completion from shard throughput so far."""
        if not self.active or self.started_at is None or not self.shards_done:
            return None
        elapsed = max(0.0, time.time() - self.started_at)
        remaining = self.shards_total - self.shards_done
        return elapsed / self.shards_done * remaining

    def reset_progress(self) -> None:
        """Forget per-shard progress (a restarted daemon re-plans)."""
        self.state = "submitted"
        self.shards_total = 0
        self.shards_done = 0
        self.store_hits = 0
        self.store_misses = 0
        self.started_at = None

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe journal/wire encoding, digest guard included."""
        return {
            "version": JOB_FORMAT_VERSION, "digest": self.digest, **asdict(self)
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobRecord":
        """Rebuild a record, enforcing the identity-digest guard.

        Raises:
            ServeError: on a malformed payload, a format-version
                mismatch, or a digest that no longer matches the
                record's (tenant, seq, spec) — an edited or corrupt
                journal entry must not resume.
        """
        try:
            if payload["version"] != JOB_FORMAT_VERSION:
                raise ServeError(
                    f"journal format {payload['version']} != "
                    f"{JOB_FORMAT_VERSION}"
                )
            record = cls(
                id=str(payload["id"]),
                tenant=str(payload["tenant"]),
                seq=int(payload["seq"]),
                spec=dict(payload["spec"]),
                state=str(payload["state"]),
                shards_total=int(payload["shards_total"]),
                shards_done=int(payload["shards_done"]),
                store_hits=int(payload.get("store_hits", 0)),
                store_misses=int(payload.get("store_misses", 0)),
                violations=payload.get("violations"),
                summary=payload.get("summary"),
                error=payload.get("error"),
                submitted_at=float(payload["submitted_at"]),
                started_at=payload.get("started_at"),
                finished_at=payload.get("finished_at"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"malformed job record: {exc}") from exc
        if record.state not in JOB_STATES:
            raise ServeError(f"unknown job state {record.state!r}")
        if payload["digest"] != record.digest or record.id != record.digest:
            raise ServeError(
                f"job record digest mismatch for {record.id} (journal "
                f"entry edited or corrupt)"
            )
        return record


def record_path(jobs_dir: _PathLike, record_id: str) -> Path:
    """The journal file of one job."""
    return Path(jobs_dir) / f"{record_id}.json"


def save_record(jobs_dir: _PathLike, record: JobRecord) -> None:
    """Journal one record durably (atomic replace)."""
    import json

    atomic_write(
        record_path(jobs_dir, record.id),
        lambda stream: json.dump(record.to_payload(), stream, sort_keys=True),
    )


def load_records(jobs_dir: _PathLike) -> List[JobRecord]:
    """Load every journal entry under ``jobs_dir``, oldest first.

    Unreadable or guard-failing entries are quarantined and skipped —
    one corrupt record must not stop the daemon from resuming the rest.
    """
    import json

    jobs_dir = Path(jobs_dir)
    records = []
    for path in sorted(jobs_dir.glob("*.json")):
        try:
            with open(path, "r", encoding="utf-8") as stream:
                payload = json.load(stream)
            records.append(JobRecord.from_payload(payload))
        except (
            OSError,
            UnicodeDecodeError,
            ValueError,
            ServeError,
        ) as exc:
            quarantine_file(path, f"unreadable job record: {exc}")
    records.sort(key=lambda record: record.seq)
    return records

