"""Job specs, planning, merging, and the durable job journal.

A *job* is one tenant-submitted unit of checking work: a sharded model
check, a fuzz (or crash-recovery) campaign, or a litmus sweep.  Each
engine module owns its kind's task form and fold —
:func:`~repro.check.shard.shard_tasks` / :class:`~repro.check.shard.ShardMerge`
for checks, :func:`~repro.fuzz.campaign.plan_shards` /
:func:`~repro.fuzz.campaign.fold_shards` for campaigns,
:func:`~repro.litmus.runner.program_task` /
:func:`~repro.litmus.runner.summarize_reports` for litmus — and this
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.check import CheckConfig, ShardMerge, shard_tasks
from repro.errors import ReproError, ServeError
from repro.fuzz.campaign import CampaignConfig, fold_shards, plan_shards
from repro.harness.cache import atomic_write, content_digest, quarantine_file
from repro.litmus.runner import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_MAX_SCHEDULES,
    DEFAULT_MODELS as _LITMUS_DEFAULT_MODELS,
    program_task,
    summarize_reports,
    summary_lines,
)

_PathLike = Union[str, Path]

#: Job kinds the planner understands.
JOB_KINDS = ("check", "fuzz", "litmus")

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

#: Spec keys accepted per kind (beyond the mandatory ``kind``).
_CHECK_KEYS = frozenset(
    {
        "target",
        "threads",
        "ops",
        "models",
        "max_schedules",
        "max_cuts",
        "stop_at_first",
        "oracle",
        "shard_depth",
    }
)
_FUZZ_KEYS = frozenset(
    {
        "target",
        "budget",
        "models",
        "schedulers",
        "seed",
        "cut_samples",
        "faults",
        "oracle",
        "crash_recovery",
        "batch",
    }
)
_LITMUS_KEYS = frozenset(
    {"programs", "models", "domains", "max_schedules", "cut_limit"}
)


def _reject_unknown(spec: Dict[str, object], allowed: frozenset) -> None:
    unknown = sorted(set(spec) - allowed - {"kind"})
    if unknown:
        raise ServeError(
            f"unknown {spec['kind']} job spec key(s): {', '.join(unknown)}"
        )


def _check_config(spec: Dict[str, object]) -> CheckConfig:
    defaults = CheckConfig()
    return CheckConfig(
        models=tuple(spec.get("models", defaults.models)),
        max_schedules=spec.get("max_schedules", defaults.max_schedules),
        max_cuts_per_graph=int(
            spec.get("max_cuts", defaults.max_cuts_per_graph)
        ),
        stop_at_first=bool(spec.get("stop_at_first", False)),
        oracle=str(spec.get("oracle", "invariant")),
    )


def _campaign_config(spec: Dict[str, object]) -> CampaignConfig:
    defaults = CampaignConfig(target=str(spec["target"]))
    return CampaignConfig(
        target=str(spec["target"]),
        budget=int(spec.get("budget", defaults.budget)),
        models=tuple(spec.get("models", defaults.models)),
        schedulers=tuple(spec.get("schedulers", defaults.schedulers)),
        seed=int(spec.get("seed", 0)),
        cut_samples=int(spec.get("cut_samples", defaults.cut_samples)),
        faults=tuple(spec.get("faults", ())),
        oracle=str(spec.get("oracle", "invariant")),
        crash_recovery=int(spec.get("crash_recovery", 0)),
    )


def _litmus_programs(spec: Dict[str, object]):
    from repro.litmus.corpus import corpus_by_name

    by_name = corpus_by_name()
    names = spec.get("programs")
    if names is None:
        return list(by_name)
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ServeError(
            f"unknown litmus program(s): {', '.join(sorted(missing))}"
        )
    return [str(name) for name in names]


def validate_spec(spec: object) -> Dict[str, object]:
    """Validate a submitted job spec; returns it unchanged.

    Raises :class:`ServeError` on a malformed spec — unknown kind,
    unknown keys, or per-kind configuration the batch engines reject
    (unknown target, bad oracle, ...).  Validation runs at submit time
    so a bad spec fails the ``submit`` request, not the job.
    """
    if not isinstance(spec, dict):
        raise ServeError("job spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    try:
        if kind == "check":
            _reject_unknown(spec, _CHECK_KEYS)
            for key in ("target", "threads", "ops"):
                if key not in spec:
                    raise ServeError(f"check job spec is missing {key!r}")
            _check_config(spec)
            from repro.fuzz.targets import make_target

            make_target(str(spec["target"]))
        elif kind == "fuzz":
            _reject_unknown(spec, _FUZZ_KEYS)
            if "target" not in spec:
                raise ServeError("fuzz job spec is missing 'target'")
            if int(spec.get("batch", 1)) <= 0:
                raise ServeError("fuzz job batch size must be positive")
            _campaign_config(spec).validate()
        else:
            _reject_unknown(spec, _LITMUS_KEYS)
            _litmus_programs(spec)
    except ServeError:
        raise
    except ReproError as exc:
        raise ServeError(f"invalid {kind} job spec: {exc}") from exc
    return spec


def plan_job(spec: Dict[str, object]) -> List[Dict[str, object]]:
    """Expand a validated spec into its ordered shard task list.

    Every task is JSON-safe, carries its ``kind``, and is exactly what
    :func:`repro.serve.workers.execute_shard` executes — and what
    :func:`repro.harness.cache.shard_key` digests.  Planning is
    deterministic (seeded sampling, schedule-tree probing), so a
    restarted daemon re-plans a job into byte-identical tasks and every
    already-computed shard resolves from the store.
    """
    kind = spec["kind"]
    if kind == "check":
        tasks = shard_tasks(
            str(spec["target"]),
            int(spec["threads"]),
            int(spec["ops"]),
            _check_config(spec),
            shard_depth=int(spec.get("shard_depth", 2)),
        )
        for task in tasks:
            task["kind"] = "check"
        return tasks
    if kind == "fuzz":
        return plan_shards(
            _campaign_config(spec), batch=int(spec.get("batch", 1))
        )
    return [
        program_task(
            name,
            spec.get("models", _LITMUS_DEFAULT_MODELS),
            domains=spec.get("domains", ("bitset",)),
            max_schedules=spec.get("max_schedules", DEFAULT_MAX_SCHEDULES),
            cut_limit=spec.get("cut_limit", DEFAULT_CUT_LIMIT),
        )
        for name in _litmus_programs(spec)
    ]


def merge_job(
    spec: Dict[str, object], payloads: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Fold a job's shard payloads (in shard order) into its summary.

    The summary is a JSON-safe dict whose ``violations`` field is the
    kind's headline defect count (distinct check violations, fuzz
    violations, litmus domain mismatches) and whose ``text`` field is
    the same human-readable report the batch CLI prints.

    Raises:
        ReproError: when a check shard reported an in-band failure
            (exploration-limit overrun) — the job fails, like the
            sharded CLI run would.
    """
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
        result = fold_shards(_campaign_config(spec), payloads)
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
    summary = summarize_reports(
        [payload["report"] for payload in payloads],
        spec.get("models", _LITMUS_DEFAULT_MODELS),
        spec.get("domains", ("bitset",)),
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
            "version": JOB_FORMAT_VERSION,
            "digest": self.digest,
            "id": self.id,
            "tenant": self.tenant,
            "seq": self.seq,
            "spec": self.spec,
            "state": self.state,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "violations": self.violations,
            "summary": self.summary,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
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

