"""Job specs, planning, merging, shard execution, and the job journal.

A *job* is one tenant-submitted unit of work: a sharded model check, a
fuzz (or crash-recovery) campaign, a litmus sweep, or the paper's
Table 1.  Each engine module registers its kind as one
:class:`~repro.harness.parallel.JobKind` (spec schema, plan, worker,
fold, summary) and this module only looks a spec's or task's kind up
in :data:`JOB_KINDS`, so a job submitted to the daemon computes
precisely what the one-shot CLI would, and its shards content-address
into the shared :class:`~repro.harness.cache.ResultStore`.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.check.shard import CHECK_JOB
from repro.errors import ReproError, ServeError
from repro.fuzz.campaign import FUZZ_JOB
from repro.harness.cache import atomic_write, content_digest, quarantine_file
from repro.harness.parallel import PAPER_JOB, JobKind
from repro.litmus.runner import LITMUS_JOB
from repro.schema import decode_keys, encode, option, options

_PathLike = Union[str, Path]

#: Every job kind the daemon runs, by name.
JOB_KINDS: Dict[str, JobKind] = {
    kind.name: kind for kind in (CHECK_JOB, FUZZ_JOB, LITMUS_JOB, PAPER_JOB)
}

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


def _kind(name: object, noun: str) -> JobKind:
    """The kind registered as ``name``; raises :class:`ServeError`
    naming the ``noun`` when there is none."""
    if isinstance(name, str) and name in JOB_KINDS:
        return JOB_KINDS[name]
    raise ServeError(
        f"unknown {noun} kind {name!r}; expected one of {tuple(JOB_KINDS)}"
    )


def _decode(spec: object) -> Tuple[JobKind, object, Dict[str, object]]:
    """``(kind, engine config, job-level values)`` of a spec; raises
    :class:`ServeError` on a malformed one."""
    if not isinstance(spec, dict):
        raise ServeError("job spec must be a JSON object")
    kind = _kind(spec.get("kind"), "job")
    try:
        config, job = kind.decode(spec)
    except ReproError as exc:
        raise ServeError(f"invalid {kind.name} job spec: {exc}") from exc
    return kind, config, job


def plan_job(spec: Dict[str, object]) -> List[Dict[str, object]]:
    """Expand a validated spec into its ordered shard task list.

    Every task is JSON-safe, carries its ``kind``, and is exactly what
    :func:`execute_shard` executes — and what
    :func:`repro.harness.cache.shard_key` digests.  Planning is
    deterministic (seeded sampling, schedule-tree probing), so a
    restarted daemon re-plans a job into byte-identical tasks and every
    already-computed shard resolves from the store.
    """
    kind, config, job = _decode(spec)
    return kind.plan(config, job)


def execute_shard(task: Dict[str, object]) -> Dict[str, object]:
    """Run one shard task of any kind; returns its JSON-safe payload.

    Module-level so it pickles into the daemon's
    :class:`~repro.harness.parallel.TaskPool` workers; it runs the
    task's kind's engine worker, so a shard computed by the daemon is
    byte-identical to one a batch run computes.
    """
    return _kind(task.get("kind"), "shard").worker(task)


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
    kind, config, job = _decode(spec)
    return {"kind": kind.name, **kind.fold(config, job, payloads)}


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

    id: str = option()
    tenant: str = option()
    seq: int = option(type=int)
    spec: Dict[str, object] = option(type=object, keyed=True)
    state: str = option("submitted", choices=JOB_STATES, noun="job state")
    shards_total: int = option(0, type=int)
    shards_done: int = option(0, type=int)
    store_hits: int = option(0, type=int)
    store_misses: int = option(0, type=int)
    violations: Optional[int] = option(None, type=int, optional=True)
    summary: Optional[Dict[str, object]] = option(
        None, type=object, keyed=True, optional=True
    )
    error: Optional[str] = option(None, optional=True)
    submitted_at: float = option(default_factory=time.time, type=float)
    started_at: Optional[float] = option(None, type=float, optional=True)
    finished_at: Optional[float] = option(None, type=float, optional=True)

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
            **encode(self),
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
        if not isinstance(payload, dict):
            raise ServeError(f"malformed job record: {payload!r}")
        if payload.get("version") != JOB_FORMAT_VERSION:
            raise ServeError(
                f"journal format {payload.get('version')} != "
                f"{JOB_FORMAT_VERSION}"
            )
        try:
            record = cls(**decode_keys(options(cls), payload))
        except ReproError as exc:
            raise ServeError(f"malformed job record: {exc}") from exc
        digest = record.digest
        if payload.get("digest") != digest or record.id != digest:
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

