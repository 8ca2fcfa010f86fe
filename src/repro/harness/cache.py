"""Content-addressed on-disk result store and the harness's wire types.

Every engine that fans work out — the paper grid (Table 1, Figures
3-5), the fuzz campaign, the model checker's prefix shards, the litmus
corpus and ``repro serve`` — plans JSON-safe task dicts whose result is
a pure function of the task.  :class:`ResultStore` keeps those results
under the SHA-256 of the task's canonical JSON (:func:`shard_key`), so
a result computed once is served to every later run, process or tenant
that plans the same task.  That sharing is only sound because every
seed a task carries derives process-independently (see
:func:`repro.harness.runner.derive_seed`).

Each entry is written with the digest of its payload and checked on
read: a missing, truncated, edited or old-format entry degrades to a
**miss** (the corrupt file is quarantined aside) rather than crashing
or poisoning a run.  Writes go through a temp file plus
:func:`os.replace` so concurrent workers racing on one key leave a
complete entry either way.  It is the one resume mechanism of the
paper harness (``repro table1/figures --cache-dir DIR``), the batch
campaign (``repro fuzz run --checkpoint DIR``) and the daemon.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.analysis import AnalysisConfig, AnalysisResult
from repro.errors import CacheError

_PathLike = Union[str, Path]

#: Suffix appended to corrupt files set aside by :func:`quarantine_file`.
QUARANTINE_SUFFIX = ".quarantined"


def atomic_write(path: _PathLike, writer) -> None:
    """Write a file via a private temp file and rename into place.

    ``writer`` receives the open text stream.  Used by the result store,
    the fuzz corpus and the serve job journal so that
    concurrent writers and crashes leave either the old complete file or
    a new complete one — never a truncated hybrid.

    Concurrency contract (*per-key last-writer-wins*): every writer gets
    its own ``mkstemp`` temp file (unique name, O_EXCL), fills and
    fsyncs it privately, and only then publishes it with one atomic
    :func:`os.replace` onto the shared path.  N processes racing on one
    key therefore perform N disjoint writes and N atomic renames; the
    final content is exactly one writer's complete payload, and every
    concurrent reader observes some complete payload — interleaved or
    torn entries are impossible by construction.  The temp name is
    dot-prefixed so directory globs (corpus listings, store scans) never
    observe half-written entries.
    """
    path = Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            writer(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def quarantine_file(path: _PathLike, reason: str) -> Optional[Path]:
    """Set a corrupt file aside (``*.quarantined``) with a warning.

    The original path is freed (callers treat it as a miss and
    regenerate), but the bytes are kept for postmortem instead of being
    deleted.  Returns the quarantine path, or None when the rename
    failed (e.g. the file vanished underneath us).
    """
    path = Path(path)
    destination = path.with_name(path.name + QUARANTINE_SUFFIX)
    try:
        os.replace(path, destination)
    except OSError:
        return None
    warnings.warn(
        f"quarantined corrupt file {path} -> {destination.name}: {reason}",
        RuntimeWarning,
        stacklevel=2,
    )
    return destination

#: AnalysisResult scalar fields stored verbatim in the JSON payload.
_ANALYSIS_SCALARS = (
    "critical_path",
    "persist_count",
    "persist_stores",
    "coalesced",
    "events",
    "barriers",
    "strands",
)


def content_digest(payload: Dict[str, object]) -> str:
    """Stable hex digest of a JSON-serializable payload.

    The store's content-addressing primitive (canonical JSON, SHA-256),
    also used by the ``repro.fuzz`` corpus to name repro files — stable
    across processes and ``PYTHONHASHSEED`` values by construction.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def analysis_to_payload(result: AnalysisResult) -> Dict[str, object]:
    """Serialize an :class:`AnalysisResult`'s model, config and scalars
    to a JSON dict (no graph, no per-level or per-block histograms: the
    tables and figures read only the scalars)."""
    payload: Dict[str, object] = {
        "model": result.model, "config": asdict(result.config)
    }
    for name in _ANALYSIS_SCALARS:
        payload[name] = getattr(result, name)
    return payload


def analysis_from_payload(payload: Dict[str, object]) -> AnalysisResult:
    """Rebuild an :class:`AnalysisResult` from its JSON dict (keys it
    does not read, such as an older entry's histograms, are ignored)."""
    try:
        config = AnalysisConfig(**payload["config"])
        scalars = {name: int(payload[name]) for name in _ANALYSIS_SCALARS}
        return AnalysisResult(model=payload["model"], config=config, **scalars)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed analysis payload: {exc}") from exc


@dataclass
class HarnessStats:
    """Per-stage work and cache-hit counters for one harness run.

    ``workload_runs`` counts traces actually executed (the expensive
    simulator stage); a fully warm store run keeps it at zero.  A paper
    grid variant served from the store counts one workload disk hit and
    one analysis disk hit per cell.
    """

    workload_runs: int = 0
    workload_memory_hits: int = 0
    workload_disk_hits: int = 0
    analysis_runs: int = 0
    analysis_memory_hits: int = 0
    analysis_disk_hits: int = 0
    cache_evictions: int = 0
    trace_seconds: float = 0.0
    analysis_seconds: float = 0.0
    #: fan_out resilience counters (see repro.harness.parallel.fan_out).
    task_retries: int = 0
    task_timeouts: int = 0
    task_failures: int = 0
    #: Worker invocations, counting every retry: a task that succeeds on
    #: its third try contributes 3.  ``task_attempts - task_retries``
    #: recovers the task count, so retried-then-failed tasks are
    #: distinguishable from first-try failures in campaign summaries.
    task_attempts: int = 0
    #: Final exception type per *failed* task (``"TimeoutError"`` for
    #: deadline expiries), e.g. ``{"RecoveryError": 2}``.
    failure_exception_types: Dict[str, int] = field(default_factory=dict)
    #: Result-store counters (see :class:`ResultStore`): a hit is a
    #: shard served from an earlier computation (any tenant, any run).
    store_hits: int = 0
    store_misses: int = 0

    def merge(self, other: "HarnessStats") -> None:
        """Fold another stats object (e.g. a worker's) into this one."""
        for name in self.__dataclass_fields__:
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, name, mine + theirs)

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe wire encoding (worker results, socket protocol).

        Dict-valued counters are copied, so mutating the payload never
        aliases the live stats object.
        """
        payload: Dict[str, object] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            payload[name] = dict(value) if isinstance(value, dict) else value
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "HarnessStats":
        """Rebuild stats from :meth:`to_payload` output.

        Tolerant in both directions: fields missing from the payload
        (written by an older worker) keep their defaults, and unknown
        keys (written by a newer one) are ignored — so stats can cross
        process and socket boundaries between mixed versions.
        """
        try:
            known = {
                name: payload[name]
                for name in cls.__dataclass_fields__
                if name in payload
            }
            return cls(**known)
        except (TypeError, ValueError) as exc:
            raise CacheError(f"malformed stats payload: {exc}") from exc

    def report(self) -> str:
        """Multi-line human-readable stats report."""
        store_line = []
        if self.store_hits or self.store_misses:
            total = self.store_hits + self.store_misses
            store_line.append(
                f"  store:     {self.store_hits}/{total} shard(s) served "
                f"from the shared result store"
            )
        return "\n".join(
            [
                "harness stats:",
                (
                    f"  workloads: {self.workload_runs} traced "
                    f"({self.trace_seconds:.2f}s), "
                    f"{self.workload_disk_hits} disk hit(s), "
                    f"{self.workload_memory_hits} memory hit(s)"
                ),
                (
                    f"  analyses:  {self.analysis_runs} run "
                    f"({self.analysis_seconds:.2f}s), "
                    f"{self.analysis_disk_hits} disk hit(s), "
                    f"{self.analysis_memory_hits} memory hit(s)"
                ),
                f"  cache:     {self.cache_evictions} corrupt entrie(s) evicted",
                (
                    f"  tasks:     {self.task_attempts} attempt(s), "
                    f"{self.task_retries} retrie(s), "
                    f"{self.task_timeouts} timeout(s), "
                    f"{self.task_failures} failed cell(s)"
                    + (
                        " — failures: "
                        + ", ".join(
                            f"{name} x{count}"
                            for name, count in sorted(
                                self.failure_exception_types.items()
                            )
                        )
                        if self.failure_exception_types
                        else ""
                    )
                ),
            ]
            + store_line
        )


#: Bump when the shard task or result encoding changes; old entries
#: stop matching (their keys change) rather than deserializing wrongly.
STORE_FORMAT_VERSION = 1


def shard_key(task: Dict[str, object]) -> str:
    """Content digest addressing one shard task's result.

    ``task`` must be the exact JSON-safe dict the shard worker executes
    — everything that determines the result (kind, target coordinates,
    bounds, prefix or case specs) and nothing that does not (tenant, job
    id, worker count, timeouts).
    """
    return content_digest(
        {
            "kind": "serve-shard",
            "version": STORE_FORMAT_VERSION,
            "task": task,
        }
    )


class ResultStore:
    """Digest-addressed shard results rooted at one directory.

    Each entry holds its payload together with the payload's SHA-256.
    A missing entry is a miss; an entry that does not parse, lacks the
    digest (an older format) or whose payload no longer matches it is
    quarantined (``*.quarantined``) and reported as a miss — a
    half-written, edited or bit-rotted result must never poison a run.
    Writes go through :func:`atomic_write`, so racing workers computing
    the same shard leave one complete payload (per-key last-writer-wins;
    both computed the same pure function).  Tenant identity is never
    part of a key: identical work submitted twice is computed once.
    """

    def __init__(
        self, root: _PathLike, stats: Optional[HarnessStats] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = stats if stats is not None else HarnessStats()

    def path_for(self, key: str) -> Path:
        """File holding the shard result with content digest ``key``."""
        return self.root / f"{key}.result.json"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result payload for ``key``, or None on a miss."""
        path = self.path_for(key)
        if not path.exists():
            self.stats.store_misses += 1
            return None
        try:
            with open(path, "r", encoding="utf-8") as stream:
                entry = json.load(stream)
            if not isinstance(entry, dict) or not isinstance(
                entry.get("payload"), dict
            ):
                raise ValueError("not a digest-stamped result")
            payload = entry["payload"]
            if content_digest(payload) != entry.get("sha256"):
                raise ValueError("payload does not match its digest")
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            self.stats.cache_evictions += 1
            self.stats.store_misses += 1
            quarantine_file(path, f"unreadable shard result: {exc}")
            return None
        self.stats.store_hits += 1
        return payload

    def store(self, key: str, payload: Dict[str, object]) -> None:
        """Persist one shard result, stamped with its digest, under its
        task digest."""
        entry = {"payload": payload, "sha256": content_digest(payload)}
        atomic_write(
            self.path_for(key),
            lambda stream: json.dump(entry, stream, sort_keys=True),
        )

    def resolve(
        self, tasks: Sequence[Dict[str, object]]
    ) -> Tuple[Dict[int, Dict[str, object]], Dict[int, str]]:
        """Store-first lookup of a planned task list.

        Returns ``(hits, pending)``: the stored payload of every task
        already computed, and the store key of every task still to run,
        both by position in ``tasks``.
        """
        hits: Dict[int, Dict[str, object]] = {}
        pending: Dict[int, str] = {}
        for index, task in enumerate(tasks):
            key = shard_key(task)
            payload = self.load(key)
            if payload is None:
                pending[index] = key
            else:
                hits[index] = payload
        return hits, pending

    def __len__(self) -> int:
        """Complete entries currently on disk (quarantined ones not)."""
        return sum(1 for _ in self.root.glob("*.result.json"))
