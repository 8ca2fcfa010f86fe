"""The daemon, its unix-socket JSON-lines protocol, and a sync client.

Protocol: one request object per connection, newline-terminated JSON
over an ``AF_UNIX`` stream socket; one newline-terminated JSON response
back.  Every response carries ``ok`` (bool) and, on failure, ``error``.
Operations::

    {"op": "ping"}                                   -> {"ok": true}
    {"op": "submit", "tenant": T, "spec": {...}}     -> {"job": id, ...}
    {"op": "jobs"}                                   -> {"jobs": [...]}
    {"op": "status", "job": id}                      -> {"job": {...}}
    {"op": "cancel", "job": id}                      -> {"job": {...}}
    {"op": "stats"}                                  -> {"stats": {...}, ...}
    {"op": "shutdown"}                               -> {"ok": true}

The daemon is a single asyncio event loop: one task per worker slot
pulls shards from the :class:`~repro.serve.queue.WorkStealingScheduler`
(own queue first, then stealing), gates dispatch on the tenant's token
bucket, and awaits :func:`~repro.serve.jobs.execute_shard` on the
:class:`~repro.harness.parallel.TaskPool`; the socket server and the
job table run on the same loop, so no locks are needed anywhere in the
daemon's state.

Durability: every job transition is journaled before it is
acknowledged, and every computed shard lands in the content-addressed
store before it counts as done.  ``kill -9`` the daemon at any point
and a restart re-plans interrupted jobs deterministically — finished
shards resolve from the store as hits and only the genuinely
unfinished remainder executes.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ServeError, TaskFailed
from repro.harness.parallel import RetryPolicy, TaskPool
from repro.schema import option
from repro.serve.jobs import JobRecord, execute_shard
from repro.serve.queue import JobQueue, WorkStealingScheduler

_PathLike = Union[str, Path]

#: Largest request line the daemon will read (1 MiB is far beyond any
#: legal spec; longer lines fail the connection, not the daemon).
_MAX_LINE = 1 << 20


def default_socket(state_dir: _PathLike) -> Path:
    """Where the daemon listens when no socket path is given."""
    return Path(state_dir) / "serve.sock"


@dataclass
class ServeConfig:
    """Daemon configuration (the described fields are the ``repro
    serve`` flags, see :mod:`repro.schema`)."""

    state_dir: Path
    workers: int = option(
        2, type=int, help="worker processes executing shards (default 2)"
    )
    socket_path: Optional[Path] = None
    max_jobs_per_tenant: int = option(
        8, type=int, help="active-job admission cap per tenant (default 8)"
    )
    rate: float = option(
        50.0, type=float,
        help="token-bucket refill rate, shards/second/tenant (default 50)",
    )
    burst: float = option(
        100.0, type=float,
        help="token-bucket capacity per tenant (default 100)",
    )
    task_timeout: Optional[float] = option(
        None, type=float, optional=True,
        help="per-shard wall-clock budget in seconds (default none)",
    )
    task_retries: int = option(
        0, type=int, help="retries per failed/timed-out shard (default 0)"
    )
    #: Idle worker-slot poll interval (seconds).
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        self.state_dir = Path(self.state_dir)
        if self.socket_path is None:
            self.socket_path = default_socket(self.state_dir)
        self.socket_path = Path(self.socket_path)

    def validate(self) -> None:
        """Raise :class:`ServeError` when the daemon could run no shard
        (and :class:`~repro.errors.ReproError` on bad retry bounds)."""
        if self.workers < 1:
            raise ServeError(f"workers must be at least 1, got {self.workers}")
        self.policy()

    def policy(self) -> RetryPolicy:
        """The worker pool's retry contract."""
        return RetryPolicy(
            retries=self.task_retries, timeout=self.task_timeout
        )


class ServeDaemon:
    """One long-running checking service instance."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        config.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(
            config.state_dir,
            max_jobs_per_tenant=config.max_jobs_per_tenant,
            rate=config.rate,
            burst=config.burst,
        )
        self.scheduler = WorkStealingScheduler(config.workers)
        self.pool = TaskPool(
            execute_shard, config.workers, config.policy(), self.queue.stats
        )
        self.started_at = time.time()
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        """Serve until a ``shutdown`` request (or task cancellation)."""
        self._shutdown = asyncio.Event()
        self._resume()
        socket_path = self.config.socket_path
        if socket_path.exists():
            socket_path.unlink()  # stale socket from a killed daemon
        server = await asyncio.start_unix_server(
            self._handle, path=str(socket_path)
        )
        slots = [
            asyncio.ensure_future(self._slot(slot))
            for slot in range(self.config.workers)
        ]
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            for slot_task in slots:
                slot_task.cancel()
            await asyncio.gather(*slots, return_exceptions=True)
            self.pool.shutdown(wait=False)
            if socket_path.exists():
                socket_path.unlink()

    def _resume(self) -> None:
        """Re-plan every job a previous daemon left unfinished."""
        for record in self.queue.resumable():
            self._launch(record)

    def _launch(self, record: JobRecord) -> None:
        """Plan a job and queue its outstanding shards."""
        self.scheduler.assign(self.queue.plan(record))

    # -- worker slots --------------------------------------------------------

    async def _slot(self, slot: int) -> None:
        """One worker slot: take eligible work, steal when idle."""
        while True:
            entry = self.scheduler.take(
                slot, lambda tenant: self.queue.bucket(tenant).peek()
            )
            if entry is None:
                await asyncio.sleep(self.config.poll_interval)
                continue
            record = self.queue.jobs.get(entry["job"])
            if record is None or not record.active:
                continue  # cancelled while queued
            self.queue.bucket(entry["tenant"]).take()
            try:
                payload = await self.pool.run(entry["task"])
            except TaskFailed as exc:
                self.queue.shard_failed(
                    entry["job"], entry["index"], f"shard {exc}"
                )
                self.scheduler.drop_job(entry["job"])
            else:
                self.queue.shard_done(
                    entry["job"], entry["index"], entry["key"], payload
                )

    # -- protocol ------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if len(line) > _MAX_LINE:
                raise ServeError("request line too long")
            try:
                request = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError(f"malformed request: {exc}") from exc
            response = self._dispatch(request)
        except ServeError as exc:
            response = {"ok": False, "error": str(exc)}
        try:
            writer.write(
                (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
            )
            await writer.drain()
            writer.close()
        except (ConnectionError, OSError):
            pass  # client went away; its job state is journaled regardless

    def _dispatch(self, request: object) -> Dict[str, object]:
        if not isinstance(request, dict):
            raise ServeError("request must be a JSON object")
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "submit":
            record = self.queue.submit(
                request.get("tenant"), request.get("spec")
            )
            self._launch(record)
            return {"ok": True, "job": record.id, "state": record.state}
        if op == "jobs":
            return {
                "ok": True,
                "jobs": [
                    self._job_view(record)
                    for record in sorted(
                        self.queue.jobs.values(), key=lambda r: r.seq
                    )
                ],
            }
        if op == "status":
            record = self.queue.jobs.get(request.get("job"))
            if record is None:
                raise ServeError(f"unknown job {request.get('job')!r}")
            return {"ok": True, "job": self._job_view(record)}
        if op == "cancel":
            record = self.queue.cancel(request.get("job"))
            return {"ok": True, "job": self._job_view(record)}
        if op == "stats":
            return {
                "ok": True,
                "stats": self.queue.stats.to_payload(),
                "steals": self.scheduler.steals,
                "queued": len(self.scheduler),
                "workers": self.config.workers,
                "uptime": time.time() - self.started_at,
                "store_entries": len(self.queue.store),
            }
        if op == "shutdown":
            assert self._shutdown is not None
            self._shutdown.set()
            return {"ok": True}
        raise ServeError(f"unknown op {op!r}")

    def _job_view(self, record: JobRecord) -> Dict[str, object]:
        view = record.to_payload()
        view["eta_seconds"] = record.eta_seconds()
        return view


def serve_forever(config: ServeConfig) -> None:
    """Run a daemon on a fresh event loop until shutdown."""
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(ServeDaemon(config).run())
    finally:
        loop.close()


# -- client ------------------------------------------------------------------


def request(
    socket_path: _PathLike, payload: Dict[str, object], timeout: float = 30.0
) -> Dict[str, object]:
    """Send one request to a running daemon and return its response.

    Raises:
        ServeError: when the daemon is unreachable, the response is
            malformed, or the daemon answered ``ok: false`` (the
            daemon's error message is re-raised verbatim).
    """
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(timeout)
            client.connect(str(socket_path))
            client.sendall(
                (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            )
            chunks = []
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
    except (ConnectionError, FileNotFoundError, socket.timeout, OSError) as exc:
        raise ServeError(
            f"cannot reach daemon at {socket_path}: {exc}"
        ) from exc
    try:
        response = json.loads(b"".join(chunks).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed daemon response: {exc}") from exc
    if not isinstance(response, dict) or "ok" not in response:
        raise ServeError("malformed daemon response: missing 'ok'")
    if not response["ok"]:
        raise ServeError(str(response.get("error", "daemon request failed")))
    return response


def wait_for_daemon(
    socket_path: _PathLike, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until a daemon answers ``ping`` (startup synchronization).

    Raises:
        ServeError: when the deadline passes without an answer.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            request(socket_path, {"op": "ping"}, timeout=interval * 10)
            return
        except ServeError:
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"no daemon answered at {socket_path} within {timeout}s"
                )
            time.sleep(interval)


def wait_for_job(
    socket_path: _PathLike,
    job: str,
    timeout: float = 300.0,
    interval: float = 0.1,
) -> Dict[str, object]:
    """Poll ``status`` until the job reaches a terminal state.

    Returns the final job view.  Raises :class:`ServeError` on timeout.
    """
    from repro.serve.jobs import TERMINAL_STATES

    deadline = time.monotonic() + timeout
    while True:
        view = request(socket_path, {"op": "status", "job": job})["job"]
        if view["state"] in TERMINAL_STATES:
            return view
        if time.monotonic() >= deadline:
            raise ServeError(
                f"job {job} still {view['state']} after {timeout}s"
            )
        time.sleep(interval)
