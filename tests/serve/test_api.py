"""End-to-end tests against a real daemon subprocess.

These drive ``repro serve`` exactly as a deployment would: the daemon
is a separate process listening on a unix socket, tenants talk to it
through the JSON-lines client, and restart/resume goes through the real
journal and store on disk.
"""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve import default_socket, request, wait_for_daemon, wait_for_job

SRC = str(Path(__file__).resolve().parents[2] / "src")

LITMUS_SPEC = {
    "kind": "litmus",
    "programs": ["mp-clflush"],
    "models": ["strict", "epoch"],
}


def start_daemon(state_dir, workers=2, extra=()):
    """Start a daemon in its own session, so that its process group —
    the daemon and its pool workers — can be killed as one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--state-dir",
            str(state_dir),
            "--workers",
            str(workers),
        ]
        + list(extra),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )


def kill_daemon(process):
    """SIGKILL the daemon's whole process group (pool workers too)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)


def stop_daemon(process, sock):
    """Shut the daemon down cleanly, killing its group if that fails."""
    try:
        if process.poll() is None:
            request(sock, {"op": "shutdown"})
        process.wait(timeout=30)
    except (ServeError, subprocess.TimeoutExpired):
        kill_daemon(process)


@pytest.fixture
def daemon(tmp_path):
    state_dir = tmp_path / "state"
    process = start_daemon(state_dir)
    sock = default_socket(state_dir)
    try:
        wait_for_daemon(sock, timeout=30)
        yield state_dir, sock
    finally:
        stop_daemon(process, sock)


def test_daemon_end_to_end(daemon):
    state_dir, sock = daemon
    assert request(sock, {"op": "ping"})["ok"]

    # Two tenants submit; the first computes, the second is served from
    # the shared store (same spec => same shard digests).
    alice = request(
        sock, {"op": "submit", "tenant": "alice", "spec": LITMUS_SPEC}
    )["job"]
    done = wait_for_job(sock, alice, timeout=120)
    assert done["state"] == "done"
    assert done["violations"] == 0
    assert done["store_misses"] == done["shards_total"] == 1

    bob = request(
        sock, {"op": "submit", "tenant": "bob", "spec": LITMUS_SPEC}
    )["job"]
    assert bob != alice
    shared = wait_for_job(sock, bob, timeout=30)
    assert shared["state"] == "done"
    assert shared["store_hits"] == shared["shards_total"]
    assert shared["violations"] == done["violations"]

    listing = request(sock, {"op": "jobs"})["jobs"]
    assert [view["id"] for view in listing] == [alice, bob]

    stats = request(sock, {"op": "stats"})
    assert stats["stats"]["store_hits"] >= 1
    assert stats["store_entries"] == 1
    assert stats["workers"] == 2

    # Cancel is terminal whether it raced completion or not.
    carol = request(
        sock, {"op": "submit", "tenant": "carol", "spec": LITMUS_SPEC}
    )["job"]
    cancelled = request(sock, {"op": "cancel", "job": carol})["job"]
    assert cancelled["state"] in ("cancelled", "done")
    final = wait_for_job(sock, carol, timeout=30)
    assert final["state"] == cancelled["state"]


def test_protocol_errors(daemon):
    _, sock = daemon
    with pytest.raises(ServeError, match="unknown op"):
        request(sock, {"op": "transmogrify"})
    with pytest.raises(ServeError, match="unknown job"):
        request(sock, {"op": "status", "job": "feedfacefeedface"})
    with pytest.raises(ServeError, match="unknown job kind"):
        request(sock, {"op": "submit", "tenant": "eve", "spec": {"kind": "x"}})
    with pytest.raises(ServeError, match="JSON object"):
        request(sock, ["not", "a", "request"])
    # A malformed line fails that connection with a clean error reply.
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(10)
        client.connect(str(sock))
        client.sendall(b"{this is not json\n")
        reply = json.loads(client.recv(65536).decode("utf-8"))
    assert reply["ok"] is False
    assert "malformed request" in reply["error"]


def test_kill_dash_nine_then_resume_completes(tmp_path):
    """A SIGKILLed daemon restarts, re-plans, and finishes its jobs."""
    state_dir = tmp_path / "state"
    sock = default_socket(state_dir)
    spec = {
        "kind": "fuzz",
        "target": "queue-2lc-faithful",
        "budget": 6,
        "seed": 0,
    }

    first = start_daemon(state_dir)
    try:
        wait_for_daemon(sock, timeout=30)
        job = request(
            sock, {"op": "submit", "tenant": "alice", "spec": spec}
        )["job"]
    finally:
        kill_daemon(first)

    journal = json.loads(
        (state_dir / "jobs" / f"{job}.json").read_text()
    )
    assert journal["id"] == job  # the submit was durable before the ack

    second = start_daemon(state_dir)
    try:
        wait_for_daemon(sock, timeout=30)
        view = wait_for_job(sock, job, timeout=300)
        assert view["state"] == "done"
        assert view["shards_done"] == view["shards_total"] == 6
        # Whatever the first daemon managed to store came back as hits.
        assert view["store_hits"] + view["store_misses"] == 6
        stop_daemon(second, sock)
        assert second.returncode == 0
    finally:
        if second.poll() is None:
            kill_daemon(second)
    assert not sock.exists()  # clean shutdown removes the socket
