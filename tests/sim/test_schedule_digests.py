"""Schedule-identity pins for the simulator.

Every seeded workload's trace is a pure function of the machine's
scheduling decisions, so a sha256 over a canonical per-event
serialization pins the schedule byte for byte.  The digests below were
computed before the runnable set became incremental; any simulator
speed-up that changes which agent a seeded scheduler picks at any step
moves one of them.

``schedule_digest`` leaves out each event's ``persistent`` flag, which
the machine derives from the region it maps an access to;
``persistent_digest`` pins that flag separately for the same runs.
Its values were computed before the machine resolved each access's
region once and built its events without re-validation.
"""

import hashlib

import pytest

from repro.gpu.lanes import build_lane_machine
from repro.queue.workload import run_insert_workload
from repro.sim import RandomScheduler


def schedule_digest(trace):
    """``(event count, sha256)`` over ``seq, thread, kind, addr, size,
    value, sync, info`` of every event, one line each."""
    digest = hashlib.sha256()
    for event in trace:
        digest.update(
            f"{event.seq},{event.thread},{event.kind.value},{event.addr},"
            f"{event.size},{event.value},{int(event.sync)},{event.info}\n"
            .encode()
        )
    return len(trace), digest.hexdigest()


def persistent_digest(trace):
    """``(event count, sha256)`` over ``seq, persistent`` of every event,
    one line each."""
    digest = hashlib.sha256()
    for event in trace:
        digest.update(f"{event.seq},{int(event.persistent)}\n".encode())
    return len(trace), digest.hexdigest()


#: gpu-lanes 256 lanes x 8 records x 8 words, 32 lanes per scope.
LANE_PINS = {
    0: (
        19514,
        "1392f723d08487e06420e5b9608c901ff306eb785741ab3e5cc6e7182aa076e6",
    ),
    1: (
        19519,
        "f799d49788ace0e09d937675fdc244995d158f4eada6a136a04a0a785806d09a",
    ),
    2: (
        19517,
        "2e2018ea0ba26a473c814b3fa74252fd484938c19948d5a29157cf051d4f5118",
    ),
}


#: ``persistent_digest`` of the same gpu-lanes runs.
LANE_PERSISTENT_PINS = {
    0: (
        19514,
        "483bf0eef44960b9c3cfb4e009af48e7f864b8d2c3d04211f84ebc90bbe2948b",
    ),
    1: (
        19519,
        "707d8662b6bda1ee7c1f91d6f7be896e3833ce88b1e9d818c8432d3917a598cc",
    ),
    2: (
        19517,
        "0cf1d037a255c5825eed49468f4387cc4bbecb4d36061c48d7d3fb1ac7e5896d",
    ),
}


@pytest.mark.parametrize("seed", sorted(LANE_PINS))
def test_gpu_lanes_schedule(seed):
    machine, _ = build_lane_machine(256, 8, 8, 32, RandomScheduler(seed))
    trace = machine.run()
    assert schedule_digest(trace) == LANE_PINS[seed]
    assert persistent_digest(trace) == LANE_PERSISTENT_PINS[seed]


#: 4-thread CWL queue, 5 inserts each, seed 3.
QUEUE_PINS = {
    "mcs": (
        648,
        "32b06b9b1a546b728d03a7d4aaa042f1b68f27a94226580323bc5c7588f2c10f",
    ),
    "ticket": (
        587,
        "67a78030bd4b0ab2d2d23fa26cc571ca7ff40e215b7dccabc6aa8036c00837d2",
    ),
}


#: ``persistent_digest`` of the same queue runs.
QUEUE_PERSISTENT_PINS = {
    "mcs": (
        648,
        "ee0009f36f7222dac9433ca5dfb1685e4db8f500acc4edf3d746f99b5de902cf",
    ),
    "ticket": (
        587,
        "92c7ff67acc7812b0e70193e241ae13cc31cffd033800dd36598429162e02bf1",
    ),
}


@pytest.mark.parametrize("lock_kind", sorted(QUEUE_PINS))
def test_cwl_queue_schedule(lock_kind):
    result = run_insert_workload(
        design="cwl", threads=4, inserts_per_thread=5, lock_kind=lock_kind,
        seed=3,
    )
    assert schedule_digest(result.trace) == QUEUE_PINS[lock_kind]
    assert persistent_digest(result.trace) == QUEUE_PERSISTENT_PINS[lock_kind]


#: 3-thread 2LC queue on a TSO machine: store buffers, drain agents, and
#: ticket-lock waiters woken by a drained release store.
TSO_PIN = (
    627,
    "3af1ad7462936710f11306154f9bdb462e5eb50eff697ac49709ab67f903f1cb",
)


#: ``persistent_digest`` of the same TSO run.
TSO_PERSISTENT_PIN = (
    627,
    "670fd3bb740c3cfddbe317d15196cbff8129d1861da3672e8383c2af3181d5d7",
)


def test_tso_queue_schedule():
    result = run_insert_workload(
        design="2lc", threads=3, inserts_per_thread=4, lock_kind="ticket",
        consistency="tso", seed=5,
    )
    assert schedule_digest(result.trace) == TSO_PIN
    assert persistent_digest(result.trace) == TSO_PERSISTENT_PIN
