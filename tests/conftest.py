"""Shared fixtures: session-scoped workloads reused across test modules,
and the switch between the analysis loop's numpy and stdlib branches."""

import pytest

from repro.core import analysis
from repro.harness import ExperimentRunner
from repro.queue import run_insert_workload
from repro.trace import columnar


@pytest.fixture(scope="session")
def cwl_1t():
    """Single-thread Copy While Locked, race-free barriers."""
    return run_insert_workload(
        design="cwl", threads=1, inserts_per_thread=60, seed=11
    )


@pytest.fixture(scope="session")
def cwl_4t():
    """Four-thread Copy While Locked, race-free barriers."""
    return run_insert_workload(
        design="cwl", threads=4, inserts_per_thread=15, seed=12
    )


@pytest.fixture(scope="session")
def cwl_4t_racing():
    """Four-thread Copy While Locked, racing epochs variant."""
    return run_insert_workload(
        design="cwl", threads=4, inserts_per_thread=15, racing=True, seed=13
    )


@pytest.fixture(scope="session")
def tlc_4t():
    """Four-thread Two-Lock Concurrent (with the recovery-fix barrier)."""
    return run_insert_workload(
        design="2lc", threads=4, inserts_per_thread=15, seed=14
    )


@pytest.fixture(scope="session")
def shared_runner():
    """Small ExperimentRunner shared by harness tests."""
    return ExperimentRunner(inserts_per_thread=40, base_seed=3)


@pytest.fixture(
    params=[
        pytest.param(
            True,
            id="numpy",
            marks=pytest.mark.skipif(
                not columnar.HAVE_NUMPY, reason="numpy is not installed"
            ),
        ),
        pytest.param(False, id="stdlib"),
    ]
)
def numpy_branch(request, monkeypatch):
    """Select the analysis loop's numpy or stdlib precompute branch.

    ``StreamingAnalyzer._feed_chunk`` derives block ids and run bounds
    with numpy when it is importable and the chunk is long, and with
    plain lists otherwise; both branches must give identical results on
    every host.  The numpy branch is forced for chunks of every length.
    """
    monkeypatch.setattr(analysis, "HAVE_NUMPY", request.param)
    if request.param:
        monkeypatch.setattr(analysis, "_NUMPY_MIN_EVENTS", 0)
    return request.param
