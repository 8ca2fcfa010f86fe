"""GPU-style scoped-persistency workloads (Lin & Solihin's setting).

*Exploring Memory Persistency Models for GPUs* motivates the scale work
in this repo: hundreds to thousands of SIMT lanes, each producing a
stream of persistent records, with epoch persistency scoped to lane
groups — a scope's records are made durable together and published by a
per-scope commit word.  This package models that workload at the
simulator's granularity (a lane = a simulated thread) and generates the
million-event traces the streaming columnar analysis path exists for.

Modules:

* :mod:`repro.gpu.lanes` — the simulated workload (lane and scope
  committer thread bodies, the ``gpu-lanes`` fuzz preparer) and a
  deterministic synthetic columnar-trace generator that emits the same
  event stream directly (no machine), for benchmarking the analyzer at
  sizes the simulator need not reach.
* :mod:`repro.gpu.bench` — ``python -m repro.gpu.bench``: a subprocess
  benchmark entrypoint that streams a lane trace through the analyzer,
  reporting events/s and peak RSS.
"""

from repro.gpu.lanes import (
    LaneWorkload,
    build_lane_machine,
    iter_lane_chunks,
    lane_record_word,
    prepare_gpu_lanes,
)

__all__ = [
    "LaneWorkload",
    "build_lane_machine",
    "iter_lane_chunks",
    "lane_record_word",
    "prepare_gpu_lanes",
]
