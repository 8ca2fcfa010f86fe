"""``python -m repro.gpu.bench`` — streaming-analysis benchmark process.

Generates a gpu-lanes trace as columnar chunks (:func:`~repro.gpu.lanes.
iter_lane_chunks`), streams it through :class:`~repro.core.analysis.
StreamingAnalyzer` per model, and reports throughput plus the process's
peak RSS as JSON on stdout.  Designed to run as a *subprocess* (see
``benchmarks/record.py`` and the CI perf smoke): peak RSS is only
meaningful when the measuring process does nothing else, and the memory
claim being made — a million-event trace analyzed without ever existing
whole — is a whole-process property.

``--min-events-per-sec`` and ``--max-rss-mb`` turn the report into a
pass/fail gate (exit status 3 on violation) for CI floors.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Optional

from repro.core.analysis import AnalysisConfig, StreamingAnalyzer
from repro.gpu.lanes import iter_lane_chunks, lane_event_count
from repro.trace.columnar import DEFAULT_CHUNK_EVENTS


def records_for_events(
    lanes: int, words: int, lanes_per_scope: int, target: int
) -> int:
    """Smallest per-lane record count reaching ``target`` total events."""
    records = 1
    while lane_event_count(lanes, records, words, lanes_per_scope) < target:
        deficit = target - lane_event_count(
            lanes, records, words, lanes_per_scope
        )
        records += max(1, deficit // (lanes * (words + 1)))
    return records


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    Prefers ``VmHWM`` from ``/proc/self/status``: the ``getrusage``
    ``ru_maxrss`` counter survives ``execve`` on Linux, so a subprocess
    spawned from a large parent (``benchmarks/record.py``) would report
    the parent's peak instead of its own.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_bench(
    lanes: int,
    records: int,
    words: int,
    lanes_per_scope: int,
    chunk_events: int,
    models,
    domain: str,
    config: AnalysisConfig,
) -> dict:
    """Stream the lane trace through every model; return the report."""
    report: dict = {
        "workload": "gpu-lanes",
        "lanes": lanes,
        "records": records,
        "words": words,
        "lanes_per_scope": lanes_per_scope,
        "chunk_events": chunk_events,
        "domain": domain,
        "persist_granularity": config.persist_granularity,
        "tracking_granularity": config.tracking_granularity,
        "coalescing": config.coalescing,
        "events": lane_event_count(lanes, records, words, lanes_per_scope),
        "models": {},
    }
    for model in models:
        # Time only the analyzer (feed + finish): generation is the
        # synthetic trace source's cost, not the engine's.  Chunks are
        # still consumed one at a time so the full trace never exists.
        wall_start = time.perf_counter()
        analyzer = StreamingAnalyzer(model, config, domain=domain)
        elapsed = 0.0
        for chunk in iter_lane_chunks(
            lanes, records, words, lanes_per_scope, chunk_events
        ):
            start = time.perf_counter()
            analyzer.feed(chunk)
            elapsed += time.perf_counter() - start
        start = time.perf_counter()
        result = analyzer.finish()
        elapsed += time.perf_counter() - start
        wall = time.perf_counter() - wall_start
        entry = {
            "analysis_seconds": elapsed,
            "wall_seconds": wall,
            "events_per_second": result.events / elapsed if elapsed else 0.0,
            "critical_path": result.critical_path,
            "persist_count": result.persist_count,
            "persist_stores": result.persist_stores,
            "coalesced": result.coalesced,
        }
        report["models"][model] = entry
    report["peak_rss_kb"] = peak_rss_kb()
    return report


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gpu.bench", description=__doc__
    )
    parser.add_argument("--lanes", type=int, default=1024)
    parser.add_argument(
        "--records",
        type=int,
        default=None,
        help="records per lane (default: enough to reach --events)",
    )
    parser.add_argument("--words", type=int, default=8)
    parser.add_argument("--scope", type=int, default=32, dest="lanes_per_scope")
    parser.add_argument("--events", type=int, default=1_000_000)
    parser.add_argument(
        "--chunk-events", type=int, default=DEFAULT_CHUNK_EVENTS
    )
    parser.add_argument("--models", default="epoch,strict")
    parser.add_argument("--domain", default="level")
    parser.add_argument("--persist-granularity", type=int, default=64)
    parser.add_argument("--tracking-granularity", type=int, default=64)
    parser.add_argument(
        "--no-coalescing", action="store_true", help="disable coalescing"
    )
    parser.add_argument("--min-events-per-sec", type=float, default=None)
    parser.add_argument("--max-rss-mb", type=float, default=None)
    args = parser.parse_args(argv)

    records = args.records
    if records is None:
        records = records_for_events(
            args.lanes, args.words, args.lanes_per_scope, args.events
        )
    config = AnalysisConfig(
        coalescing=not args.no_coalescing,
        persist_granularity=args.persist_granularity,
        tracking_granularity=args.tracking_granularity,
    )
    report = run_bench(
        lanes=args.lanes,
        records=records,
        words=args.words,
        lanes_per_scope=args.lanes_per_scope,
        chunk_events=args.chunk_events,
        models=[name.strip() for name in args.models.split(",") if name.strip()],
        domain=args.domain,
        config=config,
    )

    failures = []
    if args.min_events_per_sec is not None:
        for model, entry in report["models"].items():
            if entry["events_per_second"] < args.min_events_per_sec:
                failures.append(
                    f"{model}: {entry['events_per_second']:.0f} events/s "
                    f"below floor {args.min_events_per_sec:.0f}"
                )
    if args.max_rss_mb is not None:
        rss_mb = report["peak_rss_kb"] / 1024.0
        if rss_mb > args.max_rss_mb:
            failures.append(
                f"peak RSS {rss_mb:.1f} MiB above ceiling "
                f"{args.max_rss_mb:.1f} MiB"
            )
    report["failures"] = failures
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
