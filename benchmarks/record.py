"""Record the engine's hot-path performance to ``out/BENCH_engine.json``.

Standalone script (``PYTHONPATH=src python benchmarks/record.py``): it
measures the two tentpole optimisations against their reference
implementations and records the issue's acceptance bars:

* **Analysis kernel** — ``analyze`` of an 8-thread CWL trace under
  strict/epoch/strand with the packed-bitset persist-DAG domain vs. the
  frozenset reference domain.  Results must be identical; the combined
  speedup must be >= 5x.
* **Prefix-sharing replay** — ``repro check`` of the publish-pair
  target with snapshot/restore prefix sharing vs. full re-execution.
  Violation sets and stats must be identical; the wall-clock speedup
  must be >= 3x.

Each timing is the best of ``TRIALS`` runs (the quantities are tenths
of seconds, so single runs are scheduler-noise dominated).  The JSON
also records raw throughput: simulated events/second for trace
generation and analysis, and checked cuts/second for the checker.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.check import CheckConfig, check_target
from repro.core import AnalysisConfig, StreamingAnalyzer, analyze_graph
from repro.gpu.lanes import iter_lane_chunks
from repro.queue import run_insert_workload

#: Best-of-N timing trials per measured quantity.
TRIALS = 3

#: Analysis workload: the issue's 8-thread CWL trace.
ANALYZE_THREADS = 8
ANALYZE_INSERTS = 30
MODELS = ("strict", "epoch", "strand")

#: Checker workload: publish-pair, sized so execution (not analysis)
#: dominates — unreduced schedule tree, one relaxed model, bounded cuts.
CHECK_TARGET = "publish-pair"
CHECK_THREADS = 2
CHECK_OPS = 12
CHECK_CONFIG = dict(
    models=("epoch",),
    reduction="none",
    max_schedules=None,
    max_cuts_per_graph=64,
)

#: The issue's acceptance bars.
MIN_ANALYZE_SPEEDUP = 5.0
MIN_CHECK_SPEEDUP = 3.0

#: Streaming-engine bars: analyzer throughput on the million-event
#: GPU-lanes trace (chunked level-domain analysis, cache-line persist
#: granularity), and the end-to-end subprocess run's memory ceiling.
MIN_STREAMING_EVENTS_PER_SECOND = 2_500_000
STREAMING_RSS_CEILING_MB = 256

#: GPU-lanes geometry for the streaming benchmark: 1024 lanes x 109
#: records x 8 words (+ per-record barriers, hand-offs, scope commits)
#: is just over one million events.
LANES = 1024
LANE_RECORDS = 109
LANE_WORDS = 8
LANES_PER_SCOPE = 32
STREAM_CONFIG = AnalysisConfig(
    coalescing=True, persist_granularity=64, tracking_granularity=64
)


def best_of(fn, trials=TRIALS):
    """Return (best seconds, last result) over ``trials`` runs."""
    best = float("inf")
    result = None
    for _ in range(trials):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_analysis():
    """Bitset vs. frozenset domain on the 8-thread CWL trace."""
    sim_seconds, workload = best_of(
        lambda: run_insert_workload(
            design="cwl",
            threads=ANALYZE_THREADS,
            inserts_per_thread=ANALYZE_INSERTS,
        )
    )
    trace = workload.trace
    events = len(trace)
    per_model = {}
    bitset_total = 0.0
    graph_total = 0.0
    for model in MODELS:
        bitset_seconds, bitset = best_of(
            lambda m=model: analyze_graph(trace, m, domain="bitset")
        )
        graph_seconds, reference = best_of(
            lambda m=model: analyze_graph(trace, m, domain="graph")
        )
        # The domains must agree exactly — same DAG, same scalars.
        assert bitset.persist_count == reference.persist_count
        assert bitset.critical_path == reference.critical_path
        assert bitset.mean_concurrency == reference.mean_concurrency
        assert (
            bitset.graph.level_histogram()
            == reference.graph.level_histogram()
        )
        assert bitset.graph.edge_count() == reference.graph.edge_count()
        bitset_total += bitset_seconds
        graph_total += graph_seconds
        per_model[model] = {
            "bitset_seconds": round(bitset_seconds, 4),
            "frozenset_seconds": round(graph_seconds, 4),
            "speedup": round(graph_seconds / bitset_seconds, 2),
        }
    speedup = graph_total / bitset_total
    return {
        "workload": {
            "design": "cwl",
            "threads": ANALYZE_THREADS,
            "inserts_per_thread": ANALYZE_INSERTS,
            "trace_events": events,
        },
        "simulation_events_per_second": round(events / sim_seconds),
        "analysis_events_per_second": round(
            len(MODELS) * events / bitset_total
        ),
        "per_model": per_model,
        "bitset_seconds": round(bitset_total, 4),
        "frozenset_seconds": round(graph_total, 4),
        "speedup": round(speedup, 2),
        "meets_5x_bar": speedup >= MIN_ANALYZE_SPEEDUP,
    }


def measure_check():
    """Prefix-sharing replay vs. full re-execution on publish-pair."""

    def run(replay):
        config = CheckConfig(replay=replay, **CHECK_CONFIG)
        return check_target(CHECK_TARGET, CHECK_THREADS, CHECK_OPS, config)

    share_seconds, share = best_of(lambda: run("share"))
    reexecute_seconds, reexecute = best_of(lambda: run("reexecute"))
    # Sharing must change nothing but the wall clock.
    assert sorted(share.distinct) == sorted(reexecute.distinct)
    assert share.stats.schedules == reexecute.stats.schedules
    assert share.stats.cuts_checked == reexecute.stats.cuts_checked
    assert share.stats.dags_analyzed == reexecute.stats.dags_analyzed
    speedup = reexecute_seconds / share_seconds
    return {
        "workload": {
            "target": CHECK_TARGET,
            "threads": CHECK_THREADS,
            "ops": CHECK_OPS,
            **{k: v for k, v in CHECK_CONFIG.items()},
        },
        "schedules": share.stats.schedules,
        "cuts_checked": share.stats.cuts_checked,
        "distinct_violations": len(share.distinct),
        "cuts_per_second": round(share.stats.cuts_checked / share_seconds),
        "share_seconds": round(share_seconds, 4),
        "reexecute_seconds": round(reexecute_seconds, 4),
        "speedup": round(speedup, 2),
        "meets_3x_bar": speedup >= MIN_CHECK_SPEEDUP,
    }


def _stream_lanes(model, lanes, chunks=None):
    """One chunked analysis pass; returns the result."""
    analyzer = StreamingAnalyzer(model, STREAM_CONFIG)
    source = chunks if chunks is not None else iter_lane_chunks(
        lanes, LANE_RECORDS, LANE_WORDS, LANES_PER_SCOPE
    )
    for chunk in source:
        analyzer.feed(chunk)
    return analyzer.finish()


def measure_streaming():
    """The streaming engine on million-event GPU-lanes traces.

    Two measurements:

    * **analysis throughput** (the 2.5M events/s bar) — chunked
      level-domain analysis of the pre-encoded 1M-event columnar trace,
      best of :data:`TRIALS`;
    * **lanes scaling** — the same per-lane workload at 64/256/1024
      lanes (events scale with lanes).

    The end-to-end memory claim (trace generated, streamed, and
    analyzed without ever existing whole, under a pinned RSS ceiling)
    is measured by running ``repro.gpu.bench`` as a fresh subprocess —
    RSS is a whole-process property, so the parent's own allocations
    must not pollute it.
    """
    scaling = {}
    headline = None
    for lanes in (64, 256, LANES):
        chunks = list(
            iter_lane_chunks(lanes, LANE_RECORDS, LANE_WORDS, LANES_PER_SCOPE)
        )
        seconds, result = best_of(lambda: _stream_lanes("epoch", lanes, chunks))
        scaling[str(lanes)] = {
            "events": result.events,
            "events_per_second": round(result.events / seconds),
            "critical_path": result.critical_path,
            "persist_count": result.persist_count,
        }
        if lanes == LANES:
            headline = scaling[str(lanes)]
        del chunks

    bench = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.gpu.bench",
            "--lanes", str(LANES),
            "--records", str(LANE_RECORDS),
            "--words", str(LANE_WORDS),
            "--scope", str(LANES_PER_SCOPE),
            "--models", "epoch",
            "--max-rss-mb", str(STREAMING_RSS_CEILING_MB),
        ],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        },
    )
    if bench.returncode not in (0, 3):
        raise RuntimeError(
            f"repro.gpu.bench failed ({bench.returncode}):\n{bench.stderr}"
        )
    end_to_end = json.loads(bench.stdout)
    events_per_second = headline["events_per_second"]
    return {
        "workload": {
            "name": "gpu-lanes",
            "lanes": LANES,
            "records": LANE_RECORDS,
            "words": LANE_WORDS,
            "lanes_per_scope": LANES_PER_SCOPE,
            "persist_granularity": STREAM_CONFIG.persist_granularity,
            "tracking_granularity": STREAM_CONFIG.tracking_granularity,
            "domain": "level",
        },
        "analysis_events_per_second": events_per_second,
        "lanes_scaling": scaling,
        "end_to_end": {
            "events": end_to_end["events"],
            "events_per_second": round(
                end_to_end["models"]["epoch"]["events_per_second"]
            ),
            "wall_seconds": round(
                end_to_end["models"]["epoch"]["wall_seconds"], 4
            ),
            "peak_rss_mb": round(end_to_end["peak_rss_kb"] / 1024, 1),
            "rss_ceiling_mb": STREAMING_RSS_CEILING_MB,
            "within_rss_ceiling": not end_to_end["failures"],
        },
        "meets_2_5m_bar": events_per_second
        >= MIN_STREAMING_EVENTS_PER_SECOND,
    }


def record(out_path=None):
    """Measure all bars and write ``BENCH_engine.json``; returns it."""
    payload = {
        "analysis": measure_analysis(),
        "check": measure_check(),
        "streaming": measure_streaming(),
    }
    if out_path is None:
        out_path = Path(__file__).parent / "out" / "BENCH_engine.json"
    out_path = Path(out_path)
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main():
    payload = record()
    analysis = payload["analysis"]
    check = payload["check"]
    print(
        f"analysis: bitset {analysis['bitset_seconds']}s vs frozenset "
        f"{analysis['frozenset_seconds']}s -> {analysis['speedup']}x "
        f"(bar >=5x: {analysis['meets_5x_bar']})"
    )
    print(
        f"check: share {check['share_seconds']}s vs reexecute "
        f"{check['reexecute_seconds']}s -> {check['speedup']}x "
        f"(bar >=3x: {check['meets_3x_bar']})"
    )
    streaming = payload["streaming"]
    end_to_end = streaming["end_to_end"]
    print(
        f"streaming: {streaming['analysis_events_per_second']} events/s "
        f"on {end_to_end['events']} gpu-lane events "
        f"(bar >=2.5M: {streaming['meets_2_5m_bar']}); end-to-end "
        f"{end_to_end['events_per_second']} events/s at "
        f"{end_to_end['peak_rss_mb']} MiB peak RSS "
        f"(ceiling {end_to_end['rss_ceiling_mb']} MiB: "
        f"{end_to_end['within_rss_ceiling']})"
    )
    bars_met = (
        analysis["meets_5x_bar"]
        and check["meets_3x_bar"]
        and streaming["meets_2_5m_bar"]
        and end_to_end["within_rss_ceiling"]
    )
    if not bars_met:
        # Exit 3 distinguishes "bars unmet" (timing-noise territory on
        # shared runners) from genuine import/runtime errors (exit 1).
        print("performance bars not met")
        raise SystemExit(3)


if __name__ == "__main__":
    main()
