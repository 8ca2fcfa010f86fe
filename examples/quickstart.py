#!/usr/bin/env python3
"""Quickstart: the memory-persistency pipeline in ~60 lines.

1. Run a multithreaded persistent-queue workload on the simulated SC
   machine (traced, like the paper's PIN setup).
2. Analyze the trace under each persistency model to get the persist
   ordering constraint critical path.
3. Convert critical paths into throughput at 500 ns persist latency and
   compare with the volatile instruction rate (Table 1's arithmetic).

Run:  python examples/quickstart.py
"""

from repro import analyze, run_insert_workload
from repro.harness import (
    DEFAULT_COST_MODEL,
    PAPER_PERSIST_LATENCY,
    persist_bound_rate,
)


def main() -> None:
    # Step 1: one thread inserting 100-byte entries (the paper's default).
    workload = run_insert_workload(
        design="cwl", threads=1, inserts_per_thread=200, seed=42
    )
    inserts = workload.total_inserts
    print(f"workload: {workload.config.design}, {inserts} inserts, "
          f"{len(workload.trace)} trace events")

    # Step 2+3: per-model critical path and throughput.
    instruction_rate = DEFAULT_COST_MODEL.instruction_rate(
        workload.trace.chunks, inserts
    )
    print(f"instruction rate (volatile): {instruction_rate / 1e6:.2f} M inserts/s")
    print(f"{'model':>8} {'CP/insert':>10} {'persist-bound':>14} {'normalized':>11}")
    for model in ("strict", "epoch", "strand"):
        result = analyze(workload.trace, model)
        rate = persist_bound_rate(
            result.critical_path, inserts, PAPER_PERSIST_LATENCY
        )
        print(
            f"{model:>8} {result.critical_path_per(inserts):>10.3f} "
            f"{rate / 1e6:>11.2f} M/s {min(rate / instruction_rate, 999):>10.2f}x"
        )

    print(
        "\nStrict persistency serialises every persist a thread issues; "
        "epoch persistency\nfrees the entry copy; strand persistency plus "
        "head-pointer coalescing makes the\nworkload compute-bound — the "
        "paper's 30x headline in miniature."
    )


if __name__ == "__main__":
    main()
