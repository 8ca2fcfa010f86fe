"""One repetition of one workload, in a fresh interpreter.

    python rep.py '{"workload": ..., "seed": ..., "rep": <round index>,
                    "profile": ..., "traced": ...,
                    "spawned_at": <time.time() at spawn>}'

``run.py`` starts one of these per repetition with ``src/`` on the path,
so no in-process cache carries across repetitions and the peak RSS is
this repetition's own.  The last line of standard output is one JSON
object describing the repetition.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    args = json.loads(sys.argv[1])
    start = time.perf_counter()
    import workloads  # imports repro and every layer the workloads use
    from repro.gpu.bench import peak_rss_kb

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args["workload"]]
    inputs = workload.prepare(
        args["seed"], args["rep"], workload.sizes[args["profile"]]
    )
    setup_s = time.time() - args["spawned_at"]

    tracer = None
    if args["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.enter("driver")
    start = time.perf_counter()
    try:
        result = workload.execute(inputs)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.exit(root)
            tracer.restore()
    peak_mb = peak_rss_kb() / 1024.0

    record, failures = workload.report(
        inputs, result, args["seed"], args["profile"]
    )
    record.update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=peak_mb,
        units_per_s=record["units"] / wall_s,
        traced=args["traced"],
        failures=failures,
    )
    if tracer is not None:
        from catalog import layer_metrics

        record["layers"] = layer_metrics(
            tracer.spans(),
            tracer.work,
            wall_s,
            import_s,
            record.get("ratios", {}),
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
