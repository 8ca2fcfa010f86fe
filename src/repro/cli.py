"""Command-line interface.

Subcommands cover the full pipeline so the library is usable without
writing Python::

    repro run     --design cwl --threads 4 --inserts 50 -o trace.jsonl
    repro analyze trace.jsonl --model epoch
    repro races   trace.jsonl
    repro dot     trace.jsonl --model strand -o persists.dot
    repro inject  --design 2lc --threads 4 --inserts 8 --samples 50
    repro table1  --inserts 125 --jobs 4 --cache-dir .repro-cache --stats
    repro figures --inserts 125 --out artifacts/ --jobs 4
    repro fuzz run --target queue-2lc-faithful --budget 200 --jobs 2
    repro fuzz run --target kv --faults torn corrupt --checkpoint ckpt/
    repro fuzz run --target log --crash-recovery 2
    repro fuzz replay --corpus-dir .repro-corpus
    repro fuzz minimize .repro-corpus/34624f4bc03739e3.repro.json
    repro crashrec --target queue-2lc-faithful --depth 2 --budget 20
    repro check   --target queue-2lc-faithful --threads 2 --ops 1 --stats
    repro litmus list
    repro litmus run --all-models --cross-domains --out litmus.json
    repro serve   --state-dir .repro-serve --workers 4
    repro submit  job.json --tenant alice --wait
    repro jobs
    repro status  JOBID
    repro cancel  JOBID
    repro selfcheck

Every command prints to stdout and returns a process exit code; `inject`,
`races`, `fuzz run`, `check`, and `selfcheck` return non-zero when they
find violations, so they compose with CI.  Under `--faults`, detected and
masked device faults are clean outcomes and documented undetectable
exposures on unhardened targets exit 0; *silent corruption* — a hardened
target returning wrong recovered state as good — exits 1 like any other
violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.check import (
    GRAPH_DOMAINS,
    CheckConfig,
    check_target_sharded,
)
from repro.core import (
    AnalysisConfig,
    FailureInjector,
    analyze,
    analyze_graph,
    find_persist_epoch_races,
    graph_to_dot,
)
from repro.core.model import MODEL_CHOICES, MODELS
from repro.errors import RecoveryError, ReproError
from repro.litmus import (
    LitmusConfig,
    corpus_by_name,
    default_corpus,
    generate_programs,
    hand_written,
    run_corpus,
    save_report,
    summary_lines,
)
from repro.harness import (
    DEFAULT_COST_MODEL,
    PAPER_PERSIST_LATENCY,
    ExperimentRunner,
    build_table1,
    figure3_latency_sweep,
    figure4_persist_granularity,
    figure5_tracking_granularity,
    figure_cells,
    format_table1,
    persist_bound_rate,
    run_grid,
    table1_cells,
)
from repro.harness.cache import ResultStore
from repro.fuzz import (
    TARGETS,
    CampaignConfig,
    Corpus,
    export_check_violations,
    minimize_finding,
    minimize_findings,
    replay_case,
    run_campaign,
)
from repro.fuzz.targets import TARGET_CHOICES
from repro.queue import WorkloadConfig, run_insert_workload, verify_recovery
from repro.queue.cwl import INSERT_MARK
from repro.schema import Option, add_arguments, from_args, options_of
from repro.serve import (
    JOB_KINDS,
    ServeConfig,
    default_socket,
    request,
    serve_forever,
    wait_for_job,
)
from repro.trace import load_file, save_file, validate


#: How ``table1``/``figures`` run their grid: never what it computes, so
#: none is a spec key.
_GRID_OPTIONS = options_of(
    jobs=Option(
        int, default=1, key=None,
        help="worker processes for the experiment grid (1 = serial)",
    ),
    cache_dir=Option(
        optional=True, default=None, key=None,
        help="result store for the grid's variants (reruns skip stored ones)",
    ),
    stats=Option(
        bool, default=False, key=None,
        help="print per-stage timing and cache hit-rate counters to stderr",
    ),
    task_timeout=Option(
        float, optional=True, default=None, key=None,
        help="per-task wall-clock timeout in seconds (pool mode only)",
    ),
    task_retries=Option(
        int, default=0, key=None,
        help="retries (with exponential backoff) before a task fails its cell",
    ),
)


def cmd_run(args: argparse.Namespace) -> int:
    """Run a queue workload and save its trace."""
    result = run_insert_workload(from_args(args))
    validate(result.trace)
    save_file(result.trace, args.output)
    stats = result.trace.stats()
    print(
        f"wrote {args.output}: {stats.events} events, {stats.persists} "
        f"persists, {result.total_inserts} inserts"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Analyze a saved trace under one or more persistency models."""
    config = AnalysisConfig(
        persist_granularity=args.persist_granularity,
        tracking_granularity=args.tracking_granularity,
        coalescing=not args.no_coalescing,
    )
    models = args.model or sorted(MODELS)
    streamed = {}
    if args.stream:
        if args.wear:
            print("--wear needs the full trace; drop --stream", file=sys.stderr)
            return 2
        # One bounded-memory pass per model: the reader decodes columnar
        # chunks straight off the file and the streaming analyzer retires
        # them, so the event list never exists.  Operation marks are
        # counted from the first pass's (sparse) info columns.
        from repro.core.analysis import StreamingAnalyzer
        from repro.trace.io import TraceReader

        operations = 0
        for index, model in enumerate(models):
            analyzer = StreamingAnalyzer(model, config, domain=args.domain)
            with TraceReader(args.trace) as reader:
                for chunk in reader.chunks(args.chunk_size):
                    if index == 0:
                        operations += sum(
                            text == args.op_mark for _, text in chunk.marks()
                        )
                    analyzer.feed(chunk)
            streamed[model] = analyzer.finish()
        operations = operations or None
    else:
        trace = load_file(args.trace)
        operations = trace.count_marks(args.op_mark) or None
    print(
        f"{'model':>8} {'critical_path':>14} {'persists':>9} "
        f"{'coalesced':>10}"
        + (f" {'CP/op':>8} {'rate@500ns':>12}" if operations else "")
        + (f" {'max_wear':>9} {'write_cut':>10}" if args.wear else "")
    )
    for model in models:
        result = (
            streamed[model]
            if args.stream
            else analyze(trace, model, config, domain=args.domain)
        )
        row = (
            f"{model:>8} {result.critical_path:>14} "
            f"{result.persist_count:>9} {result.coalesced:>10}"
        )
        if operations:
            rate = persist_bound_rate(
                result.critical_path, operations, PAPER_PERSIST_LATENCY
            )
            row += (
                f" {result.critical_path_per(operations):>8.3f}"
                f" {rate / 1e6:>10.2f} M/s"
            )
        if args.wear:
            from repro.harness.wear import wear_profile

            profile = wear_profile(trace, model, config=config)
            row += (
                f" {profile.max_wear:>9}"
                f" {100 * profile.write_reduction:>9.1f}%"
            )
        print(row)
    return 0


def cmd_races(args: argparse.Namespace) -> int:
    """Lint a trace for persist-epoch races."""
    trace = load_file(args.trace)
    races = find_persist_epoch_races(trace, args.tracking_granularity)
    if not races:
        print("no persist-epoch races")
        return 0
    for race in races[: args.limit]:
        print(race.describe())
    if len(races) > args.limit:
        print(f"... and {len(races) - args.limit} more")
    print(f"{len(races)} persist-epoch race(s)")
    return 1


def cmd_dot(args: argparse.Namespace) -> int:
    """Export a trace's persist DAG as Graphviz DOT."""
    trace = load_file(args.trace)
    result = analyze_graph(trace, args.model)
    text = graph_to_dot(
        result.graph, title=f"{args.model} persist order"
    )
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}: {result.persist_count} persists")
    else:
        print(text)
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    """Run failure injection against a fresh queue workload."""
    result = run_insert_workload(from_args(args))
    graph = analyze_graph(result.trace, args.model).graph
    injector = FailureInjector(graph, result.base_image)
    violations = checked = 0
    sources = [
        injector.minimal_images(step=args.minimal_step),
        injector.extension_images(args.samples, seed=args.seed),
    ]
    for source in sources:
        for _, image in source:
            checked += 1
            try:
                verify_recovery(image, result.queue.base, result.expected)
            except RecoveryError as error:
                violations += 1
                if violations <= 3:
                    print(f"violation: {error}")
    print(
        f"checked {checked} failure states over {injector.persist_count} "
        f"persists under {args.model}: {violations} violation(s)"
    )
    return 1 if violations else 0


def _run_paper_grid(args: argparse.Namespace, cells) -> ExperimentRunner:
    """Plan, resolve, run and fold the table1/figures grid.

    ``--cache-dir`` is the :class:`ResultStore` the grid resolves
    against; its hit/miss counters share the runner's stats.
    """
    runner = from_args(args)
    store = None
    if args.cache_dir:
        store = ResultStore(args.cache_dir, stats=runner.stats)
    run_grid(
        runner, cells, args.jobs, store, args.task_timeout, args.task_retries
    )
    return runner


def _report_stats(args: argparse.Namespace, runner: ExperimentRunner) -> None:
    """Print the per-stage stats report (stderr: stdout stays the data)."""
    if args.stats:
        print(runner.stats.report(), file=sys.stderr)


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table 1."""
    thread_counts = tuple(args.threads)
    runner = _run_paper_grid(args, table1_cells(thread_counts))
    table = build_table1(runner, thread_counts=thread_counts)
    print(format_table1(table))
    _report_stats(args, runner)
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate Figures 3-5 as CSV files."""
    runner = _run_paper_grid(args, figure_cells())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fig3 = figure3_latency_sweep(runner)
    fig3.to_csv(out / "fig3_latency.csv")
    fig3.to_svg(out / "fig3_latency.svg", log_y=True)
    for key, value in fig3.notes.items():
        print(f"{key}: {value * 1e9:.1f} ns")
    fig4 = figure4_persist_granularity(runner)
    fig4.to_csv(out / "fig4_persist_granularity.csv")
    fig4.to_svg(out / "fig4_persist_granularity.svg")
    fig5 = figure5_tracking_granularity(runner)
    fig5.to_csv(out / "fig5_false_sharing.csv")
    fig5.to_svg(out / "fig5_false_sharing.svg")
    print(f"wrote figures to {out}")
    _report_stats(args, runner)
    return 0


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """Fuzz one target with schedule x failure-cut campaigns.

    Findings are delta-debugged to minimal counterexamples and written
    to the corpus as replayable repro files.  Returns 1 when any
    recovery violation was found (0 on a clean campaign), so CI can
    assert both directions: fixed targets stay clean, known-broken
    targets keep being caught.

    ``--faults`` adds the device-fault axis: every case carries a
    seeded fault plan of one of the named kinds, and every cut image is
    materialized with torn / dropped / corrupted persists.  Masked and
    detected faults — and documented undetectable exposures on
    unhardened targets — exit 0; silent corruption exits 1.
    ``--checkpoint DIR`` stores every case in a result store at DIR as
    it completes, so an interrupted campaign resumes (same config)
    without re-running them; ``repro serve`` reads the same entries.

    ``--oracle dl``/``bdl`` judges every cut by durable (or buffered
    durable) linearizability of the recorded operation history instead
    of the target's ad-hoc invariant; violations are classified by the
    strongest condition they break and the classification is preserved
    through minimization and the corpus.

    ``--crash-recovery DEPTH`` additionally runs the target's repair
    procedure at every cut as an instrumented program, crashes it at
    consistent cuts of its own persist DAG up to DEPTH levels deep, and
    judges repair idempotence, convergence, and invariant/durability
    preservation; repair violations minimize and replay like any other
    finding, with the nested-crash schedule pinned in the repro file.
    """
    config = from_args(args)
    result = run_campaign(
        config, store=ResultStore(args.checkpoint) if args.checkpoint else None
    )
    print(result.summary())
    if result.violations and not args.no_minimize:
        corpus = Corpus(args.corpus_dir)
        minimized = minimize_findings(
            result, corpus, limit=args.minimize_limit
        )
        for outcome in minimized:
            _print_minimized(outcome.case, corpus)
    return 1 if result.violations else 0


def _print_minimized(case, corpus: Corpus) -> None:
    """Report one minimized campaign finding and its corpus path."""
    if case.crash is not None:
        tag = f" breaks-repair={case.crash}"
    elif case.condition:
        tag = f" breaks={case.condition}"
    else:
        tag = ""
    print(
        f"minimized [{case.model}] threads={case.threads} "
        f"ops={case.ops} |cut|={len(case.cut)}{tag} "
        f"-> {corpus.path_for(case)}"
    )
    print(f"  {case.error}")


def _replay_paths(args: argparse.Namespace) -> List[Path]:
    """Resolve the repro files a replay/minimize command operates on."""
    if args.paths:
        return [Path(path) for path in args.paths]
    corpus = Corpus(args.corpus_dir)
    return corpus.entries()


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Deterministically re-execute corpus repro files.

    Each file's recorded schedule is replayed, its failure cut is
    re-applied, and the target's recovery invariant is re-checked.
    Returns 1 when any entry fails to reproduce its violation (a stale
    or fixed repro), 0 when every entry reproduces.
    """
    paths = _replay_paths(args)
    if not paths:
        print(f"no repro files under {args.corpus_dir}")
        return 2
    corpus = Corpus(args.corpus_dir)
    stale = 0
    for path in paths:
        case = corpus.load(path)
        replay = replay_case(case)
        status = "reproduced" if replay.reproduced else "STALE"
        tag = f" breaks={replay.condition}" if replay.condition else ""
        print(f"{path}: [{status}{tag}] {replay.detail}")
        stale += 0 if replay.reproduced else 1
    print(f"replayed {len(paths)} repro(s): {stale} stale")
    return 1 if stale else 0


def cmd_fuzz_minimize(args: argparse.Namespace) -> int:
    """Re-minimize an existing repro file.

    Rebuilds the case from the file, shrinks its workload and cut from
    scratch (using the adversarial minimal-cut family), and writes the
    minimized case back to the corpus directory.
    """
    corpus = Corpus(args.corpus_dir)
    case = corpus.load(args.path)
    outcome = minimize_finding(case.to_finding())
    path = corpus.add(outcome.case)
    minimized = outcome.case
    tag = f" breaks={minimized.condition}" if minimized.condition else ""
    print(
        f"minimized [{minimized.model}] threads={minimized.threads} "
        f"ops={minimized.ops} |cut|={len(minimized.cut)}{tag} -> {path}"
    )
    print(f"  {minimized.error}")
    print(
        f"  {outcome.stats.runs} re-run(s), "
        f"{outcome.stats.cut_checks} cut check(s)"
    )
    return 0


def cmd_crashrec(args: argparse.Namespace) -> int:
    """Audit a target's repair procedure under nested crash injection.

    Runs a fuzz campaign with the crash-recovery axis on and judges
    *only* the repair oracles: at every sampled failure cut the target's
    repair runs as an instrumented program on the simulator, is crashed
    at consistent cuts of its own persist DAG up to ``--depth`` levels
    deep, and every completed repair must be idempotent, convergent, and
    preserve the invariant (and history oracle, with ``--oracle``) that
    the un-repaired image already satisfied.

    The exit code tracks repair robustness alone: 1 exactly when a
    repair oracle broke, even on known-broken targets whose *workload*
    violations are expected (those still appear in the summary but do
    not fail the audit).
    """
    config = from_args(args)
    result = run_campaign(config)
    print(result.summary())
    crash_findings = [f for f in result.findings if f.crash is not None]
    if crash_findings and not args.no_minimize:
        corpus = Corpus(args.corpus_dir)
        seen = set()
        for finding in crash_findings:
            key = (finding.spec.model, finding.crash)
            if key in seen or len(seen) >= args.minimize_limit:
                continue
            seen.add(key)
            case = minimize_finding(finding).case
            _print_minimized(case, corpus)
            corpus.add(case)
    return 1 if result.crash_violations else 0


def cmd_check(args: argparse.Namespace) -> int:
    """Model-check a fuzz target with DPOR + persist-DAG deduplication.

    Explores one execution per schedule-equivalence class (instead of
    every interleaving), analyzes each under the selected persistency
    models, deduplicates persist DAGs and cut images by content hash,
    and checks recovery at every remaining failure state.  With
    ``--jobs`` above one the schedule tree is prefix-partitioned across
    worker processes; otherwise one shard explores the whole tree.
    Distinct violations are exported to the corpus as replayable repro
    files (``repro fuzz replay`` / ``minimize``).  Returns 1 when
    violations were found, 0 on a verified-clean target, 2 on an
    exploration-limit overrun or other error.
    """
    config = from_args(args)
    sharded = args.jobs > 1
    result, reports = check_target_sharded(
        args.target,
        args.threads,
        args.ops,
        config,
        jobs=args.jobs,
        shard_depth=args.shard_depth if sharded else 0,
    )
    print(
        f"checked {args.target} threads={args.threads} ops={args.ops} "
        f"models={','.join(config.models)}"
    )
    for line in result.summary_lines():
        print(line)
    if args.stats:
        for key in sorted(result.stats.engine):
            print(f"  engine {key}: {result.stats.engine[key]}", file=sys.stderr)
        for report in reports if sharded else ():
            print(
                f"  shard {report.prefix}: "
                f"{report.stats['schedules']} schedule(s), "
                f"{report.stats['cuts_checked']} cut(s), "
                f"{report.violations} violation(s)",
                file=sys.stderr,
            )
    violations = [result.distinct[key] for key in sorted(result.distinct)]
    for violation in violations:
        tag = (
            f" breaks={violation.condition}" if violation.condition else ""
        )
        print(
            f"violation [{violation.model}] schedule "
            f"{violation.schedule_index} |cut|={len(violation.cut)}{tag}: "
            f"{violation.error}"
        )
    if violations and not args.no_export:
        paths = export_check_violations(
            args.corpus_dir,
            args.target,
            args.threads,
            args.ops,
            violations,
            oracle=config.oracle,
        )
        for path in paths:
            print(f"exported {path}")
    return 1 if violations else 0


def _litmus_corpus(args: argparse.Namespace):
    """Resolve the corpus selection shared by the litmus subcommands."""
    programs = hand_written()
    if args.generated:
        programs += generate_programs(args.seed, args.generated)
    if args.program:
        by_name = corpus_by_name(programs)
        missing = [name for name in args.program if name not in by_name]
        if missing:
            raise ReproError(
                f"unknown litmus program(s): {', '.join(missing)}; "
                f"see `repro litmus list`"
            )
        programs = [by_name[name] for name in args.program]
    return programs


def cmd_litmus_list(args: argparse.Namespace) -> int:
    """List the litmus corpus (name, tags, one-line description)."""
    for program in _litmus_corpus(args):
        tags = ",".join(program.tags)
        print(f"{program.name:28s} [{tags}] {program.description}")
    return 0


def cmd_litmus_show(args: argparse.Namespace) -> int:
    """Print one litmus program's threads and locations."""
    args.program = [args.name]
    (program,) = _litmus_corpus(args)
    print(f"{program.name}: {program.description}")
    print(f"locations: {', '.join(program.locations)}")
    for tid, prog in enumerate(program.threads):
        print(f"thread {tid}:")
        for op in prog:
            print(f"  {' '.join(str(part) for part in op)}")
    return 0


def cmd_litmus_run(args: argparse.Namespace) -> int:
    """Run the litmus corpus under persistency models, differentially.

    Explores each program's TSO schedule space once (DPOR), analyzes
    every schedule under each selected model, and compares the allowed
    outcome sets (registers + persisted crash states) pairwise across
    models — and across dependency domains with ``--cross-domains``.
    Model disagreements are the point of the harness and exit 0; a
    bitset-vs-frozenset domain mismatch is an implementation bug and
    exits 1.
    """
    presets = {}
    if args.all_models:
        presets["models"] = MODEL_CHOICES
    if args.cross_domains:
        presets["domains"] = GRAPH_DOMAINS
    config = from_args(args, **presets)
    report = run_corpus(_litmus_corpus(args), config)
    summary = report["summary"]
    for row in report["programs"]:
        allowed = " ".join(
            f"{model}={row['allowed'][model]}" for model in config.models
        )
        truncated = (
            f" cut-limit-exceeded={','.join(row['cut_limit_exceeded'])}"
            if row["cut_limit_exceeded"]
            else ""
        )
        print(
            f"{row['name']:28s} schedules={row['schedules']:<4d} "
            f"{allowed}{truncated}"
        )
        if args.verbose:
            for pair in row["disagreements"]:
                print(
                    f"  {pair['left']} vs {pair['right']}: "
                    f"{len(pair['left_only'])} outcome(s) only-left, "
                    f"{len(pair['right_only'])} only-right"
                )
    for line in summary_lines(summary):
        print(line)
    if args.out:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    return 1 if summary["domain_mismatches"] else 0


def _serve_socket(args: argparse.Namespace) -> Path:
    """The daemon socket a client command should talk to."""
    if args.socket:
        return Path(args.socket)
    return default_socket(args.state_dir)


def _print_job(view: dict, verbose: bool = False) -> None:
    """One job's status lines (the `jobs` row or the `status` detail)."""
    shards = f"{view['shards_done']}/{view['shards_total']}"
    violations = (
        "-" if view["violations"] is None else str(view["violations"])
    )
    eta = view.get("eta_seconds")
    eta_text = f" eta={eta:.1f}s" if eta is not None else ""
    print(
        f"{view['id']}  {view['tenant']:12s} {view['spec']['kind']:6s} "
        f"{view['state']:9s} shards={shards:9s} "
        f"violations={violations}{eta_text}"
    )
    if verbose:
        if view.get("error"):
            print(f"  error: {view['error']}")
        if view.get("summary"):
            print(
                f"  store: {view['store_hits']} hit(s), "
                f"{view['store_misses']} miss(es)"
            )
            for line in view["summary"]["text"].splitlines():
                print(f"  {line}")


def _job_exit_code(view: dict) -> int:
    """Compose with CI like `check`: violations exit 1, breakage 2."""
    if view["state"] == "done":
        return 1 if view["violations"] else 0
    return 2


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the checking-service daemon until shutdown.

    Accepts check / fuzz / litmus / paper job specs from many tenants
    over a unix socket, executes shards on a work-stealing multiprocessing
    pool under per-tenant token-bucket fairness, and shares every shard
    result through a content-addressed store — identical work (across
    tenants, restarts, and resubmissions) is computed once.  Stop with
    SIGINT or the `shutdown` op; `kill -9` is survivable: restart and
    interrupted jobs resume from their journaled state.
    """
    config = from_args(
        args, state_dir=Path(args.state_dir), socket_path=args.socket
    )
    print(
        f"serving on {config.socket_path} "
        f"({config.workers} worker(s), state in {config.state_dir})",
        flush=True,
    )
    try:
        serve_forever(config)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a JSON job spec to a running daemon; prints the job id.

    The spec file holds one object with a `kind` of check, fuzz,
    litmus or paper (see docs/service.md for each kind's fields).  With
    `--wait`, polls to completion and exits like `repro check` would:
    0 clean, 1 on violations, 2 on a failed/cancelled job.
    """
    import json as json_module

    if args.spec == "-":
        spec = json_module.load(sys.stdin)
    else:
        with open(args.spec, "r", encoding="utf-8") as stream:
            spec = json_module.load(stream)
    socket_path = _serve_socket(args)
    response = request(
        socket_path, {"op": "submit", "tenant": args.tenant, "spec": spec}
    )
    print(response["job"])
    if not args.wait:
        return 0
    view = wait_for_job(
        socket_path, response["job"], timeout=args.timeout, interval=args.poll
    )
    _print_job(view, verbose=True)
    return _job_exit_code(view)


def cmd_jobs(args: argparse.Namespace) -> int:
    """List every job the daemon knows, oldest first."""
    for view in request(_serve_socket(args), {"op": "jobs"})["jobs"]:
        _print_job(view)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show one job: state, shard progress, violations, ETA, summary."""
    view = request(
        _serve_socket(args), {"op": "status", "job": args.job}
    )["job"]
    _print_job(view, verbose=True)
    return _job_exit_code(view) if args.exit_code else 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel an active job (terminal jobs are left untouched)."""
    view = request(
        _serve_socket(args), {"op": "cancel", "job": args.job}
    )["job"]
    _print_job(view)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Validate the installation end to end in under a minute.

    Runs a miniature of every pipeline stage: workload + SC validation,
    all four model analyses with the expected ordering, the race lint on
    both queue disciplines, failure injection on a correct design, and
    the known-broken printed 2LC (which must be caught).
    """
    from repro.trace import validate as validate_trace

    failures: List[str] = []

    def check(label: str, ok: bool) -> None:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    print("workload + trace validation")
    safe = run_insert_workload(
        design="cwl", threads=2, inserts_per_thread=10, seed=5
    )
    racing = run_insert_workload(
        design="cwl", threads=2, inserts_per_thread=10, racing=True, seed=5
    )
    try:
        validate_trace(safe.trace)
        check("SC trace validates", True)
    except ReproError:
        check("SC trace validates", False)

    print("model analyses")
    paths = {
        model: analyze(safe.trace, model).critical_path
        for model in sorted(MODELS)
    }
    check(
        "model hierarchy strict >= epoch >= strand",
        paths["strict"] >= paths["epoch"] >= paths["strand"],
    )
    check("bpfs <= epoch", paths["bpfs"] <= paths["epoch"])

    print("persist-epoch race lint")
    check("race-free discipline is clean", not find_persist_epoch_races(safe.trace))
    check("racing epochs are flagged", bool(find_persist_epoch_races(racing.trace)))

    print("failure injection")
    graph = analyze_graph(safe.trace, "epoch").graph
    injector = FailureInjector(graph, safe.base_image)
    violations = 0
    for _, image in injector.minimal_images(step=5):
        try:
            verify_recovery(image, safe.queue.base, safe.expected)
        except RecoveryError:
            violations += 1
    check("correct design recovers at every cut", violations == 0)

    broken = run_insert_workload(
        design="2lc", threads=4, inserts_per_thread=8, seed=0,
        paper_faithful=True,
    )
    graph = analyze_graph(broken.trace, "epoch").graph
    injector = FailureInjector(graph, broken.base_image)
    caught = 0
    for _, image in injector.minimal_images():
        try:
            verify_recovery(image, broken.queue.base, broken.expected)
        except RecoveryError:
            caught += 1
    check("known-broken printed 2LC is caught", caught > 0)

    print(
        f"selfcheck: {'PASS' if not failures else 'FAIL'} "
        f"({len(failures)} failure(s))"
    )
    return 1 if failures else 0


def _add_minimize_arguments(
    parser: argparse.ArgumentParser, findings: str, per: str
) -> None:
    """The corpus flags shared by ``fuzz run`` and ``crashrec``."""
    parser.add_argument("--corpus-dir", default=".repro-corpus")
    parser.add_argument(
        "--minimize-limit", type=int, default=3,
        help=f"{findings} minimized into the corpus (one per {per})",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help=f"report {findings} without minimizing into the corpus",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory Persistency (ISCA 2014) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help=cmd_run.__doc__)
    add_arguments(run_parser, WorkloadConfig)
    run_parser.add_argument("-o", "--output", required=True)
    run_parser.set_defaults(handler=cmd_run)

    analyze_parser = commands.add_parser("analyze", help=cmd_analyze.__doc__)
    analyze_parser.add_argument("trace")
    analyze_parser.add_argument(
        "--model", action="append", choices=sorted(MODELS)
    )
    analyze_parser.add_argument("--persist-granularity", type=int, default=8)
    analyze_parser.add_argument("--tracking-granularity", type=int, default=8)
    analyze_parser.add_argument("--no-coalescing", action="store_true")
    analyze_parser.add_argument(
        "--domain",
        choices=("level", "graph", "bitset"),
        default=None,
        help="dependency domain (default: level, the scalar fast path)",
    )
    analyze_parser.add_argument(
        "--stream",
        action="store_true",
        help="stream the trace in columnar chunks (bounded memory; "
        "incompatible with --wear)",
    )
    analyze_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="events per streamed chunk (with --stream)",
    )
    analyze_parser.add_argument(
        "--op-mark",
        default=INSERT_MARK,
        help="MARK annotation counting logical operations",
    )
    analyze_parser.add_argument(
        "--wear",
        action="store_true",
        help="also report per-block NVRAM wear (max writes, coalescing cut)",
    )
    analyze_parser.set_defaults(handler=cmd_analyze)

    races_parser = commands.add_parser("races", help=cmd_races.__doc__)
    races_parser.add_argument("trace")
    races_parser.add_argument("--tracking-granularity", type=int, default=8)
    races_parser.add_argument("--limit", type=int, default=20)
    races_parser.set_defaults(handler=cmd_races)

    dot_parser = commands.add_parser("dot", help=cmd_dot.__doc__)
    dot_parser.add_argument("trace")
    dot_parser.add_argument("--model", choices=sorted(MODELS), default="epoch")
    dot_parser.add_argument("-o", "--output")
    dot_parser.set_defaults(handler=cmd_dot)

    inject_parser = commands.add_parser("inject", help=cmd_inject.__doc__)
    add_arguments(inject_parser, WorkloadConfig)
    inject_parser.add_argument(
        "--model", choices=sorted(MODELS), default="epoch"
    )
    inject_parser.add_argument("--samples", type=int, default=50)
    inject_parser.add_argument("--minimal-step", type=int, default=1)
    inject_parser.set_defaults(handler=cmd_inject)

    table_parser = commands.add_parser("table1", help=cmd_table1.__doc__)
    add_arguments(
        table_parser,
        ExperimentRunner,
        extra={**JOB_KINDS["paper"].keys, **_GRID_OPTIONS},
    )
    table_parser.set_defaults(handler=cmd_table1)

    figures_parser = commands.add_parser("figures", help=cmd_figures.__doc__)
    add_arguments(figures_parser, ExperimentRunner, extra=_GRID_OPTIONS)
    figures_parser.add_argument("--out", default="artifacts")
    figures_parser.set_defaults(handler=cmd_figures)

    fuzz_parser = commands.add_parser(
        "fuzz", help="crash-consistency fuzzing campaigns"
    )
    fuzz_commands = fuzz_parser.add_subparsers(
        dest="fuzz_command", required=True
    )

    fuzz_run = fuzz_commands.add_parser("run", help=cmd_fuzz_run.__doc__)
    add_arguments(fuzz_run, CampaignConfig)
    fuzz_run.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="store each completed case in a result store here; "
        "rerunning resumes",
    )
    _add_minimize_arguments(fuzz_run, "findings", "model")
    fuzz_run.set_defaults(handler=cmd_fuzz_run)

    fuzz_replay = fuzz_commands.add_parser(
        "replay", help=cmd_fuzz_replay.__doc__
    )
    fuzz_replay.add_argument(
        "paths", nargs="*",
        help="repro files (default: every entry in --corpus-dir)",
    )
    fuzz_replay.add_argument("--corpus-dir", default=".repro-corpus")
    fuzz_replay.set_defaults(handler=cmd_fuzz_replay)

    fuzz_minimize = fuzz_commands.add_parser(
        "minimize", help=cmd_fuzz_minimize.__doc__
    )
    fuzz_minimize.add_argument("path", help="repro file to re-minimize")
    fuzz_minimize.add_argument("--corpus-dir", default=".repro-corpus")
    fuzz_minimize.set_defaults(handler=cmd_fuzz_minimize)

    crashrec_parser = commands.add_parser(
        "crashrec", help=cmd_crashrec.__doc__
    )
    add_arguments(
        crashrec_parser,
        CampaignConfig,
        target={"choices": tuple(
            name for name in TARGET_CHOICES if TARGETS[name].repairable
        )},
        budget={"default": 50},
        cut_samples={"default": 16},
        crash_recovery={
            "flag": "--depth",
            "default": 2,
            "metavar": None,
            "help": "nested-crash levels inside repair (0 judges only "
            "the crash-free repair)",
        },
    )
    _add_minimize_arguments(
        crashrec_parser, "repair findings", "model x oracle"
    )
    crashrec_parser.set_defaults(handler=cmd_crashrec)

    check_parser = commands.add_parser("check", help=cmd_check.__doc__)
    add_arguments(
        check_parser,
        CheckConfig,
        extra=JOB_KINDS["check"].keys,
        threads={"default": 2},
        ops={"default": 1},
    )
    check_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (above 1: prefix-sharded exploration)",
    )
    check_parser.add_argument(
        "--stats", action="store_true",
        help="print engine and per-shard counters to stderr",
    )
    check_parser.add_argument("--corpus-dir", default=".repro-corpus")
    check_parser.add_argument(
        "--no-export", action="store_true",
        help="report violations without writing corpus repro files",
    )
    check_parser.set_defaults(handler=cmd_check)

    litmus_parser = commands.add_parser(
        "litmus", help="litmus corpus: list, show, differential run"
    )
    litmus_commands = litmus_parser.add_subparsers(
        dest="litmus_command", required=True
    )

    def litmus_corpus_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--generated", type=int, default=4,
            help="number of seeded generated programs to append (default 4)",
        )
        sub.add_argument(
            "--seed", type=int, default=2014,
            help="generator seed (default 2014)",
        )

    litmus_list = litmus_commands.add_parser(
        "list", help=cmd_litmus_list.__doc__
    )
    litmus_corpus_args(litmus_list)
    litmus_list.add_argument(
        "--program", action="append", default=None,
        help="restrict to named program(s)",
    )
    litmus_list.set_defaults(handler=cmd_litmus_list)

    litmus_show = litmus_commands.add_parser(
        "show", help=cmd_litmus_show.__doc__
    )
    litmus_corpus_args(litmus_show)
    litmus_show.add_argument("name", help="program name")
    litmus_show.set_defaults(handler=cmd_litmus_show)

    litmus_run = litmus_commands.add_parser(
        "run", help=cmd_litmus_run.__doc__
    )
    litmus_corpus_args(litmus_run)
    litmus_run.add_argument(
        "--program", action="append", default=None,
        help="run only the named program(s) (default: whole corpus)",
    )
    add_arguments(litmus_run, LitmusConfig)
    litmus_run.add_argument(
        "--all-models", action="store_true",
        help="compare every registered model (including bpfs)",
    )
    litmus_run.add_argument(
        "--cross-domains", action="store_true",
        help="run bitset AND frozenset domains, flag any outcome mismatch",
    )
    litmus_run.add_argument(
        "-o", "--out", default=None,
        help="write the full differential report as JSON",
    )
    litmus_run.add_argument(
        "-v", "--verbose", action="store_true",
        help="print per-pair disagreement counts",
    )
    litmus_run.set_defaults(handler=cmd_litmus_run)

    def serve_client_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--state-dir", default=".repro-serve",
            help="daemon state directory (default .repro-serve); used to "
            "locate the default socket",
        )
        sub.add_argument(
            "--socket", default=None,
            help="daemon socket path (default <state-dir>/serve.sock)",
        )

    serve_parser = commands.add_parser("serve", help=cmd_serve.__doc__)
    serve_client_args(serve_parser)
    add_arguments(serve_parser, ServeConfig)
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = commands.add_parser("submit", help=cmd_submit.__doc__)
    serve_client_args(submit_parser)
    submit_parser.add_argument(
        "spec", help="path to the JSON job spec ('-' reads stdin)"
    )
    submit_parser.add_argument(
        "--tenant", default="default", help="tenant id (default 'default')"
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes; exit 1 on violations",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait deadline in seconds (default 600)",
    )
    submit_parser.add_argument(
        "--poll", type=float, default=0.2,
        help="--wait poll interval in seconds (default 0.2)",
    )
    submit_parser.set_defaults(handler=cmd_submit)

    jobs_parser = commands.add_parser("jobs", help=cmd_jobs.__doc__)
    serve_client_args(jobs_parser)
    jobs_parser.set_defaults(handler=cmd_jobs)

    status_parser = commands.add_parser("status", help=cmd_status.__doc__)
    serve_client_args(status_parser)
    status_parser.add_argument("job", help="job id from `repro submit`")
    status_parser.add_argument(
        "--exit-code", action="store_true",
        help="exit 1/2 for violating/failed jobs instead of 0",
    )
    status_parser.set_defaults(handler=cmd_status)

    cancel_parser = commands.add_parser("cancel", help=cmd_cancel.__doc__)
    serve_client_args(cancel_parser)
    cancel_parser.add_argument("job", help="job id from `repro submit`")
    cancel_parser.set_defaults(handler=cmd_cancel)

    selfcheck_parser = commands.add_parser(
        "selfcheck", help=cmd_selfcheck.__doc__
    )
    selfcheck_parser.set_defaults(handler=cmd_selfcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
