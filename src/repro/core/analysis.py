"""The persist-ordering analysis engine.

Processes a trace in SC order, propagating persist dependences through
memory (conflict order at the tracking granularity, strong persist
atomicity and coalescing at the atomic-persist granularity) and through
per-thread model state.  This is the reproduction of the paper's
methodology (Section 7): the critical path of persist ordering
constraints is an implementation-independent, best-case measure of
persist concurrency, assuming infinite bandwidth and banks.

Every persist to the persistent address space occurs in place (no
logging/indirection hardware), persists coalesce with the pending persist
to their atomic block when no ordering constraint is violated, and
dependences propagate at a configurable granularity, so that persistent
false sharing (Figure 5) and atomic persist size (Figure 4) can be swept.

Every trace reaches one loop, :meth:`StreamingAnalyzer._feed_chunk`,
as struct-of-arrays :class:`~repro.trace.columnar.ColumnarChunk`
batches: a :class:`Trace` is already stored as chunks, and any other
event iterable is encoded into chunks on the way in.  The loop
dispatches on integer kind codes, batches maximal same-block
persistent-store runs into one domain call, and — with a
``node_sink`` — retires sealed persists' write payloads so resident
memory is bounded by the dependence frontier, not by trace length.
Three entry points share it:

* :func:`analyze` — one-shot over an in-memory trace;
* :class:`StreamingAnalyzer` — resumable: feed chunks, whole traces, or
  event iterables in trace order, then
  :meth:`~StreamingAnalyzer.finish`; built ``rewindable``, the loop
  journals its changes and :meth:`~StreamingAnalyzer.rewind` undoes
  them back to any earlier event count;
* :class:`PrefixSharedAnalysis` — DAGs of a stream of traces that share
  prefixes (the model checker's explored runs), analyzing only each
  trace's new suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bitgraph import BitsetGraphDomain
from repro.core.lattice import (
    DependencyDomain,
    GraphDomain,
    LevelDomain,
    PersistNode,
)
from repro.core.model import PersistencyModel, make_model
from repro.errors import AnalysisError
from repro.memory import layout
from repro.trace.columnar import (
    CODE_CLFLUSH,
    CODE_CLFLUSH_OPT,
    CODE_CLWB,
    CODE_FENCE,
    CODE_LOAD,
    CODE_NEW_STRAND,
    CODE_PERSIST_BARRIER,
    CODE_RMW,
    CODE_SFENCE,
    CODE_STORE,
    FLAG_PERSISTENT,
    HAVE_NUMPY,
    ColumnarChunk,
)
from repro.trace.columnar import _np
from repro.trace.trace import Trace, as_chunks


@dataclass
class AnalysisConfig:
    """Parameters of one persist-ordering analysis.

    Attributes:
        persist_granularity: atomic persist size in bytes (Figure 4 sweeps
            this 8..256).  Persists within one aligned block of this size
            may coalesce into a single atomic persist.
        tracking_granularity: granularity at which conflicts propagate
            dependences (Figure 5 sweeps this 8..256); coarser tracking
            introduces persistent false sharing.
        coalescing: whether persists may coalesce at all.
    """

    persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY
    tracking_granularity: int = layout.DEFAULT_TRACKING_GRANULARITY
    coalescing: bool = True

    def validate(self) -> None:
        """Raise AnalysisError on unusable granularities."""
        for label, value in (
            ("persist_granularity", self.persist_granularity),
            ("tracking_granularity", self.tracking_granularity),
        ):
            if value < layout.WORD_SIZE or not layout.is_power_of_two(value):
                raise AnalysisError(
                    f"{label} must be a power of two >= {layout.WORD_SIZE}, "
                    f"got {value}"
                )


@dataclass
class AnalysisResult:
    """Outcome of analyzing one trace under one persistency model."""

    model: str
    config: AnalysisConfig
    critical_path: int
    persist_count: int
    persist_stores: int
    coalesced: int
    events: int
    barriers: int
    strands: int
    #: Persists per level: the persist concurrency profile.
    level_histogram: Optional[Dict[int, int]] = None
    #: Device writes per atomic-persist block (post-coalescing wear).
    block_writes: Optional[Dict[int, int]] = None
    #: Populated when the analysis ran on a GraphDomain.
    graph: Optional[GraphDomain] = None

    @property
    def mean_concurrency(self) -> float:
        """Average persists per critical-path level (drain-wave width)."""
        if self.critical_path <= 0:
            return 0.0
        return self.persist_count / self.critical_path

    @property
    def coalesce_fraction(self) -> float:
        """Fraction of persistent stores absorbed by coalescing."""
        if not self.persist_stores:
            return 0.0
        return self.coalesced / self.persist_stores

    def critical_path_per(self, operations: int) -> float:
        """Critical path normalised per logical operation (e.g. insert)."""
        if operations <= 0:
            raise AnalysisError(f"operations must be positive, got {operations}")
        return self.critical_path / operations


#: Registry of dependency-domain constructors selectable by name.
DOMAINS = {
    "level": LevelDomain,
    "graph": GraphDomain,
    "bitset": BitsetGraphDomain,
}


def make_domain(name: str) -> DependencyDomain:
    """Construct a fresh dependency domain from its registry name."""
    try:
        factory = DOMAINS[name]
    except KeyError:
        raise AnalysisError(
            f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}"
        ) from None
    return factory()


class _ChunkStore:
    """Duck-typed stand-in for a store
    :class:`~repro.trace.events.MemoryEvent`.

    The DAG domains only read ``thread``/``seq``/``addr`` and call
    ``data_bytes()`` when registering a persist; reconstructing (and
    re-validating) a full frozen dataclass per persist would dominate the
    analysis loop.
    """

    __slots__ = ("seq", "thread", "addr", "size", "value")

    def __init__(self, seq: int, thread: int, addr: int, size: int, value: int):
        self.seq = seq
        self.thread = thread
        self.addr = addr
        self.size = size
        self.value = value

    def data_bytes(self) -> bytes:
        return self.value.to_bytes(self.size, "little")


class StreamingAnalyzer:
    """Resumable persist-ordering analysis over an event stream.

    Construct with a model/config/domain (same conventions as
    :func:`analyze`), :meth:`feed` any mix of :class:`ColumnarChunk`
    batches, traces, or event iterables — in trace order — then call
    :meth:`finish` for the :class:`AnalysisResult`.

    State between feeds is exactly the engine's dependence frontier: the
    per-block last-writer/reader values, the pending (still-coalescible)
    persist per atomic block, and the model's per-thread state.  Nothing
    retained grows with trace length, so million-event traces stream in
    bounded memory (on the scalar level domain; DAG domains additionally
    keep one node per persist — see ``node_sink``).

    ``node_sink``: optional callable invoked with each DAG
    :class:`PersistNode` the moment it is *sealed* (its atomic block got
    a new pending persist, so no later store can coalesce into it; the
    remainder are sealed by :meth:`finish`).  After the callback the
    node's ``writes`` payload is dropped to keep resident memory bounded
    by the pending frontier — the in-memory graph keeps its structure
    (deps, levels, critical path) but no longer supports recovery
    imaging.  Ignored on the level domain, which has no nodes.

    ``rewindable``: keep an undo journal so :meth:`rewind` can return
    the analyzer to its state after any earlier event count — how the
    model checker analyzes only what each schedule adds to the prefix
    it shares with the previous one.  Needs a DAG domain, a model that
    exposes :meth:`~repro.core.model.PersistencyModel.thread_state`,
    and no ``node_sink`` (sealing is irreversible).  The journal holds
    a few entries per event fed, and a journaling loop does not batch
    same-block runs.
    """

    def __init__(
        self,
        model: Union[str, PersistencyModel],
        config: Optional[AnalysisConfig] = None,
        domain: Union[str, DependencyDomain, None] = None,
        node_sink: Optional[Callable[[PersistNode], None]] = None,
        rewindable: bool = False,
    ) -> None:
        if isinstance(model, str):
            model = make_model(model)
        config = config or AnalysisConfig()
        config.validate()
        if domain is None:
            domain = LevelDomain()
        elif isinstance(domain, str):
            domain = make_domain(domain)
        model.reset(domain)
        self.model = model
        self.config = config
        self.domain = domain
        self._graph = domain if isinstance(domain, GraphDomain) else None
        self._node_sink = node_sink if self._graph is not None else None

        self._write_dep: Dict[int, object] = {}
        self._read_dep: Dict[int, object] = {}
        self._pending: Dict[int, object] = {}
        self._block_writes: Dict[int, int] = {}
        self._events = 0
        self._persist_stores = 0
        self._coalesced = 0
        self._barriers = 0
        self._strands = 0
        self._finished = False
        #: Undo journal (rewindable analyzers only): ``(target, key,
        #: old)`` entries restoring a dict entry (``old`` is ``_ABSENT``
        #: for a missing key) or, with key ``_WRITES``, the write count
        #: of node ``target``; ``_marks[i]`` is the journal length, node
        #: count and counters before event ``i``.
        self._journal: Optional[list] = None
        self._marks: List[tuple] = []
        if rewindable:
            if self._graph is None:
                raise AnalysisError("a rewindable analysis needs a DAG domain")
            if node_sink is not None:
                raise AnalysisError(
                    "a rewindable analysis cannot take a node_sink: "
                    "sealed nodes cannot be unsealed"
                )
            try:
                self._model_state = model.thread_state()
            except NotImplementedError:
                raise AnalysisError(
                    f"model {model.name!r} does not expose its thread "
                    f"state, so it cannot be rewound"
                ) from None
            self._journal = []

    @property
    def events_fed(self) -> int:
        """Number of events consumed so far."""
        return self._events

    def rewind(self, events: int) -> "StreamingAnalyzer":
        """Return to exactly the state after the first ``events`` events.

        Undoes the frontier dicts, the model's thread state, the
        counters and the persist DAG (nodes past the kept ones are
        dropped; ``_version`` still grows, so caches stamped on the
        graph miss).  Feeding the same events again then gives the same
        analyzer as one that never went past ``events``.  Raises
        :class:`~repro.errors.AnalysisError` unless the analyzer is
        rewindable, unfinished and ``0 <= events <= events_fed``.
        """
        if self._journal is None:
            raise AnalysisError(
                "rewind needs a StreamingAnalyzer built with rewindable=True"
            )
        if self._finished:
            raise AnalysisError("cannot rewind a finished StreamingAnalyzer")
        if not 0 <= events <= self._events:
            raise AnalysisError(
                f"cannot rewind to event {events}: {self._events} fed"
            )
        if events == self._events:
            return self
        (
            kept,
            nodes,
            self._persist_stores,
            self._coalesced,
            self._barriers,
            self._strands,
        ) = self._marks[events]
        journal = self._journal
        graph = self._graph
        for target, key, old in reversed(journal[kept:]):
            if key is _WRITES:
                del graph.nodes[target].writes[old:]
                del graph.node_records[target:]
            elif old is _ABSENT:
                target.pop(key, None)
            else:
                target[key] = old
        del journal[kept:]
        del self._marks[events:]
        graph.truncate(nodes)
        self._events = events
        return self

    def _seal(self, token: int) -> None:
        """Emit a no-longer-coalescible DAG node and drop its payload."""
        graph = self._graph
        node = graph.nodes[token]
        self._node_sink(node)
        node.writes.clear()
        del graph.node_records[token:]

    # -- feeding ------------------------------------------------------------

    def feed(self, source) -> "StreamingAnalyzer":
        """Consume more of the trace; returns self for chaining.

        ``source`` may be a :class:`ColumnarChunk`, a :class:`Trace`, or
        any iterable of :class:`~repro.trace.events.MemoryEvent`.  Every
        source runs through the same chunk loop
        (:func:`~repro.trace.trace.as_chunks`): a trace's own chunks are
        read as they are, and plain events are encoded into chunks of
        :data:`~repro.trace.columnar.DEFAULT_CHUNK_EVENTS` on the way in.
        Sources must arrive in SC trace order across all feed calls, and
        a trace or event source must continue densely from
        :attr:`events_fed` (its first event's ``seq`` equals it);
        otherwise :class:`~repro.errors.TraceError` is raised.
        """
        if self._finished:
            raise AnalysisError("cannot feed a finished StreamingAnalyzer")
        for chunk in as_chunks(source, self._events):
            self._feed_chunk(chunk)
        return self

    def finish(self) -> AnalysisResult:
        """Seal remaining state and return the analysis result."""
        if self._finished:
            raise AnalysisError("StreamingAnalyzer.finish() called twice")
        self._finished = True
        if self._node_sink is not None:
            for token in self._pending.values():
                self._seal(token)
        domain = self.domain
        return AnalysisResult(
            model=self.model.name,
            config=self.config,
            critical_path=domain.critical_path(),
            persist_count=domain.persist_count,
            persist_stores=self._persist_stores,
            coalesced=self._coalesced,
            events=self._events,
            barriers=self._barriers,
            strands=self._strands,
            level_histogram=domain.level_histogram(),
            block_writes=self._block_writes,
            graph=self._graph,
        )

    # -- the analysis loop ---------------------------------------------------

    def _feed_chunk(self, chunk: ColumnarChunk) -> None:
        """The analysis loop: dispatch on kind codes plus batched
        same-block coalescing runs.

        A *run* is a maximal sequence of consecutive plain persistent
        STOREs from one thread into one tracking block and one atomic
        persist block (no info annotations).  After the first store of a
        run is processed generically, every later store of the run is
        guaranteed to coalesce into the same pending persist: its
        observed value is ``join(thread_in, write_dep[block])``, both of
        which the first store already folded below the pending token, and
        ``absorb`` is an idempotent join (``PersistencyModel.
        absorb_is_join``), so re-absorbing the unchanged token value is a
        no-op.  The whole tail therefore commits as one
        ``coalesce_run`` + counter bump, with no per-event domain calls.

        A rewindable analyzer journals here: before each event it marks
        the journal length, node count and counters, and before each
        mutation it logs the old dict entry (frontier dicts, the event
        thread's model state) or node write count.  Journaling skips
        run batching, so each event's changes stay separable.
        """
        n = len(chunk)
        if not n:
            return
        model = self.model
        domain = self.domain
        config = self.config
        tracking_gran = config.tracking_granularity
        persist_gran = config.persist_granularity
        coalescing = config.coalescing
        detect_lbs = model.detect_load_before_store
        track_volatile = model.track_volatile_conflicts
        sink = self._node_sink
        # Run batching needs the absorb-is-a-join model contract; without
        # coalescing every run store creates its own chained persist, so
        # there is nothing to batch.
        batch_runs = coalescing and model.absorb_is_join
        journal = self._journal
        if journal is not None:
            batch_runs = False
            log = journal.append
            mark = self._marks.append
            model_state = self._model_state
            nodes = self._graph.nodes

        join = domain.join
        leq = domain.leq
        value_of = domain.value_of
        do_persist = domain.persist
        do_coalesce = domain.coalesce
        do_coalesce_run = domain.coalesce_run
        thread_in = model.thread_in
        absorb = model.absorb
        on_barrier = model.on_barrier
        on_new_strand = model.on_new_strand
        on_sfence = model.on_sfence
        on_flush = model.on_flush
        needs_payload = self._graph is not None

        write_dep = self._write_dep
        read_dep = self._read_dep
        pending = self._pending
        block_writes = self._block_writes
        persist_stores = self._persist_stores
        coalesced = self._coalesced
        barriers = self._barriers
        strands = self._strands

        base_seq = chunk.base_seq
        # Bulk-convert the columns once: list indexing is far cheaper than
        # repeated typed-array __getitem__ boxing in the inner loop.
        kinds = chunk.kinds.tolist()
        threads = chunk.threads.tolist()
        addrs = chunk.addrs.tolist()
        sizes = chunk.sizes.tolist()
        values = chunk.values.tolist()
        flags = chunk.flags.tolist()
        infos = chunk.infos
        info_get = infos.get

        # Granularities are validated powers of two: block ids via shifts.
        tshift = tracking_gran.bit_length() - 1
        pshift = persist_gran.bit_length() - 1
        # Vectorised (numpy) precomputation for long chunks: block-id
        # columns, run eligibility, and — for run batching — ``run_end``,
        # mapping each index to one past the end of its maximal run
        # group.  Adjacent events share a group when both are
        # run-eligible with equal thread / tracking block / persist
        # block; group equality is transitive over adjacent pairs, so
        # ``run_end[head]`` lands exactly where the scalar forward scan
        # would stop.
        run_end = None
        if HAVE_NUMPY and n >= _NUMPY_MIN_EVENTS:
            cols = chunk.columns()
            addrs_np = cols[2]
            tb_np = addrs_np >> tshift
            pb_np = addrs_np >> pshift
            tb = tb_np.tolist()
            pb = pb_np.tolist()
            run_ok_np = (cols[0] == CODE_STORE) & (
                (cols[5] & FLAG_PERSISTENT) != 0
            )
            if infos:
                run_ok_np[list(infos)] = False
            run_ok = run_ok_np.tolist()
            if batch_runs and n > 1:
                same = (
                    run_ok_np[1:]
                    & run_ok_np[:-1]
                    & (cols[1][1:] == cols[1][:-1])
                    & (tb_np[1:] == tb_np[:-1])
                    & (pb_np[1:] == pb_np[:-1])
                )
                group = _np.zeros(n, dtype=_np.int64)
                _np.cumsum(~same, out=group[1:])
                bounds = _np.append(_np.flatnonzero(~same) + 1, n)
                run_end = bounds[group].tolist()
            # Live views pin the buffers a snapshot restore truncates.
            del cols, addrs_np
        else:
            tb = [addr >> tshift for addr in addrs]
            pb = [addr >> pshift for addr in addrs]
            run_ok = [
                kinds[i] == CODE_STORE
                and flags[i] & FLAG_PERSISTENT
                and i not in infos
                for i in range(n)
            ]

        i = 0
        while i < n:
            code = kinds[i]
            if journal is not None:
                mark(
                    (
                        len(journal),
                        len(nodes),
                        persist_stores,
                        coalesced,
                        barriers,
                        strands,
                    )
                )
                thread = threads[i]
                for state in model_state:
                    log((state, thread, state.get(thread, _ABSENT)))
            if code == CODE_STORE or code == CODE_LOAD or code == CODE_RMW:
                thread = threads[i]
                info = info_get(i, "") if infos else ""
                if code == CODE_RMW or info == "rmw-fail":
                    on_sfence(thread)
                persistent = flags[i] & FLAG_PERSISTENT
                tracked = (
                    (persistent or track_volatile) and info != "sb-forward"
                )
                observed = thread_in(thread)
                tblock = tb[i]
                store_like = code != CODE_LOAD
                if tracked:
                    last_write = write_dep.get(tblock)
                    if last_write is not None:
                        observed = join(observed, last_write)
                    if store_like and detect_lbs:
                        reads = read_dep.get(tblock)
                        if reads is not None:
                            observed = join(observed, reads)

                value_after = observed
                token = None
                if store_like and persistent:
                    persist_stores += 1
                    pblock = pb[i]
                    token = pending.get(pblock)
                    if (
                        coalescing
                        and token is not None
                        and leq(observed, token)
                    ):
                        if journal is not None:
                            log((token, _WRITES, len(nodes[token].writes)))
                        if needs_payload:
                            do_coalesce(
                                token,
                                _ChunkStore(
                                    base_seq + i,
                                    thread,
                                    addrs[i],
                                    sizes[i],
                                    values[i],
                                ),
                            )
                        coalesced += 1
                    else:
                        deps = observed
                        if token is not None:
                            deps = join(deps, value_of(token))
                            if sink is not None:
                                self._seal(token)
                        token = do_persist(
                            deps,
                            _ChunkStore(
                                base_seq + i,
                                thread,
                                addrs[i],
                                sizes[i],
                                values[i],
                            )
                            if needs_payload
                            else _NO_PAYLOAD,
                        )
                        if journal is not None:
                            log((pending, pblock, pending.get(pblock, _ABSENT)))
                            log(
                                (
                                    block_writes,
                                    pblock,
                                    block_writes.get(pblock, _ABSENT),
                                )
                            )
                        pending[pblock] = token
                        block_writes[pblock] = block_writes.get(pblock, 0) + 1
                    value_after = value_of(token)

                if tracked:
                    if journal is not None:
                        log((write_dep, tblock, write_dep.get(tblock, _ABSENT)))
                        log((read_dep, tblock, read_dep.get(tblock, _ABSENT)))
                    if store_like:
                        write_dep[tblock] = value_after
                        read_dep.pop(tblock, None)
                    else:
                        reads = read_dep.get(tblock)
                        read_dep[tblock] = (
                            value_after
                            if reads is None
                            else join(reads, value_after)
                        )
                absorb(thread, value_after)
                i += 1

                # Same-block run batching (see docstring for soundness).
                if batch_runs and token is not None and run_ok[i - 1]:
                    start = i
                    if run_end is not None:
                        i = run_end[start - 1]
                    else:
                        run_tb = tblock
                        run_pb = pblock
                        while (
                            i < n
                            and run_ok[i]
                            and threads[i] == thread
                            and pb[i] == run_pb
                            and tb[i] == run_tb
                        ):
                            i += 1
                    rest = i - start
                    if rest:
                        persist_stores += rest
                        coalesced += rest
                        if needs_payload:
                            do_coalesce_run(
                                token,
                                [
                                    (
                                        addrs[k],
                                        values[k].to_bytes(
                                            sizes[k], "little"
                                        ),
                                    )
                                    for k in range(start, i)
                                ],
                            )
                continue
            if code == CODE_PERSIST_BARRIER:
                barriers += 1
                on_barrier(threads[i])
                i += 1
                continue
            if (
                code == CODE_CLFLUSH
                or code == CODE_CLFLUSH_OPT
                or code == CODE_CLWB
            ):
                addr = addrs[i]
                first = addr >> tshift
                last = (addr + sizes[i] - 1) >> tshift
                deps = None
                if last - first >= len(write_dep):
                    for block, chain in write_dep.items():
                        if first <= block <= last:
                            deps = chain if deps is None else join(deps, chain)
                else:
                    for block in range(first, last + 1):
                        chain = write_dep.get(block)
                        if chain is not None:
                            deps = chain if deps is None else join(deps, chain)
                if deps is not None:
                    on_flush(
                        threads[i], deps, synchronous=code == CODE_CLFLUSH
                    )
                i += 1
                continue
            if code == CODE_SFENCE or code == CODE_FENCE:
                on_sfence(threads[i])
                i += 1
                continue
            if code == CODE_NEW_STRAND:
                strands += 1
                on_new_strand(threads[i])
                i += 1
                continue
            # PERSIST_SYNC / MALLOC / FREE / THREAD_* / MARK: no ordering
            # effect on the analyzers.
            i += 1

        self._events += n
        self._persist_stores = persist_stores
        self._coalesced = coalesced
        self._barriers = barriers
        self._strands = strands


#: Placeholder event for level-domain persists: the domain never touches
#: the event, so the loop avoids building one per persist.
_NO_PAYLOAD = None

#: Journal markers: a dict entry that did not exist, and (in the key
#: slot) a node's write count.
_ABSENT = object()
_WRITES = object()

#: Shortest chunk whose run bounds are precomputed with numpy.  Below
#: it the array setup costs more than the stdlib list comprehensions
#: (prefix-shared suffix feeds average ~30 events; numpy breaks even
#: near 1,000 and wins on full chunks).
_NUMPY_MIN_EVENTS = 1024


class PrefixSharedAnalysis:
    """Persist DAGs of a stream of traces, analyzing only what each adds.

    Holds one rewindable :class:`StreamingAnalyzer` per ``(model,
    domain)``.  :meth:`advance` takes the next trace plus how many
    leading events it shares with the previous one (the check engine's
    :attr:`~repro.check.engine.ExploredRun.shared_events`), rewinds
    every analyzer to that point and feeds the trace's chunks from
    there (:meth:`~repro.trace.trace.Trace.chunks_from`) to every
    analyzer.  A trace sharing no events starts fresh analyzers.  Each
    DAG equals what :func:`analyze_graph` builds from scratch (no
    coalescing) for the same trace, model and domain, and stays valid
    until the next :meth:`advance`.
    """

    def __init__(self, models: Sequence[str], domains: Sequence[str]) -> None:
        self._keys = [(model, domain) for model in models for domain in domains]
        self._analyzers: List[StreamingAnalyzer] = []

    def advance(
        self, trace: Trace, shared: int
    ) -> Dict[Tuple[str, str], GraphDomain]:
        """The DAGs of ``trace``, keyed by ``(model, domain)``; its first
        ``shared`` events must equal the previous trace's."""
        analyzers = self._analyzers
        keep = min(shared, analyzers[0].events_fed) if analyzers else 0
        if keep:
            for analyzer in analyzers:
                analyzer.rewind(keep)
        else:
            analyzers[:] = [
                StreamingAnalyzer(
                    model,
                    AnalysisConfig(coalescing=False),
                    domain,
                    rewindable=True,
                )
                for model, domain in self._keys
            ]
        for chunk in trace.chunks_from(keep):
            for analyzer in analyzers:
                analyzer.feed(chunk)
        return {
            key: analyzer.domain for key, analyzer in zip(self._keys, analyzers)
        }


def analyze(
    trace: Trace,
    model: Union[str, PersistencyModel],
    config: Optional[AnalysisConfig] = None,
    domain: Union[str, DependencyDomain, None] = None,
) -> AnalysisResult:
    """Analyze ``trace`` under ``model``; returns the result.

    ``model`` may be a registry name (``strict``/``epoch``/``bpfs``/
    ``strand``) or a model instance (it is reset).  ``domain`` defaults to
    a fresh :class:`LevelDomain` (critical-path measurement); pass a
    :class:`GraphDomain` instance or a registry name (``"level"``,
    ``"graph"``, ``"bitset"``) to choose how dependences are represented —
    ``"bitset"`` additionally materialises the persist DAG on packed
    integer masks, ``"graph"`` on reference frozensets.
    """
    return StreamingAnalyzer(model, config, domain).feed(trace).finish()


def analyze_graph(
    trace: Trace,
    model: Union[str, PersistencyModel],
    config: Optional[AnalysisConfig] = None,
    domain: str = "bitset",
) -> AnalysisResult:
    """Analyze with the exact persist-order DAG.

    Coalescing defaults to **off** here: a device is never required to
    coalesce, so recovery must be correct for the uncoalesced order; the
    DAG used for failure injection therefore keeps every persist as its
    own atomic node unless the caller explicitly enables (exact,
    ancestor-checked) coalescing.

    ``domain`` selects the DAG representation: ``"bitset"`` (default) for
    the packed-mask fast path, ``"graph"`` for the reference frozenset
    implementation; both produce identical DAGs.
    """
    if config is None:
        config = AnalysisConfig(coalescing=False)
    return analyze(trace, model, config, domain=domain)
