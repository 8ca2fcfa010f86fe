"""Per-event reference for the persist-ordering analysis.

:func:`reference_analyze` is the straightforward one-event-at-a-time
propagation loop: enum dispatch on :class:`EventKind`, one domain call
per persistent store, no columnar encoding and no run batching.  The
production engine (:class:`repro.core.analysis.StreamingAnalyzer`) must
match it on every result field and, on the DAG domains, on the persist
DAG itself; the parity tests and the CI million-event gpu-lanes run
compare against it.
"""

from typing import Iterable, Optional, Union

from repro.core.analysis import AnalysisConfig, AnalysisResult, make_domain
from repro.core.lattice import DependencyDomain, GraphDomain, LevelDomain
from repro.core.model import PersistencyModel, make_model
from repro.trace.events import EventKind, MemoryEvent

#: Every result field with observable analysis content.
RESULT_FIELDS = (
    "critical_path",
    "persist_count",
    "persist_stores",
    "coalesced",
    "events",
    "barriers",
    "strands",
    "level_histogram",
    "block_writes",
)


def reference_analyze(
    events: Iterable[MemoryEvent],
    model: Union[str, PersistencyModel],
    config: Optional[AnalysisConfig] = None,
    domain: Union[str, DependencyDomain, None] = None,
) -> AnalysisResult:
    """Analyze ``events`` (in SC order) one event at a time.

    Same conventions as :func:`repro.core.analysis.analyze`: ``model``
    and ``domain`` are registry names or instances, ``domain`` defaults
    to a fresh :class:`LevelDomain`.
    """
    if isinstance(model, str):
        model = make_model(model)
    config = config or AnalysisConfig()
    config.validate()
    if domain is None:
        domain = LevelDomain()
    elif isinstance(domain, str):
        domain = make_domain(domain)
    model.reset(domain)

    persist_gran = config.persist_granularity
    tracking_gran = config.tracking_granularity
    coalescing = config.coalescing
    detect_lbs = model.detect_load_before_store
    track_volatile = model.track_volatile_conflicts
    join = domain.join

    write_dep = {}
    read_dep = {}
    pending = {}
    block_writes = {}
    count = persist_stores = coalesced = barriers = strands = 0

    for event in events:
        count += 1
        kind = event.kind
        if kind is EventKind.PERSIST_BARRIER:
            barriers += 1
            model.on_barrier(event.thread)
            continue
        if kind is EventKind.NEW_STRAND:
            strands += 1
            model.on_new_strand(event.thread)
            continue
        if kind is EventKind.SFENCE or kind is EventKind.FENCE:
            # An mfence carries sfence semantics on x86 (commits the
            # thread's outstanding weak flushes); the SC models ignore
            # both.
            model.on_sfence(event.thread)
            continue
        if event.is_flush:
            # The flushed line's persist chain is whatever the last
            # persist to each covered tracking block depends on.
            deps = None
            first = event.addr // tracking_gran
            last = (event.addr + event.size - 1) // tracking_gran
            for block in range(first, last + 1):
                chain = write_dep.get(block)
                if chain is not None:
                    deps = chain if deps is None else join(deps, chain)
            if deps is not None:
                model.on_flush(
                    event.thread, deps, synchronous=kind is EventKind.CLFLUSH
                )
            continue
        if not event.is_access:
            continue

        thread = event.thread
        if kind is EventKind.RMW or event.info == "rmw-fail":
            # Atomics are fences on x86 — even a failed CAS (traced as a
            # LOAD tagged "rmw-fail") commits outstanding weak flushes.
            model.on_sfence(thread)
        # Store-buffer-forwarded loads never touched memory.
        tracked = (
            event.persistent or track_volatile
        ) and event.info != "sb-forward"
        observed = model.thread_in(thread)
        tblock = event.addr // tracking_gran
        store_like = event.is_store_like
        if tracked:
            last_write = write_dep.get(tblock)
            if last_write is not None:
                observed = join(observed, last_write)
            if store_like and detect_lbs:
                reads = read_dep.get(tblock)
                if reads is not None:
                    observed = join(observed, reads)

        value_after = observed
        if event.is_persist:
            persist_stores += 1
            pblock = event.addr // persist_gran
            token = pending.get(pblock)
            if coalescing and token is not None and domain.leq(observed, token):
                domain.coalesce(token, event)
                coalesced += 1
            else:
                deps = observed
                if token is not None:
                    deps = join(deps, domain.value_of(token))
                token = domain.persist(deps, event)
                pending[pblock] = token
                block_writes[pblock] = block_writes.get(pblock, 0) + 1
            value_after = domain.value_of(token)

        if tracked:
            if store_like:
                write_dep[tblock] = value_after
                read_dep.pop(tblock, None)
            else:
                reads = read_dep.get(tblock)
                read_dep[tblock] = (
                    value_after if reads is None else join(reads, value_after)
                )
        model.absorb(thread, value_after)

    return AnalysisResult(
        model=model.name,
        config=config,
        critical_path=domain.critical_path(),
        persist_count=domain.persist_count,
        persist_stores=persist_stores,
        coalesced=coalesced,
        events=count,
        barriers=barriers,
        strands=strands,
        level_histogram=domain.level_histogram(),
        block_writes=block_writes,
        graph=domain if isinstance(domain, GraphDomain) else None,
    )
