"""Persistency model interface.

A persistency model decides how persist-ordering dependences propagate
through *thread state* — what a thread has "observed" that future
persists must be ordered after.  Propagation through *memory* (conflict
order and strong persist atomicity) is shared machinery in
:mod:`repro.core.analysis`; the two model hooks
``track_volatile_conflicts`` / ``detect_load_before_store`` let a model
weaken it (the BPFS variant, Section 5.2's discussion).

The paper's models (strict/epoch/bpfs/strand) assume SC as the
underlying consistency model (Section 5).  The Px86 family
(:class:`Px86Persistency`, :class:`DPOx86Persistency`) instead analyzes
the *memory order* a TSO machine records, following the formal x86
persistency semantics of Khyzha & Lahav, "Taming x86-TSO Persistency"
(POPL 2021): persists are ordered only by explicit cache-line flushes
(``clflush``/``clflushopt``/``clwb``) and the fences that commit them.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence, Tuple, Type

from repro.core.lattice import DependencyDomain
from repro.errors import ReproError


class PersistencyModel(abc.ABC):
    """Per-analysis mutable model state; create one instance per analysis.

    Attributes:
        name: short identifier used in results and registries.
        track_volatile_conflicts: when False, conflicts through the
            volatile address space do not order persists (persistent
            memory order contains only persistent-space accesses, as in
            BPFS).
        detect_load_before_store: when False, a store is not ordered
            after earlier loads of the same block (load-before-store
            conflicts are missed, yielding TSO-style conflict detection —
            the paper notes BPFS has exactly this limitation).
    """

    name = "abstract"
    track_volatile_conflicts = True
    detect_load_before_store = True
    #: Contract flag: ``absorb(thread, v)`` at most joins ``v`` into the
    #: thread's state (idempotent and monotone), and ``thread_in`` after
    #: the absorb stays below ``join(thread_in_before, v)``.  Every
    #: built-in model satisfies this (absorbs are running joins or
    #: no-ops); the streaming analyzer's same-block run batching relies
    #: on it and is disabled for models that clear the flag.
    absorb_is_join = True

    def __init__(self) -> None:
        self._domain: DependencyDomain = None  # set by reset()

    def reset(self, domain: DependencyDomain) -> None:
        """Bind a dependency domain and clear all per-thread state."""
        self._domain = domain

    def thread_state(self) -> Tuple[Dict[int, object], ...]:
        """The dicts, keyed by thread, that hold all mutable model state.

        Every hook for ``thread`` may change only those dicts' entries
        for ``thread``; a rewindable
        :class:`~repro.core.analysis.StreamingAnalyzer` journals them
        before each hook call.  Valid until the next :meth:`reset`.
        Models keeping state elsewhere leave this unimplemented and
        cannot be rewound.
        """
        raise NotImplementedError

    @abc.abstractmethod
    def thread_in(self, thread: int):
        """Dependency value every access by ``thread`` is ordered after."""

    @abc.abstractmethod
    def absorb(self, thread: int, value) -> None:
        """Record that ``thread`` executed an access carrying ``value``
        (the access's own dependences joined with any persist it created)."""

    def on_barrier(self, thread: int) -> None:
        """Handle a ``PERSISTBARRIER`` annotation (default: ignored)."""

    def on_new_strand(self, thread: int) -> None:
        """Handle a ``NEWSTRAND`` annotation (default: ignored)."""

    def on_flush(self, thread: int, deps, synchronous: bool) -> None:
        """Handle a cache-line flush by ``thread``.

        ``deps`` is the dependency value of the flushed line's persist
        chain (the engine's ``write_dep`` over the flushed blocks);
        ``synchronous`` is True for ``clflush`` (its effect takes place
        at its memory-order point) and False for ``clflushopt``/``clwb``
        (deferred until the next sfence/mfence/RMW).  Default: ignored —
        the paper's SC models order persists without flushes.
        """

    def on_sfence(self, thread: int) -> None:
        """Handle an ``SFENCE`` (or the sfence effect of an ``MFENCE`` /
        atomic RMW) by ``thread``.  Default: ignored."""


class StrictPersistency(PersistencyModel):
    """Strict persistency under SC (Section 5.1).

    Persistent memory order equals volatile memory order: every access a
    thread executes is ordered after everything that thread previously
    observed (program order), so per-thread state is a single running
    join.  Persist barriers and strand annotations are no-ops — the model
    needs no annotations, which is its appeal and its performance trap.
    """

    name = "strict"

    def reset(self, domain: DependencyDomain) -> None:
        super().reset(domain)
        self._observed: Dict[int, object] = {}

    def thread_state(self) -> Tuple[Dict[int, object], ...]:
        return (self._observed,)

    def thread_in(self, thread: int):
        return self._observed.get(thread, self._domain.bottom)

    def absorb(self, thread: int, value) -> None:
        current = self._observed.get(thread)
        if current is None:
            self._observed[thread] = value
        else:
            self._observed[thread] = self._domain.join(current, value)


class EpochPersistency(PersistencyModel):
    """Epoch persistency (Section 5.2).

    Persist barriers split each thread's execution into epochs.  New
    persists are ordered after everything observed in *previous* epochs
    (``_committed``); accesses within the current epoch accumulate into
    ``_epoch_acc`` and only take effect at the next barrier.  Conflict
    order and strong persist atomicity (handled by the shared engine)
    still order persists across racing epochs.
    """

    name = "epoch"

    def reset(self, domain: DependencyDomain) -> None:
        super().reset(domain)
        self._committed: Dict[int, object] = {}
        self._epoch_acc: Dict[int, object] = {}

    def thread_state(self) -> Tuple[Dict[int, object], ...]:
        return (self._committed, self._epoch_acc)

    def thread_in(self, thread: int):
        return self._committed.get(thread, self._domain.bottom)

    def absorb(self, thread: int, value) -> None:
        current = self._epoch_acc.get(thread)
        if current is None:
            self._epoch_acc[thread] = value
        else:
            self._epoch_acc[thread] = self._domain.join(current, value)

    def on_barrier(self, thread: int) -> None:
        accumulated = self._epoch_acc.pop(thread, None)
        if accumulated is None:
            return
        current = self._committed.get(thread)
        if current is None:
            self._committed[thread] = accumulated
        else:
            self._committed[thread] = self._domain.join(current, accumulated)


class BpfsPersistency(EpochPersistency):
    """BPFS-flavoured epoch persistency (Section 5.2's comparison).

    Differs from :class:`EpochPersistency` in conflict detection only:
    conflicts are tracked solely within the persistent address space, and
    load-before-store conflicts are missed (TSO-style detection via
    last-persisting-thread tags on cache lines).
    """

    name = "bpfs"
    track_volatile_conflicts = False
    detect_load_before_store = False


class StrandPersistency(EpochPersistency):
    """Strand persistency (Section 5.3).

    ``NEWSTRAND`` clears all previously observed persist dependences on
    the issuing thread; each strand then behaves like a fresh thread
    under epoch persistency.  Only conflict order / strong persist
    atomicity (shared engine) orders persists across strands.
    """

    name = "strand"

    def on_new_strand(self, thread: int) -> None:
        self._committed.pop(thread, None)
        self._epoch_acc.pop(thread, None)


class Px86Persistency(PersistencyModel):
    """Px86 persistency (Khyzha & Lahav's PTSOsyn, simplified to the
    analyzer's trace setting).

    Run it on traces recorded by a TSO machine: the trace *is* the
    memory order, so per-location persist FIFOs fall out of the shared
    engine's same-block conflict chains, and this class only tracks what
    each thread's *future* persists must be ordered after:

    * ``clflush`` of a line commits that line's persist chain into the
      thread's ordered-before set at the flush's memory-order point.
    * ``clflushopt``/``clwb`` accumulate the flushed chain into a
      pending set that commits at the thread's next ``sfence``,
      ``mfence``, or atomic RMW (x86's deferred flush ordering).
    * Nothing else orders persists: plain stores and loads carry no
      persist ordering (``absorb`` is a no-op), volatile conflicts do
      not propagate dependences, and a persist is never ordered after a
      read (TSO-style conflict detection).

    ``PERSISTBARRIER`` lowers to sfence (commit pending weak flushes —
    with no flush issued it orders nothing, unlike epoch persistency);
    ``NEWSTRAND`` is ignored (x86 has no strands).
    """

    name = "px86"
    track_volatile_conflicts = False
    detect_load_before_store = False

    def reset(self, domain: DependencyDomain) -> None:
        super().reset(domain)
        #: What each thread's future persists are ordered after.
        self._committed: Dict[int, object] = {}
        #: Weak-flush deps awaiting the next sfence/mfence/RMW.
        self._pending: Dict[int, object] = {}

    def thread_state(self) -> Tuple[Dict[int, object], ...]:
        return (self._committed, self._pending)

    def thread_in(self, thread: int):
        return self._committed.get(thread, self._domain.bottom)

    def absorb(self, thread: int, value) -> None:
        """Stores and loads do not order later persists under Px86."""

    def _commit(self, thread: int, deps) -> None:
        current = self._committed.get(thread)
        if current is None:
            self._committed[thread] = deps
        else:
            self._committed[thread] = self._domain.join(current, deps)

    def on_flush(self, thread: int, deps, synchronous: bool) -> None:
        if synchronous:
            self._commit(thread, deps)
            return
        pending = self._pending.get(thread)
        if pending is None:
            self._pending[thread] = deps
        else:
            self._pending[thread] = self._domain.join(pending, deps)

    def on_sfence(self, thread: int) -> None:
        pending = self._pending.pop(thread, None)
        if pending is not None:
            self._commit(thread, pending)

    def on_barrier(self, thread: int) -> None:
        self.on_sfence(thread)


class DPOx86Persistency(Px86Persistency):
    """The DPOx86 simplification of Px86: every flush is synchronous.

    ``clflushopt``/``clwb`` take their persist-ordering effect at their
    memory-order point instead of waiting for the committing fence —
    i.e. they behave like ``clflush``.  For clflush-only programs DPOx86
    and Px86 agree (which the litmus harness checks); for weak-flush
    programs DPOx86 *forbids* outcomes Px86 allows, e.g. after
    ``St x; clflushopt x; St y`` (no fence) Px86 admits y persisted
    without x, DPOx86 does not.
    """

    name = "dpox86"

    def on_flush(self, thread: int, deps, synchronous: bool) -> None:
        super().on_flush(thread, deps, synchronous=True)


#: Model registry: name -> zero-argument factory.
MODELS = {
    "strict": StrictPersistency,
    "epoch": EpochPersistency,
    "bpfs": BpfsPersistency,
    "strand": StrandPersistency,
    "px86": Px86Persistency,
    "dpox86": DPOx86Persistency,
}


#: Registered model names, sorted (the CLI and spec choices).
MODEL_CHOICES = tuple(sorted(MODELS))


def validate_models(
    models: Sequence[str], error: Type[ReproError] = ReproError
) -> None:
    """Raise ``error`` unless ``models`` lists one or more distinct
    registered persistency models (shared by every engine config)."""
    if not models:
        raise error("at least one persistency model is required")
    for model in models:
        if model not in MODELS:
            raise error(
                f"unknown persistency model {model!r}; expected one of "
                f"{sorted(MODELS)}"
            )
    if len(set(models)) != len(models):
        raise error(f"duplicate persistency models in {tuple(models)}")


def make_model(name: str) -> PersistencyModel:
    """Construct a fresh model instance by registry name."""
    try:
        factory = MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown persistency model {name!r}; expected one of "
            f"{sorted(MODELS)}"
        ) from None
    return factory()
