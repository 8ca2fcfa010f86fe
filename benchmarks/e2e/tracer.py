"""Span tracer that times the toolkit's layers from outside the program.

:meth:`Tracer.install` rebinds each public entry point named in
:data:`LAYERS` — wherever a module or class attribute holds it — to a
wrapper that records a span, and :meth:`Tracer.restore` puts every
binding back.  Spans stay in memory as parallel lists (name, start, end,
parent); a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: (span, module, attribute, work).  ``work`` reads a monotone counter
#: off the call's first argument before and after the call; the
#: difference is credited to the span (events simulated or analysed).
#: Generator functions get one span per ``next()``.  An attribute that
#: is a dataclass field (``TargetRun.check``) is wrapped per instance.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable[[object], int]]], ...] = (
    ("sim.run", "repro.sim.machine", "Machine.run", lambda m: len(m.trace)),
    ("sim.replay", "repro.sim.machine", "Machine.snapshot", None),
    ("sim.replay", "repro.sim.machine", "Machine.restore", None),
    ("check.pick", "repro.sim.scheduler", "ReplayableScheduler.pick", None),
    ("check.dedup", "repro.check.canonical", "canonical_dag_key", None),
    ("check.dedup", "repro.core.recovery", "cut_content_key", None),
    ("core.analysis", "repro.core.analysis", "analyze", None),
    (
        "core.analysis",
        "repro.core.analysis",
        "StreamingAnalyzer.feed",
        lambda analyzer: analyzer.events_fed,
    ),
    ("core.analysis", "repro.core.analysis", "StreamingAnalyzer.finish", None),
    ("core.recovery.cuts", "repro.core.recovery", "enumerate_cuts", None),
    ("core.recovery.cuts", "repro.core.recovery", "enumerate_cut_masks", None),
    ("core.recovery.cuts", "repro.core.recovery", "minimal_cut", None),
    ("core.recovery.cuts", "repro.core.recovery", "minimal_cut_mask", None),
    (
        "core.recovery.cuts",
        "repro.core.recovery",
        "FailureInjector.minimal_images",
        None,
    ),
    (
        "core.recovery.cuts",
        "repro.core.recovery",
        "FailureInjector.prefix_images",
        None,
    ),
    (
        "core.recovery.cuts",
        "repro.core.recovery",
        "FailureInjector.extension_images",
        None,
    ),
    (
        "core.recovery.cuts",
        "repro.core.recovery",
        "FailureInjector.random_images",
        None,
    ),
    ("core.recovery.image", "repro.core.recovery", "image_at_cut", None),
    ("fuzz.judge", "repro.fuzz.targets", "TargetRun.check", None),
)


class Tracer:
    """Records nested spans in memory and patches entry points to emit them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Work counted per span name (see :data:`LAYERS`).
        self.work: Dict[str, int] = {}
        self._open: List[int] = []
        self._bindings: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def enter(self, name: str) -> int:
        """Open a span as a child of the innermost open one."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self._clock())
        return index

    def exit(self, index: int) -> None:
        """Close the innermost open span, which ``index`` must name."""
        self.ends[index] = self._clock()
        self._open.pop()

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` (entries from outside that layer),
        ``total_s`` (time inside the layer) and ``self_s`` (time inside
        it minus the time its children cover)."""
        names, starts, ends, parents = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
        )
        child_time = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        totals: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(names):
            duration = ends[index] - starts[index]
            entry = totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["self_s"] += duration - child_time[index]
            parent = parents[index]
            if parent < 0 or names[parent] != name:
                entry["calls"] += 1
                entry["total_s"] += duration
        return totals

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records each call as a span ``name``."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return tracer._iterate(name, fn(*args, **kwargs))

            return generator
        if work is None:

            @functools.wraps(fn)
            def call(*args, **kwargs):
                index = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(index)

            return call

        @functools.wraps(fn)
        def counted(owner, *args, **kwargs):
            before = work(owner)
            index = tracer.enter(name)
            try:
                return fn(owner, *args, **kwargs)
            finally:
                tracer.exit(index)
                done = work(owner) - before
                tracer.work[name] = tracer.work.get(name, 0) + done

        return counted

    def _iterate(self, name: str, iterator: Iterator) -> Iterator:
        while True:
            index = self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit(index)
            yield item

    def _wrap_field(self, name: str, init: Callable, field: str) -> Callable:
        tracer = self

        @functools.wraps(init)
        def __init__(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            value = getattr(instance, field)
            setattr(instance, field, tracer.wrap(name, value))

        return __init__

    # -- patching ------------------------------------------------------------

    def install(self, layers=LAYERS) -> None:
        """Rebind every module or class attribute holding a layer's entry
        point to its traced wrapper."""
        wrapped = []
        for span, module_name, attribute, work in layers:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            if name in vars(owner):
                original = vars(owner)[name]
                wrapper = self.wrap(span, original, work)
            else:
                original = vars(owner)["__init__"]
                wrapper = self._wrap_field(span, original, name)
            wrapped.append((original, wrapper))
        holders = _holders({id(original) for original, _ in wrapped})
        for original, wrapper in wrapped:
            for holder, key in holders[id(original)]:
                setattr(holder, key, wrapper)
                self._bindings.append((holder, key, original))

    def restore(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._bindings:
            holder, key, original = self._bindings.pop()
            setattr(holder, key, original)


def _holders(targets: Set[int]) -> Dict[int, List[Tuple[object, str]]]:
    """Every (module or class, attribute) pair holding one of the objects
    whose ids are ``targets``, keyed by that id.  A class is searched in
    the module that defines it."""
    holders: Dict[int, List[Tuple[object, str]]] = {key: [] for key in targets}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        module_name = namespace.get("__name__")
        for key, value in list(namespace.items()):
            if id(value) in targets:
                holders[id(value)].append((module, key))
            elif (
                isinstance(value, type)
                and getattr(value, "__module__", None) == module_name
            ):
                for attr, member in list(vars(value).items()):
                    if id(member) in targets:
                        holders[id(member)].append((value, attr))
    return holders
