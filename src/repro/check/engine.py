"""Schedule exploration with dynamic partial-order reduction.

The engine enumerates interleavings of a deterministic simulated program
under engine-controlled schedules.  Two execution strategies are
available (``replay=``):

* ``"reexecute"`` — stateless: every schedule re-runs the program from
  step 0 via the ``run(scheduler)`` callable (the original mode);
* ``"share"`` — prefix-sharing: the program is built **once** through a
  :class:`CheckProgram` (``build``/``finish``), the machine records
  write-undo journals and send logs
  (:meth:`repro.sim.machine.Machine.enable_snapshots`), and backtracking
  restores the deepest common prefix instead of re-executing it.  A
  decision point's restore point is a pair of journal marks: a
  :class:`~repro.sim.machine.MachineSnapshot` (the machine's undo-journal
  and send-log lengths plus O(threads) bookkeeping) and the length of
  the engine's own undo journal over its conflict tables.  Restoring
  pops both journals back to their marks.  The DFS visits the identical
  schedule tree in the identical order — clocks, sleep sets, and
  backtrack sets are restored to exactly the values stateless
  re-execution would recompute — so schedule counts, traces, and
  violation sets are byte-identical.

  In shared mode the yielded ``result`` aliases the one retained
  machine: consume each :class:`ExploredRun` (analyze its trace, image
  its cuts) before requesting the next, because the following iteration
  rewinds the machine and truncates its trace in place.

Two reduction modes share one DFS driver:

* ``"none"`` — plain exhaustive DFS over the scheduler-choice tree; every
  interleaving is executed.  This is the reference the DPOR mode is
  tested against.
* ``"dpor"`` — Flanagan/Godefroid dynamic partial-order reduction with
  sleep sets: one execution per Mazurkiewicz equivalence class (plus a
  bounded number of sleep-set-blocked aborts), where equivalence is
  commutation of adjacent independent steps under the block-granularity
  conflict relation (:mod:`repro.core.independence`).

Soundness notes, in the order they matter:

* Footprints (:mod:`repro.sim.introspect`) may *over*-approximate what a
  step touches (TSO flush uncertainty, failed CAS).  The engine uses the
  same over-approximated relation for race detection, happens-before
  clocks, and sleep-set filtering, so the reduction is exact for a
  coarser-than-true dependence relation — a sound over-approximation
  that only costs extra executions, never missed classes.
* The conflict granularity equals the analysis tracking granularity, so
  equivalent interleavings produce identical traces up to commuting
  independent steps — and therefore identical persist DAGs, the property
  ``repro.check.checker`` deduplicates on.
* Race detection runs at every fresh state for *every* unfinished
  agent's next step, including currently-disabled waiting threads (their
  pending read is knowable without execution); when the racing agent is
  not enabled at the backtrack point the whole enabled set is added
  (Flanagan/Godefroid's conservative fallback), which keeps wake-up
  races sound.
* With a ``forced_prefix`` (sharded exploration), choices above the
  fence are pinned: backtrack points that land there are dropped because
  the sibling prefix is owned — and fully explored — by another shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.independence import ConflictRelation, blocks_of, exploration_relation
from repro.errors import ReproError
from repro.schema import encode, option
from repro.sim.introspect import Footprint, agent_footprints
from repro.sim.scheduler import ReplayableScheduler, Scheduler

#: Exploration modes accepted by :class:`Engine`.
REDUCTIONS = ("dpor", "none")

#: Execution strategies accepted by :class:`Engine`.
REPLAYS = ("share", "reexecute")

#: Shared empty clock: read-only default for agents with no history.
_NO_CLOCK: Dict[int, int] = {}

#: One undo record of the table journal: (table, key, old value), where
#: an old value of None means the key was absent.  No table stores None.
_Undo = Tuple[dict, object, object]


class CheckProgram:
    """Two-phase program protocol enabling prefix-sharing exploration.

    ``build(scheduler)`` constructs the ready-to-run
    :class:`~repro.sim.machine.Machine` (threads spawned, nothing
    executed); the engine runs it.  ``finish(machine)`` is called after
    the run completes and returns the per-schedule result passed through
    :class:`ExploredRun` (e.g. a ``TargetRun`` or ``(trace, machine)``).
    Any object with these two methods is accepted — subclassing is
    optional.  ``build`` must create an *identical* program on every
    call; under prefix sharing it is called once and the machine is
    rewound between schedules instead.
    """

    def build(self, scheduler: Scheduler):
        """Construct the ready-to-run machine (threads spawned, unrun)."""
        raise NotImplementedError

    def finish(self, machine) -> object:
        """Turn the completed machine into the per-schedule result."""
        raise NotImplementedError


def is_check_program(run: object) -> bool:
    """True when ``run`` follows the :class:`CheckProgram` protocol."""
    return callable(getattr(run, "build", None)) and callable(
        getattr(run, "finish", None)
    )


class ExplorationLimitError(ReproError):
    """The schedule tree exceeded ``max_schedules``.

    Beyond the message, the exception carries where exploration stood:
    ``deepest_prefix`` (the choice sequence of the deepest execution
    reached), ``max_depth``, and branching statistics — enough for a
    caller to resume with sharding or report how large the tree is.
    """

    def __init__(
        self,
        message: str,
        deepest_prefix: Sequence[int] = (),
        max_depth: int = 0,
        branching_max: int = 0,
        nodes: int = 0,
    ) -> None:
        super().__init__(message)
        self.deepest_prefix: Tuple[int, ...] = tuple(deepest_prefix)
        self.max_depth = max_depth
        self.branching_max = branching_max
        self.nodes = nodes


class _SleepSetBlocked(Exception):
    """Internal control flow: the current execution is provably redundant."""


@dataclass
class EngineStats:
    """Counters for one exploration.

    ``executions`` counts every program run (complete schedules plus
    sleep-set-blocked aborts); ``schedules`` only the complete ones.
    """

    executions: int = option(0, type=int)
    schedules: int = option(0, type=int)
    sleep_blocked: int = option(0, type=int)
    nodes: int = option(0, type=int)
    max_depth: int = option(0, type=int)
    deepest_prefix: Tuple[int, ...] = ()
    branching_max: int = option(0, type=int)
    branching_sum: int = option(0, type=int)
    races_detected: int = option(0, type=int)
    backtrack_points: int = option(0, type=int)

    def describe(self) -> Dict[str, int]:
        """JSON-safe summary (for shard merging and ``--stats``); the
        deepest prefix is not a counter and stays out."""
        return encode(self)


@dataclass
class ExploredRun:
    """One complete execution produced by :meth:`Engine.explore`.

    ``shared_events`` counts the leading trace events this run shares
    with the previously yielded one: the shallowest restore point since
    that yield (sleep-set-blocked runs in between included), so always
    0 under ``replay="reexecute"`` and for the first run.
    """

    index: int
    result: object
    choices: Tuple[int, ...]
    shared_events: int


@dataclass
class _Node:
    """One decision point on the current DFS stack."""

    enabled: List[int]
    footprints: Dict[int, Footprint]
    sleep: Set[int] = field(default_factory=set)
    backtrack: Set[int] = field(default_factory=set)
    done: Set[int] = field(default_factory=set)
    chosen: Optional[int] = None
    pinned: bool = False
    #: Prefix-sharing restore point (share mode, non-pinned nodes): the
    #: machine snapshot and the length of the engine's table journal
    #: when this decision point was first reached.
    snap: object = None
    mark: int = 0


#: A past access record: (agent, agent-local step count, clock vector,
#: stack depth of the step) — everything race detection needs.
_Access = Tuple[int, int, Dict[int, int], int]

#: ``run(scheduler)`` builds and executes one instance of the program.
RunFn = Callable[[Scheduler], object]


class Engine:
    """Depth-first stateless exploration of a program's schedule tree.

    ``run(scheduler)`` must build and execute an *identical* program on
    every call — same threads, same logic — with only the interleaving
    controlled by the given scheduler; it returns an arbitrary result
    (e.g. ``(trace, machine)`` or a ``TargetRun``) that
    :meth:`explore` passes through.
    """

    def __init__(
        self,
        run: RunFn,
        reduction: str = "dpor",
        relation: Optional[ConflictRelation] = None,
        forced_prefix: Sequence[int] = (),
        max_schedules: Optional[int] = None,
        replay: Optional[str] = None,
    ) -> None:
        if reduction not in REDUCTIONS:
            raise ReproError(
                f"unknown reduction {reduction!r}; expected one of "
                f"{REDUCTIONS}"
            )
        program = run if is_check_program(run) else None
        if replay is None:
            replay = "share" if program is not None else "reexecute"
        if replay not in REPLAYS:
            raise ReproError(
                f"unknown replay {replay!r}; expected one of {REPLAYS}"
            )
        if replay == "share" and program is None:
            raise ReproError(
                "replay='share' needs a CheckProgram (build/finish); got a "
                "plain run callable, which cannot be rewound"
            )
        if program is not None and replay == "reexecute":
            # Flatten the program into the legacy full-re-execution form.
            def run_program(scheduler: Scheduler) -> object:
                machine = program.build(scheduler)
                machine.run()
                return program.finish(machine)

            run = run_program
        self._run = run
        self._program = program
        self._replay = replay
        self._reduction = reduction
        self._relation = relation or exploration_relation()
        self._fence = len(forced_prefix)
        self._forced = list(forced_prefix)
        self._max_schedules = max_schedules
        self.stats = EngineStats()
        # DFS state persisting across executions.
        self._stack: List[_Node] = []
        # Prefix-sharing state: the one retained machine + scheduler.
        self._machine = None
        self._scheduler: Optional[ReplayableScheduler] = None
        # Shallowest restored trace length since the last yield (None
        # until the next restore; the first run shares nothing).
        self._kept: Optional[int] = 0
        # Per-execution state.
        self._depth = 0
        self._pending_sleep: Set[int] = set()
        self._clocks: Dict[int, Dict[int, int]] = {}
        self._last_write: Dict[object, _Access] = {}
        self._last_reads: Dict[object, Dict[int, _Access]] = {}
        # Agents whose clock dict is exclusively ours (mutable in place);
        # everything else is copy-on-write (see _apply_step).
        self._clock_owned: Set[int] = set()
        # Undo records of every table change this run (see _apply_step);
        # a restore point is a length of this list.
        self._journal: List[_Undo] = []
        # Write-objects and read-objects per footprint (see _objects).
        self._object_memo: Dict[tuple, Tuple[Set[object], Set[object]]] = {}

    # -- public API ---------------------------------------------------------

    def explore(self) -> Iterator[ExploredRun]:
        """Yield one :class:`ExploredRun` per explored complete schedule.

        Raises:
            ExplorationLimitError: when more than ``max_schedules``
                complete schedules are produced.
        """
        exhausted = False
        while not exhausted:
            blocked, result, choices = self._run_once()
            self.stats.executions += 1
            exhausted = not self._advance()
            if blocked:
                self.stats.sleep_blocked += 1
                continue
            self.stats.schedules += 1
            if (
                self._max_schedules is not None
                and self.stats.schedules > self._max_schedules
            ):
                raise ExplorationLimitError(
                    f"more than {self._max_schedules} interleavings; "
                    f"deepest prefix reached {len(self.stats.deepest_prefix)} "
                    f"steps, {self.stats.nodes} nodes, max branching "
                    f"{self.stats.branching_max}",
                    deepest_prefix=self.stats.deepest_prefix,
                    max_depth=self.stats.max_depth,
                    branching_max=self.stats.branching_max,
                    nodes=self.stats.nodes,
                )
            shared, self._kept = self._kept or 0, None
            yield ExploredRun(
                index=self.stats.schedules - 1,
                result=result,
                choices=choices,
                shared_events=shared,
            )

    # -- one execution ------------------------------------------------------

    def _run_once(self) -> Tuple[bool, object, Tuple[int, ...]]:
        """Execute the program once along the current DFS plan."""
        if self._replay == "share":
            return self._run_shared()
        self._depth = 0
        self._pending_sleep = set()
        self._reset_tables()
        scheduler = ReplayableScheduler(self._choose)
        try:
            result = self._run(scheduler)
        except _SleepSetBlocked:
            return True, None, ()
        choices = tuple(scheduler.choices)
        if len(choices) > len(self.stats.deepest_prefix):
            self.stats.deepest_prefix = choices
        return False, result, choices

    def _run_shared(self) -> Tuple[bool, object, Tuple[int, ...]]:
        """One schedule under prefix sharing: rewind, don't re-execute.

        The first call builds the machine and runs from step 0; every
        later call restores the machine to the snapshot of the deepest
        stack node — the node ``_advance`` just picked a fresh branch
        for — pops the engine's table journal back to that node's mark,
        truncates the choice log to match, and resumes
        ``machine.run()``.  The resumed ``pick`` lands back in
        :meth:`_choose` at that node's depth, which replays its new
        ``chosen`` and applies the step against the restored tables,
        exactly as a from-scratch replay would.
        """
        self._pending_sleep = set()
        machine = self._machine
        if machine is None:
            self._depth = 0
            self._reset_tables()
            scheduler = ReplayableScheduler(self._choose)
            self._scheduler = scheduler
            machine = self._program.build(scheduler)
            machine.enable_snapshots()
            self._machine = machine
        else:
            scheduler = self._scheduler
            node = self._stack[-1]
            depth = len(self._stack) - 1
            machine.restore(node.snap)
            kept = node.snap.trace_len
            if self._kept is None or kept < self._kept:
                self._kept = kept
            scheduler.truncate(depth)
            self._depth = depth
            self._undo_to(node.mark)
        try:
            machine.run()
        except _SleepSetBlocked:
            return True, None, ()
        result = self._program.finish(machine)
        choices = tuple(scheduler.choices)
        if len(choices) > len(self.stats.deepest_prefix):
            self.stats.deepest_prefix = choices
        return False, result, choices

    def _reset_tables(self) -> None:
        """Empty the per-run conflict tables and their journal."""
        self._clocks = {}
        self._last_write = {}
        self._last_reads = {}
        self._clock_owned = set()
        self._journal = []

    def _mark(self) -> int:
        """A restore point for the conflict tables: the journal length.

        Clock dicts are not journaled entry by entry: marking every
        agent copy-on-write makes any later change install a fresh,
        journaled dict, so the dicts live at the mark stay frozen.
        """
        self._clock_owned.clear()
        return len(self._journal)

    def _undo_to(self, mark: int) -> None:
        """Reset the per-run conflict tables to a :meth:`_mark`."""
        journal = self._journal
        while len(journal) > mark:
            table, key, old = journal.pop()
            if old is None:
                del table[key]
            else:
                table[key] = old
        self._clock_owned = set()

    def _choose(self, machine: object, runnable: Sequence[int]) -> int:
        """Scheduler callback: one decision of the current execution."""
        depth = self._depth
        if depth < len(self._stack):
            node = self._stack[depth]
        elif depth < self._fence:
            node = self._make_node(machine, runnable, pinned=True)
            node.chosen = self._forced[depth]
            self._stack.append(node)
        else:
            node = self._make_node(machine, runnable, pinned=False)
            self._stack.append(node)
            if self._reduction == "dpor":
                self._detect_races(node)
                candidates = [a for a in node.enabled if a not in node.sleep]
                if not candidates:
                    raise _SleepSetBlocked()
                node.chosen = candidates[0]
            else:
                node.backtrack.update(node.enabled)
                node.chosen = node.enabled[0]
            node.backtrack.add(node.chosen)
        choice = node.chosen
        if self._reduction == "dpor":
            self._pending_sleep = {
                q
                for q in node.sleep
                if q != choice
                and self._relation.independent(
                    node.footprints[q], node.footprints[choice]
                )
            }
            self._apply_step(node, choice, depth)
        self._depth = depth + 1
        if depth + 1 > self.stats.max_depth:
            self.stats.max_depth = depth + 1
        return choice

    def _make_node(
        self, machine: object, runnable: Sequence[int], pinned: bool
    ) -> _Node:
        """Materialise the decision point for the machine's current state."""
        self.stats.nodes += 1
        enabled = sorted(runnable)
        self.stats.branching_sum += len(enabled)
        if len(enabled) > self.stats.branching_max:
            self.stats.branching_max = len(enabled)
        sleep = set() if pinned else set(self._pending_sleep)
        node = _Node(
            enabled=enabled,
            footprints=agent_footprints(machine),
            sleep=sleep,
            pinned=pinned,
        )
        if self._replay == "share" and not pinned:
            # Pinned (forced-prefix) nodes are never backtracked into,
            # so only free nodes need restore points.
            node.snap = machine.snapshot()
            node.mark = self._mark()
        return node

    # -- backtracking -------------------------------------------------------

    def _advance(self) -> bool:
        """Move the DFS plan to the next unexplored branch.

        Returns False when the tree (below the forced-prefix fence) is
        exhausted.
        """
        while len(self._stack) > self._fence:
            node = self._stack[-1]
            if node.chosen is not None:
                node.done.add(node.chosen)
                node.sleep.add(node.chosen)
                node.chosen = None
            candidates = sorted(node.backtrack - node.done - node.sleep)
            if candidates:
                node.chosen = candidates[0]
                node.backtrack.add(node.chosen)
                return True
            self._stack.pop()
        return False

    # -- conflict bookkeeping (dpor mode) -----------------------------------

    def _objects(self, footprint: Footprint) -> Tuple[Set[object], Set[object]]:
        """(write-objects, read-objects) a footprint touches.

        Objects are tracked blocks plus resource tokens; resources are
        treated as written (any two touches conflict).  A thread's next
        step keeps its footprint across the decision points where other
        agents move, so the sets are memoized per footprint value; the
        callers only read them.
        """
        key = (footprint.reads, footprint.writes, footprint.resources)
        objects = self._object_memo.get(key)
        if objects is None:
            gran = self._relation.tracking_granularity
            writes: Set[object] = set(blocks_of(footprint.writes, gran))
            for token in footprint.resources:
                writes.add(("resource", token))
            reads: Set[object] = set(blocks_of(footprint.reads, gran))
            objects = self._object_memo[key] = (writes, reads)
        return objects

    def _conflicting_accesses(
        self, agent: int, footprint: Footprint
    ) -> List[_Access]:
        """Past accesses of *other* agents conflicting with a next step."""
        writes, reads = self._objects(footprint)
        found: List[_Access] = []
        for obj in writes:
            last = self._last_write.get(obj)
            if last is not None and last[0] != agent:
                found.append(last)
            for reader, access in self._last_reads.get(obj, {}).items():
                if reader != agent:
                    found.append(access)
        for obj in reads:
            last = self._last_write.get(obj)
            if last is not None and last[0] != agent:
                found.append(last)
        return found

    def _detect_races(self, node: _Node) -> None:
        """FG race detection: every agent's next step vs the prefix."""
        for agent in sorted(node.footprints):
            footprint = node.footprints[agent]
            if footprint.is_local:
                continue
            clock = self._clocks.get(agent, _NO_CLOCK)
            for other, count, _, access_depth in self._conflicting_accesses(
                agent, footprint
            ):
                if count <= clock.get(other, 0):
                    continue  # ordered by happens-before: not a race
                self.stats.races_detected += 1
                target = self._stack[access_depth]
                if target.pinned:
                    continue  # sibling prefix belongs to another shard
                if agent in target.enabled:
                    if agent not in target.backtrack:
                        target.backtrack.add(agent)
                        self.stats.backtrack_points += 1
                else:
                    missing = set(target.enabled) - target.backtrack
                    if missing:
                        target.backtrack.update(missing)
                        self.stats.backtrack_points += len(missing)

    def _apply_step(self, node: _Node, agent: int, depth: int) -> None:
        """Advance clocks and last-access tables over the chosen step.

        Every table entry the step changes first logs its old value to
        the journal, so :meth:`_undo_to` can pop back to any mark.  The
        agent's clock is copy-on-write: it is copied (and the copy's
        install journaled) only when the current dict has escaped into
        an access record or behind a mark since the last copy; steps
        with purely local footprints mutate in place with zero
        allocation.
        """
        footprint = node.footprints[agent]
        writes, reads = self._objects(footprint)
        log = self._journal.append
        clocks = self._clocks
        owned = self._clock_owned
        clock = clocks.get(agent)
        if clock is None:
            log((clocks, agent, None))
            clock = clocks[agent] = {}
            owned.add(agent)
        elif agent not in owned:
            log((clocks, agent, clock))
            clock = clocks[agent] = dict(clock)
            owned.add(agent)
        # The agent's own entry is its step count; no access the step
        # joins has seen a later step of this agent.
        count = clock.get(agent, 0) + 1

        # Join the clocks of every earlier access the step conflicts with.
        last_write = self._last_write
        last_reads = self._last_reads
        joined: List[_Access] = []
        for obj in writes:
            last = last_write.get(obj)
            if last is not None:
                joined.append(last)
            readers = last_reads.get(obj)
            if readers:
                joined.extend(readers.values())
        for obj in reads:
            last = last_write.get(obj)
            if last is not None:
                joined.append(last)
        for access in joined:
            for key, value in access[2].items():
                if value > clock.get(key, 0):
                    clock[key] = value
        clock[agent] = count
        access: _Access = (agent, count, clock, depth)
        if writes or reads:
            # The clock escapes into the shared tables: freeze it so the
            # agent's next step copies before mutating.
            owned.discard(agent)
        for obj in writes:
            log((last_write, obj, last_write.get(obj)))
            last_write[obj] = access
            # Earlier reads happen-before this write (they conflict with
            # it), so later conflicts reach them transitively.
            readers = last_reads.pop(obj, None)
            if readers is not None:
                log((last_reads, obj, readers))
        for obj in reads:
            readers = last_reads.get(obj)
            if readers is None:
                log((last_reads, obj, None))
                readers = last_reads[obj] = {}
            log((readers, agent, readers.get(agent)))
            readers[agent] = access
