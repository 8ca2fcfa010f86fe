"""Thread interleaving policies.

Any policy yields a legal SC execution because the machine executes one
memory operation at a time.  The seeded random scheduler is the default
for experiments (it exercises cross-thread interleavings the way a real
multithreaded run does); round-robin is useful for deterministic unit
tests with predictable orders.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, List, Optional, Sequence

from repro.errors import SimulationError


class Scheduler(abc.ABC):
    """Chooses which runnable thread executes the next memory operation."""

    @abc.abstractmethod
    def pick(self, runnable: Sequence[int]) -> int:
        """Return one agent id from ``runnable`` (non-empty).

        The machine lists agents by thread id, each thread ``t`` followed
        by its store-buffer drain agent (``_DRAIN_BASE + t``) when that
        buffer is non-empty.  Without drain agents (every SC machine) the
        list is sorted; on TSO machines it is not.  ``runnable`` is the
        machine's own list, updated in place between steps: ``pick`` must
        neither mutate it nor keep a reference to it.
        """


class RoundRobinScheduler(Scheduler):
    """Cycle through agents in id order, skipping blocked ones.

    Picks the smallest runnable id greater than the previous choice, else
    the smallest runnable id.  The scan does not assume ``runnable`` is
    sorted, which it is not on TSO machines (drain agents follow their
    threads), so every thread runs before any drain agent in each cycle.
    """

    def __init__(self) -> None:
        self._last = -1

    def pick(self, runnable: Sequence[int]) -> int:
        later = [agent for agent in runnable if agent > self._last]
        self._last = min(later) if later else min(runnable)
        return self._last


class RandomScheduler(Scheduler):
    """Uniform random choice with a fixed seed for reproducibility.

    Draws exactly as ``random.Random(seed).choice(runnable)`` would
    (one ``_randbelow`` of the list length), minus the call through
    ``choice``: the scheduler runs once per simulated event.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, runnable: Sequence[int]) -> int:
        return runnable[self._rng._randbelow(len(runnable))]


class StridedScheduler(Scheduler):
    """Run each thread for ``stride`` consecutive operations.

    Mimics coarser quantum scheduling: threads batch work between context
    switches, which matters for persist-epoch race structure in tests.
    """

    def __init__(self, stride: int, seed: int = 0) -> None:
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self._stride = stride
        self._rng = random.Random(seed)
        self._current = -1
        self._remaining = 0

    def pick(self, runnable: Sequence[int]) -> int:
        if self._current not in runnable:
            # The current thread left the runnable set mid-quantum
            # (blocked, finished, or drained its buffer): its leftover
            # quantum is abandoned here, never carried into the next
            # choice and never resumed if the thread comes back.
            self._remaining = 0
        if self._remaining > 0:
            self._remaining -= 1
            return self._current
        self._current = self._rng.choice(runnable)
        self._remaining = self._stride - 1
        return self._current


class ChoiceRecordingScheduler(Scheduler):
    """Delegates to an inner policy, recording every chosen id.

    The recorded ``choices`` list (thread ids, or drain-agent ids on TSO
    machines) fully determines the interleaving; feeding it to
    :class:`ReplayScheduler` reproduces the same execution bit-for-bit
    without needing the original policy object.  This is how
    ``repro.fuzz`` turns a sampled schedule into a deterministic,
    policy-independent repro artifact.
    """

    def __init__(self, inner: Scheduler) -> None:
        self._inner = inner
        self.choices: List[int] = []

    def pick(self, runnable: Sequence[int]) -> int:
        choice = self._inner.pick(runnable)
        self.choices.append(choice)
        return choice


class ReplayScheduler(Scheduler):
    """Replays a recorded choice sequence exactly.

    Raises:
        SimulationError: when a recorded choice is not runnable at its
            step or the recording is exhausted while threads still run —
            both mean the program differs from the one recorded (a stale
            repro file, or nondeterminism that must not exist).
    """

    def __init__(self, choices: Sequence[int]) -> None:
        self._choices = list(choices)
        self._step = 0

    @property
    def steps_replayed(self) -> int:
        """Number of recorded choices consumed so far."""
        return self._step

    def pick(self, runnable: Sequence[int]) -> int:
        if self._step >= len(self._choices):
            raise SimulationError(
                f"schedule recording exhausted after {self._step} steps "
                f"with threads still runnable: {list(runnable)}"
            )
        choice = self._choices[self._step]
        if choice not in runnable:
            raise SimulationError(
                f"recorded choice {choice} at step {self._step} is not "
                f"runnable (runnable: {list(runnable)}); the replayed "
                f"program diverged from the recording"
            )
        self._step += 1
        return choice


class ReplayableScheduler(Scheduler):
    """Step API for exploration engines: every decision is delegated.

    The machine binds itself at construction (via the ``bind_machine``
    hook in :class:`~repro.sim.machine.Machine`), so the ``choose``
    callback sees the *live* machine state — enabled agents, pending
    operations, store buffers — at each scheduling point and returns the
    agent id to run.  This is what lets a model checker compute
    enabled-set footprints and conflicts mid-execution instead of
    guessing from a finished trace.  Chosen ids are recorded in
    ``choices``, replayable later with :class:`ReplayScheduler`.

    The callback may abort the execution by raising (e.g. a sleep-set
    block in DPOR); the exception propagates out of ``machine.run()``.
    """

    def __init__(
        self,
        choose: Callable[[object, Sequence[int]], int],
    ) -> None:
        self.machine: Optional[object] = None
        self.choices: List[int] = []
        self._choose = choose

    def bind_machine(self, machine: object) -> None:
        """Called by the machine's constructor; retains a back-reference."""
        self.machine = machine

    def pick(self, runnable: Sequence[int]) -> int:
        if self.machine is None:
            raise SimulationError(
                "ReplayableScheduler used without a bound machine; pass it "
                "to Machine(scheduler=...) so bind_machine runs"
            )
        choice = self._choose(self.machine, sorted(runnable))
        if choice not in runnable:
            raise SimulationError(
                f"exploration chose agent {choice} but runnable is "
                f"{sorted(runnable)}"
            )
        self.choices.append(choice)
        return choice

    def truncate(self, depth: int) -> None:
        """Forget recorded choices from ``depth`` on.

        Prefix-sharing exploration rewinds the bound machine to an
        earlier decision point and resumes; the choice log must rewind
        with it so replays stay exact.
        """
        del self.choices[depth:]


#: Registry of seeded scheduler kinds the fuzzer samples from.
SCHEDULER_KINDS = ("random", "strided2", "strided8", "round_robin")


def make_scheduler(kind: str, seed: int = 0) -> Scheduler:
    """Build a scheduler from a registry name and seed.

    ``kind`` is one of :data:`SCHEDULER_KINDS`; ``round_robin`` ignores
    the seed (it is deterministic by construction).
    """
    if kind == "random":
        return RandomScheduler(seed=seed)
    if kind == "strided2":
        return StridedScheduler(2, seed=seed)
    if kind == "strided8":
        return StridedScheduler(8, seed=seed)
    if kind == "round_robin":
        return RoundRobinScheduler()
    raise SimulationError(
        f"unknown scheduler kind {kind!r}; expected one of "
        f"{SCHEDULER_KINDS}"
    )
