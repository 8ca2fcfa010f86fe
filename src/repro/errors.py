"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MemoryAccessError(ReproError):
    """An access touched an unmapped address or violated alignment rules."""


class OutOfMemoryError(ReproError):
    """An allocator could not satisfy an allocation request."""


class InvalidFreeError(ReproError):
    """A free targeted an address that is not the start of a live allocation."""


class SimulationError(ReproError):
    """The simulated machine was driven into an invalid state."""


class DeadlockError(SimulationError):
    """Every runnable simulated thread is blocked; execution cannot proceed."""


class TraceError(ReproError):
    """A trace is malformed or violates the guarantees it claims."""


class CacheError(ReproError):
    """A disk-cache entry is malformed (callers treat this as a miss)."""


class AnalysisError(ReproError):
    """A persistency analysis was configured or driven incorrectly."""


class RecoveryError(ReproError):
    """Recovered persistent state violates a recovery invariant."""


class FuzzError(ReproError):
    """A fuzzing campaign, target, or corpus entry was misused."""


class HistoryError(ReproError):
    """An operation history is malformed or could not be extracted."""


class ServeError(ReproError):
    """The checking service was misused or a job cannot make progress."""


class TaskFailed(ReproError):
    """A pool task exhausted its attempts; ``error`` is its final error."""

    def __init__(self, attempts: int, error: str) -> None:
        super().__init__(f"failed after {attempts} attempt(s): {error}")
        self.error = error
