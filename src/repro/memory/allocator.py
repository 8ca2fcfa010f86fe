"""First-fit free-list allocator for simulated volatile/persistent heaps.

The paper's tracer instruments ``persistent malloc/free`` to distinguish
the volatile and persistent address spaces (Section 7).  We provide one
allocator instance per region; the machine exposes them through the
thread context so allocations appear at well-defined trace points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidFreeError, OutOfMemoryError
from repro.memory import layout


#: An allocator capture: (free blocks as (addr, size), live map).
_Capture = Tuple[Tuple[Tuple[int, int], ...], Dict[int, int]]


@dataclass
class _FreeBlock:
    addr: int
    size: int

    @property
    def end(self) -> int:
        return self.addr + self.size


class FreeListAllocator:
    """First-fit allocator with block splitting and free-coalescing.

    Allocations are aligned (default: cache-line 64 bytes, matching the
    paper's padding of queue objects to prevent false sharing) and their
    sizes are rounded up to the alignment so that distinct allocations
    never share an aligned block.
    """

    DEFAULT_ALIGNMENT = 64

    def __init__(self, base: int, size: int, alignment: int = DEFAULT_ALIGNMENT):
        if not layout.is_power_of_two(alignment) or alignment % layout.WORD_SIZE:
            raise ValueError(
                f"alignment must be a power-of-two multiple of "
                f"{layout.WORD_SIZE}, got {alignment}"
            )
        aligned_base = layout.align_up(base, alignment)
        usable = size - (aligned_base - base)
        if usable <= 0:
            raise ValueError("allocator arena too small for its alignment")
        self._alignment = alignment
        self._base = aligned_base
        self._end = aligned_base + (usable - usable % alignment)
        self._free: List[_FreeBlock] = [
            _FreeBlock(self._base, self._end - self._base)
        ]
        self._live: Dict[int, int] = {}
        # The last snapshot() capture while the allocator is unchanged;
        # malloc, free and restore drop or replace it.
        self._capture: Optional[_Capture] = None

    @property
    def alignment(self) -> int:
        """Allocation alignment in bytes."""
        return self._alignment

    @property
    def live_allocations(self) -> Dict[int, int]:
        """Mapping of live allocation address -> rounded size (copy)."""
        return dict(self._live)

    @property
    def bytes_free(self) -> int:
        """Total bytes on the free list."""
        return sum(block.size for block in self._free)

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the aligned base address.

        Raises:
            OutOfMemoryError: when no free block can satisfy the request.
            ValueError: for non-positive sizes.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        rounded = layout.align_up(size, self._alignment)
        for index, block in enumerate(self._free):
            if block.size >= rounded:
                addr = block.addr
                if block.size == rounded:
                    del self._free[index]
                else:
                    block.addr += rounded
                    block.size -= rounded
                self._live[addr] = rounded
                self._capture = None
                return addr
        raise OutOfMemoryError(
            f"cannot allocate {size} bytes ({rounded} rounded); "
            f"{self.bytes_free} bytes free but fragmented or insufficient"
        )

    def snapshot(self) -> _Capture:
        """Immutable capture of the allocator state for later restore.

        Captures are shared: while the allocator is unchanged, every
        call returns the same one, so callers must not mutate it.
        """
        capture = self._capture
        if capture is None:
            capture = self._capture = (
                tuple((block.addr, block.size) for block in self._free),
                dict(self._live),
            )
        return capture

    def restore(self, state: _Capture) -> None:
        """Reset free list and live map to a :meth:`snapshot` capture."""
        free, live = state
        self._free = [_FreeBlock(addr, size) for addr, size in free]
        self._live = dict(live)
        self._capture = state

    def free(self, addr: int) -> None:
        """Return an allocation to the free list, coalescing neighbours.

        Raises:
            InvalidFreeError: if ``addr`` is not a live allocation base.
        """
        try:
            rounded = self._live.pop(addr)
        except KeyError:
            raise InvalidFreeError(
                f"free of {addr:#x} which is not a live allocation"
            ) from None
        self._capture = None
        self._insert_free(_FreeBlock(addr, rounded))

    def owns(self, addr: int) -> bool:
        """True when ``addr`` falls inside this allocator's arena."""
        return self._base <= addr < self._end

    def allocation_containing(self, addr: int) -> Tuple[int, int]:
        """Return (base, size) of the live allocation containing ``addr``.

        Raises:
            InvalidFreeError: when ``addr`` is not inside any live block.
        """
        for base, size in self._live.items():
            if base <= addr < base + size:
                return base, size
        raise InvalidFreeError(f"{addr:#x} is not inside a live allocation")

    def _insert_free(self, block: _FreeBlock) -> None:
        """Insert in address order, merging with adjacent free blocks."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].addr < block.addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, block)
        # Merge with successor first so indices stay valid, then predecessor.
        if lo + 1 < len(self._free) and block.end == self._free[lo + 1].addr:
            block.size += self._free[lo + 1].size
            del self._free[lo + 1]
        if lo > 0 and self._free[lo - 1].end == block.addr:
            self._free[lo - 1].size += block.size
            del self._free[lo]
