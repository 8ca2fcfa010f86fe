"""Address arithmetic shared across the memory substrate and the analyzers.

The paper assumes NVRAM persists atomically at (at least) eight-byte
aligned blocks and tracks persist-ordering conflicts at a configurable
granularity (Figures 4 and 5).  All of that granularity math lives here.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import MemoryAccessError

#: Machine word size in bytes.  Simulated accesses never exceed one word.
WORD_SIZE = 8

#: Default atomic persist granularity (paper Section 5.2, rule 3).
DEFAULT_PERSIST_GRANULARITY = 8

#: Default granularity at which persist-ordering conflicts are tracked.
DEFAULT_TRACKING_GRANULARITY = 8


def is_power_of_two(value: int) -> bool:
    """Return True for positive powers of two (1, 2, 4, 8, ...)."""
    return value > 0 and (value & (value - 1)) == 0


def align_down(addr: int, granularity: int) -> int:
    """Round ``addr`` down to a multiple of ``granularity``."""
    return addr - (addr % granularity)


def align_up(addr: int, granularity: int) -> int:
    """Round ``addr`` up to a multiple of ``granularity``."""
    return align_down(addr + granularity - 1, granularity)


def is_aligned(addr: int, granularity: int) -> bool:
    """Return True when ``addr`` is a multiple of ``granularity``."""
    return addr % granularity == 0


def block_of(addr: int, granularity: int) -> int:
    """Return the index of the ``granularity``-aligned block holding ``addr``."""
    return addr // granularity


def block_range(addr: int, size: int, granularity: int) -> Tuple[int, int]:
    """Return (first, last) inclusive block indices spanned by an access."""
    if size <= 0:
        raise MemoryAccessError(f"access size must be positive, got {size}")
    return addr // granularity, (addr + size - 1) // granularity


def blocks_spanned(addr: int, size: int, granularity: int) -> Iterator[int]:
    """Yield every block index touched by the byte range [addr, addr+size)."""
    first, last = block_range(addr, size, granularity)
    return iter(range(first, last + 1))


def validate_access(addr: int, size: int) -> None:
    """Validate a simulated memory access.

    Accesses must be 1-8 bytes and must not cross an aligned machine-word
    boundary, mirroring the atomicity the paper assumes for individual
    loads, stores, and eight-byte persists.

    Raises:
        MemoryAccessError: on a zero/negative/oversized or word-crossing
            access, or a negative address.
    """
    if addr < 0:
        raise MemoryAccessError(f"negative address {addr:#x}")
    if size <= 0 or size > WORD_SIZE:
        raise MemoryAccessError(
            f"access size must be in [1, {WORD_SIZE}], got {size}"
        )
    if addr // WORD_SIZE != (addr + size - 1) // WORD_SIZE:
        raise MemoryAccessError(
            f"access at {addr:#x} size {size} crosses an aligned "
            f"{WORD_SIZE}-byte word boundary"
        )


def validate_value(value: int, size: int) -> None:
    """Validate that a stored value fits ``size`` bytes unsigned.

    Raises:
        MemoryAccessError: on a negative or over-wide value.
    """
    if value < 0 or value >= 1 << (8 * size):
        raise MemoryAccessError(f"value {value} does not fit in {size} bytes")


def words_covering(addr: int, size: int) -> Iterator[Tuple[int, int]]:
    """Split [addr, addr+size) into (addr, size) pieces within aligned words.

    Used by bulk copies: each piece satisfies :func:`validate_access` and
    can be issued as a single simulated store.
    """
    end = addr + size
    cursor = addr
    while cursor < end:
        word_end = align_down(cursor, WORD_SIZE) + WORD_SIZE
        piece = min(end, word_end) - cursor
        yield cursor, piece
        cursor += piece
