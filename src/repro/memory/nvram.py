"""NVRAM image: the recovery observer's view of persistent memory.

The paper reasons about failure via a *recovery observer* that atomically
reads all of persistent memory at the moment of failure (Section 4).  An
:class:`NvramImage` is that snapshot: it starts from the persistent
region's initial contents and has persists applied to it one atomic
persist at a time.  Failure injection builds images from consistent cuts
of the persist partial order and hands them to recovery code.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import MemoryAccessError
from repro.memory import layout
from repro.memory.address_space import Region


class NvramImage:
    """Byte-backed snapshot of a persistent region.

    Persists are applied with the paper's atomicity rule: each persist
    must fall within one aligned block of the configured atomic persist
    granularity (default eight bytes), so a persist either fully occurred
    or did not occur at all — never partially.
    """

    def __init__(
        self,
        base: int,
        size: int,
        initial: bytes = b"",
        persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY,
    ) -> None:
        if size <= 0:
            raise MemoryAccessError(f"image size must be positive, got {size}")
        if not layout.is_power_of_two(persist_granularity):
            raise MemoryAccessError(
                f"persist granularity must be a power of two, got "
                f"{persist_granularity}"
            )
        if initial and len(initial) != size:
            raise MemoryAccessError(
                f"initial contents have {len(initial)} bytes, expected {size}"
            )
        self._base = base
        self._data = bytearray(initial) if initial else bytearray(size)
        self._granularity = persist_granularity
        self._applied = 0

    @classmethod
    def from_region(
        cls,
        region: Region,
        persist_granularity: int = layout.DEFAULT_PERSIST_GRANULARITY,
        blank: bool = True,
    ) -> "NvramImage":
        """Build an image covering ``region``.

        With ``blank=True`` (the default) the image starts zeroed — the
        state NVRAM held before execution — so that only applied persists
        are visible, which is what failure injection needs.  With
        ``blank=False`` the image copies the region's current contents
        (i.e., the fully persisted end state).
        """
        initial = b"" if blank else bytes(region.data)
        return cls(region.base, region.size, initial, persist_granularity)

    @property
    def base(self) -> int:
        """First mapped address."""
        return self._base

    @property
    def size(self) -> int:
        """Image size in bytes."""
        return len(self._data)

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self._base + len(self._data)

    @property
    def persist_granularity(self) -> int:
        """Atomic persist granularity in bytes."""
        return self._granularity

    @property
    def persists_applied(self) -> int:
        """Number of persists applied so far."""
        return self._applied

    def _check_range(self, addr: int, size: int) -> int:
        if size <= 0:
            raise MemoryAccessError(f"persist size must be positive, got {size}")
        if addr < self._base or addr + size > self.end:
            raise MemoryAccessError(
                f"range [{addr:#x}, {addr + size:#x}) outside image "
                f"[{self._base:#x}, {self.end:#x})"
            )
        return addr - self._base

    def apply_persist(self, addr: int, data: bytes) -> None:
        """Apply one atomic persist.

        Raises:
            MemoryAccessError: when the persist crosses an aligned
                atomic-persist block or falls outside the image.
        """
        offset = self._check_range(addr, len(data))
        first, last = layout.block_range(addr, len(data), self._granularity)
        if first != last:
            raise MemoryAccessError(
                f"persist at {addr:#x} size {len(data)} spans multiple "
                f"{self._granularity}-byte atomic blocks"
            )
        self._data[offset : offset + len(data)] = data
        self._applied += 1

    def apply_all(self, persists: Iterable[Tuple[int, bytes]]) -> None:
        """Apply a sequence of (addr, data) persists in order."""
        for addr, data in persists:
            self.apply_persist(addr, data)

    def persist_slice(
        self, addr: int, data: bytes
    ) -> Optional[Tuple[int, int, bytes]]:
        """The persist as a pre-validated slice for :meth:`apply_slices`.

        Returns ``(start, end, data)`` with offsets relative to
        :attr:`base`, or None when :meth:`apply_persist` would reject
        the persist (empty, outside the image, or crossing an atomic
        block).  The slice stays valid for any image of the same base,
        size and persist granularity.
        """
        start = addr - self._base
        end = start + len(data)
        granularity = self._granularity
        if (
            end <= start
            or start < 0
            or end > len(self._data)
            or addr // granularity != (addr + len(data) - 1) // granularity
        ):
            return None
        return (start, end, data)

    def apply_slices(self, slices: Sequence[Tuple[int, int, bytes]]) -> None:
        """Apply persists from :meth:`persist_slice`, in order.

        Skips the per-persist checks, which :meth:`persist_slice` already
        made; every slice counts toward :attr:`persists_applied`.
        Recovery's per-graph persist table
        (:func:`repro.core.recovery.persist_table`) builds the slices
        once per graph so imaging a cut pays only the assignments.
        """
        data = self._data
        for start, end, chunk in slices:
            data[start:end] = chunk
        self._applied += len(slices)

    def apply_raw(self, addr: int, data: bytes) -> None:
        """Apply a device-level sub-persist, bypassing the atomicity rule.

        Fault injection uses this to model *torn* persists: a device
        whose real write unit is smaller than the model's atomic persist
        granularity can land any aligned fragment of a persist.  Raw
        applies do not count toward :attr:`persists_applied` — they are
        fragments, not persists.

        Raises:
            MemoryAccessError: when the range falls outside the image.
        """
        offset = self._check_range(addr, len(data))
        self._data[offset : offset + len(data)] = data

    def flip_bits(self, addr: int, mask: int) -> None:
        """XOR one byte with ``mask``, modeling in-cell bit corruption.

        Raises:
            MemoryAccessError: when ``addr`` is outside the image or the
                mask is not a byte value.
        """
        if not 0 <= mask <= 0xFF:
            raise MemoryAccessError(f"bit mask {mask:#x} is not a byte")
        offset = self._check_range(addr, 1)
        self._data[offset] ^= mask

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes from the snapshot."""
        offset = self._check_range(addr, size)
        return bytes(self._data[offset : offset + size])

    def read(self, addr: int, size: int) -> int:
        """Read an unsigned little-endian value of 1-8 bytes."""
        layout.validate_access(addr, size)
        return int.from_bytes(self.read_bytes(addr, size), "little")

    def copy(self) -> "NvramImage":
        """Deep-copy the image (e.g., to fork alternative failure states).

        Makes exactly one copy of the bytes and skips the constructor's
        validation, which this image already passed.
        """
        clone = NvramImage.__new__(NvramImage)
        clone._base = self._base
        clone._data = bytearray(self._data)
        clone._granularity = self._granularity
        clone._applied = self._applied
        return clone
