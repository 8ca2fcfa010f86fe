"""NVRAM image: the recovery observer's view of persistent memory.

The paper reasons about failure via a *recovery observer* that atomically
reads all of persistent memory at the moment of failure (Section 4).  An
:class:`NvramImage` is that snapshot: it starts from the persistent
region's initial contents and has persists applied to it one atomic
persist at a time.  Failure injection builds images from consistent cuts
of the persist partial order and hands them to recovery code.

Images are copy-on-write at page granularity: :meth:`NvramImage.copy`
shares every page with its source, and the first write to a shared page
copies only that page.  Pages are aligned to absolute addresses, so an
aligned word access, or a persist inside one atomic block no larger
than a page, never spans two.  A page no image has written reads as
zeros, so an image costs memory and copying time in proportion to the
pages written, not to its size.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.errors import MemoryAccessError
from repro.memory import layout
from repro.memory.address_space import Region

#: Copy-on-write unit in bytes, aligned to absolute addresses.
PAGE_SIZE = 4096
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
#: Contents of a page no write has reached.
_ZERO_PAGE = bytes(PAGE_SIZE)


class NvramImage:
    """Byte-addressed, page copy-on-write snapshot of a persistent region.

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
        if base < 0:
            raise MemoryAccessError(
                f"image base must be non-negative, got {base}"
            )
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
        self._size = size
        self._granularity = persist_granularity
        self._applied = 0
        # Page index -> contents; an absent page reads as zeros.  Pages
        # in _owned are private to this image, the rest may be shared
        # with copies and are copied before their first write.
        self._pages: Dict[int, bytearray] = {}
        self._owned: Set[int] = set()
        if initial:
            end = base + size
            last = (end - 1) >> _PAGE_SHIFT
            for index in range(base >> _PAGE_SHIFT, last + 1):
                lo = max(base, index << _PAGE_SHIFT)
                hi = min(end, (index + 1) << _PAGE_SHIFT)
                chunk = initial[lo - base : hi - base]
                if chunk != _ZERO_PAGE[: hi - lo]:
                    self._write(lo, chunk)

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
        return self._size

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self._base + self._size

    @property
    def persist_granularity(self) -> int:
        """Atomic persist granularity in bytes."""
        return self._granularity

    @property
    def persists_applied(self) -> int:
        """Number of persists applied so far."""
        return self._applied

    def _check_range(self, addr: int, size: int, operation: str) -> None:
        if size <= 0:
            raise MemoryAccessError(
                f"{operation} size must be positive, got {size}"
            )
        if addr < self._base or addr + size > self._base + self._size:
            raise MemoryAccessError(
                f"range [{addr:#x}, {addr + size:#x}) outside image "
                f"[{self._base:#x}, {self.end:#x})"
            )

    def _page(self, index: int) -> bytearray:
        """Page ``index`` made private to this image, for writing."""
        if index in self._owned:
            return self._pages[index]
        shared = self._pages.get(index)
        page = bytearray(_ZERO_PAGE if shared is None else shared)
        self._pages[index] = page
        self._owned.add(index)
        return page

    def _write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr``, page by page (range already checked)."""
        offset = addr & _PAGE_MASK
        if offset + len(data) <= PAGE_SIZE:
            self._page(addr >> _PAGE_SHIFT)[offset : offset + len(data)] = data
            return
        view = memoryview(data)
        done = 0
        while done < len(data):
            page = self._page((addr + done) >> _PAGE_SHIFT)
            offset = (addr + done) & _PAGE_MASK
            take = min(len(data) - done, PAGE_SIZE - offset)
            page[offset : offset + take] = view[done : done + take]
            done += take

    def _read(self, addr: int, size: int) -> bytes:
        """The bytes at ``[addr, addr + size)`` (range already checked)."""
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_SHIFT, _ZERO_PAGE)
            return bytes(page[offset : offset + size])
        pieces = []
        end = addr + size
        while addr < end:
            offset = addr & _PAGE_MASK
            take = min(end - addr, PAGE_SIZE - offset)
            page = self._pages.get(addr >> _PAGE_SHIFT, _ZERO_PAGE)
            pieces.append(page[offset : offset + take])
            addr += take
        return b"".join(pieces)

    def apply_persist(self, addr: int, data: bytes) -> None:
        """Apply one atomic persist.

        Raises:
            MemoryAccessError: when the persist crosses an aligned
                atomic-persist block or falls outside the image.
        """
        self._check_range(addr, len(data), "persist")
        first, last = layout.block_range(addr, len(data), self._granularity)
        if first != last:
            raise MemoryAccessError(
                f"persist at {addr:#x} size {len(data)} spans multiple "
                f"{self._granularity}-byte atomic blocks"
            )
        self._write(addr, data)
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
            or end > self._size
            or addr // granularity != (addr + len(data) - 1) // granularity
        ):
            return None
        return (start, end, data)

    def apply_slices(self, slices: Sequence[Tuple[int, int, bytes]]) -> None:
        """Apply persists from :meth:`persist_slice`, in order.

        Skips the per-persist checks, which :meth:`persist_slice` already
        made; every slice counts toward :attr:`persists_applied`.
        """
        base = self._base
        for start, _end, chunk in slices:
            self._write(base + start, chunk)
        self._applied += len(slices)

    def page_slice(
        self, addr: int, data: bytes
    ) -> Optional[Tuple[int, slice, bytes]]:
        """The persist as a page-relative slice for :meth:`apply_page_slices`.

        Returns ``(page, span, data)``: page number ``page`` and the
        ``slice`` of offsets in it that ``data`` replaces.  Returns None
        when :meth:`persist_slice` would, or when the persist spans two
        pages (only possible with a persist granularity above
        :data:`PAGE_SIZE`).  The slice stays valid for any image of the
        same base, size and persist granularity.
        """
        if self.persist_slice(addr, data) is None:
            return None
        start = addr & _PAGE_MASK
        end = start + len(data)
        if end > PAGE_SIZE:
            return None
        return (addr >> _PAGE_SHIFT, slice(start, end), data)

    def apply_page_slices(
        self, slices: Sequence[Tuple[int, slice, bytes]]
    ) -> None:
        """Apply persists from :meth:`page_slice`, in order.

        The imaging hot path: every slice is one slice assignment, plus
        a page lookup whenever the page changes.  Recovery's per-graph
        persist table (:func:`repro.core.recovery.persist_table`) builds
        the slices once per graph.  Every slice counts toward
        :attr:`persists_applied`.
        """
        current = -1
        page = bytearray()
        for index, span, chunk in slices:
            if index != current:
                current = index
                page = self._page(index)
            page[span] = chunk
        self._applied += len(slices)

    def apply_raw(self, addr: int, data: bytes) -> None:
        """Apply a device-level sub-persist, bypassing the atomicity rule.

        Fault injection uses this to model *torn* persists: a device
        whose real write unit is smaller than the model's atomic persist
        granularity can land any aligned fragment of a persist.  Raw
        applies do not count toward :attr:`persists_applied` — they are
        fragments, not persists.

        Raises:
            MemoryAccessError: when the range falls outside the image or
                ``data`` is empty.
        """
        self._check_range(addr, len(data), "raw write")
        self._write(addr, data)

    def flip_bits(self, addr: int, mask: int) -> None:
        """XOR one byte with ``mask``, modeling in-cell bit corruption.

        Raises:
            MemoryAccessError: when ``addr`` is outside the image or the
                mask is not a byte value.
        """
        if not 0 <= mask <= 0xFF:
            raise MemoryAccessError(f"bit mask {mask:#x} is not a byte")
        self._check_range(addr, 1, "bit flip")
        self._page(addr >> _PAGE_SHIFT)[addr & _PAGE_MASK] ^= mask

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes from the snapshot.

        Raises:
            MemoryAccessError: when the range falls outside the image or
                ``size`` is not positive.
        """
        self._check_range(addr, size, "read")
        return self._read(addr, size)

    def read(self, addr: int, size: int) -> int:
        """Read an unsigned little-endian value of 1-8 bytes."""
        layout.validate_access(addr, size)
        self._check_range(addr, size, "read")
        # A word-contained access never spans a page.
        offset = addr & _PAGE_MASK
        page = self._pages.get(addr >> _PAGE_SHIFT, _ZERO_PAGE)
        return int.from_bytes(page[offset : offset + size], "little")

    def read_words(self, addr: int, count: int) -> Tuple[int, ...]:
        """Read ``count`` consecutive unsigned little-endian 8-byte words.

        Equal to ``count`` calls of ``read(addr + 8 * i, 8)``, with one
        alignment check and one range check for the whole run.

        Raises:
            MemoryAccessError: when ``count`` is not positive, ``addr``
                is not word-aligned, or the words fall outside the image.
        """
        if count <= 0:
            raise MemoryAccessError(
                f"word count must be positive, got {count}"
            )
        if addr % layout.WORD_SIZE:
            raise MemoryAccessError(
                f"word read at {addr:#x} is not {layout.WORD_SIZE}-byte "
                f"aligned"
            )
        size = count * layout.WORD_SIZE
        self._check_range(addr, size, "word read")
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(addr >> _PAGE_SHIFT, _ZERO_PAGE)
            return struct.unpack_from(f"<{count}Q", page, offset)
        return struct.unpack(f"<{count}Q", self._read(addr, size))

    def copy(self) -> "NvramImage":
        """Copy the image (e.g., to fork alternative failure states).

        Copy-on-write: the clone shares every page with this image, and
        whichever of the two writes a shared page first copies that page
        alone.  Costs time in the number of pages written so far, not in
        the image size, and skips the constructor's validation, which
        this image already passed.
        """
        clone = NvramImage.__new__(NvramImage)
        clone._base = self._base
        clone._size = self._size
        clone._granularity = self._granularity
        clone._applied = self._applied
        clone._pages = self._pages.copy()
        clone._owned = set()
        if self._owned:
            self._owned = set()
        return clone
