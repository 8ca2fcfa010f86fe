"""Flat simulated address space with volatile and persistent regions.

The paper assumes "memory provides both volatile and persistent address
spaces" on a DRAM-like bus (Section 2.1).  We model a single flat address
space partitioned into named regions, each byte-backed so that recovery
can inspect actual persistent contents.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import MemoryAccessError
from repro.memory import layout
from repro.memory.layout import WORD_SIZE

#: Default bases chosen far apart so volatile/persistent never collide.
DEFAULT_VOLATILE_BASE = 0x1000_0000
DEFAULT_PERSISTENT_BASE = 0x8000_0000

#: Default region sizes.  Traces in this repo are small; 4 MiB is plenty.
DEFAULT_REGION_SIZE = 4 * 1024 * 1024

#: log2 of the page size of :meth:`AddressSpace.checked_region`'s
#: page -> region map (4 KiB pages).
PAGE_SHIFT = 12

#: One past the largest value a store of ``size`` bytes may write.
_VALUE_LIMITS = tuple(1 << (8 * size) for size in range(layout.WORD_SIZE + 1))


@dataclass
class Region:
    """A contiguous, byte-backed slice of the simulated address space."""

    name: str
    base: int
    size: int
    persistent: bool
    data: bytearray = field(repr=False, default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise MemoryAccessError(
                f"region {self.name!r} has invalid extent "
                f"base={self.base:#x} size={self.size}"
            )
        if not layout.is_aligned(self.base, layout.WORD_SIZE):
            raise MemoryAccessError(
                f"region {self.name!r} base {self.base:#x} is not word aligned"
            )
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise MemoryAccessError(
                f"region {self.name!r} backing store has {len(self.data)} "
                f"bytes, expected {self.size}"
            )

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.base + self.size

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes; the caller is responsible for range checks."""
        offset = addr - self.base
        return bytes(self.data[offset : offset + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes; the caller is responsible for range checks."""
        offset = addr - self.base
        self.data[offset : offset + len(data)] = data


class AddressSpace:
    """The simulated machine's memory: a set of non-overlapping regions.

    Values are stored little-endian.  Word-level accesses are checked in
    one place, :meth:`checked_region` (the rules of
    :func:`repro.memory.layout.validate_access`, the value range, the
    mapping); `read`/`write` and the simulated machine go through it.
    Raw `read_bytes`/`write_bytes` only enforce mapping, for bulk
    inspection.
    """

    def __init__(self, regions: Optional[List[Region]] = None) -> None:
        self._regions: List[Region] = []
        #: Region bases in ascending order, parallel to ``_regions``.
        self._bases: List[int] = []
        self._by_name: Dict[str, Region] = {}
        #: Page number -> the region wholly containing that page, filled
        #: by :meth:`checked_region` on a page's first access.  A page
        #: that straddles a region edge is never entered, so the bisection
        #: of :meth:`region_of` keeps deciding (and reporting) there.
        self._pages: Dict[int, Region] = {}
        for region in regions or []:
            self.add_region(region)

    @classmethod
    def with_default_layout(
        cls,
        volatile_size: int = DEFAULT_REGION_SIZE,
        persistent_size: int = DEFAULT_REGION_SIZE,
    ) -> "AddressSpace":
        """Build the standard two-region layout used by the machine."""
        return cls(
            [
                Region("volatile", DEFAULT_VOLATILE_BASE, volatile_size, False),
                Region("persistent", DEFAULT_PERSISTENT_BASE, persistent_size, True),
            ]
        )

    @property
    def regions(self) -> List[Region]:
        """Regions in ascending base order (copy; safe to iterate)."""
        return list(self._regions)

    def add_region(self, region: Region) -> None:
        """Map a region, rejecting overlaps and duplicate names."""
        if region.name in self._by_name:
            raise MemoryAccessError(f"duplicate region name {region.name!r}")
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryAccessError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._bases = [r.base for r in self._regions]
        self._by_name[region.name] = region

    def region(self, name: str) -> Region:
        """Look a region up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryAccessError(f"no region named {name!r}") from None

    def region_of(self, addr: int, size: int = 1) -> Region:
        """Return the region wholly containing [addr, addr+size).

        Regions never overlap, so the only candidate is the one with the
        greatest base at or below ``addr``.
        """
        index = bisect_right(self._bases, addr) - 1
        if index >= 0:
            region = self._regions[index]
            if addr + size <= region.end:
                return region
            if addr < region.end:
                raise MemoryAccessError(
                    f"access at {addr:#x} size {size} runs past region "
                    f"{region.name!r}"
                )
        raise MemoryAccessError(f"unmapped address {addr:#x}")

    def is_persistent(self, addr: int) -> bool:
        """True when ``addr`` lies in a persistent region."""
        return self.region_of(addr).persistent

    def checked_region(
        self, addr: int, size: int, value: Optional[int] = None
    ) -> Region:
        """Validate a word access and return the region it lies in.

        Checks, in this order: the access rules of
        :func:`~repro.memory.layout.validate_access`, the range of the
        ``value`` a store writes (when given), then the mapping.  The
        caller may then use the region's raw byte accessors directly.

        The simulated machine calls this once per access, so the passing
        case is tested inline and a failing one is handed to the
        :mod:`~repro.memory.layout` validator that words its error.  An
        access never crosses a word, so it lies in one page, and a page
        in :attr:`_pages` lies wholly inside its region.
        """
        if (
            addr < 0
            or not 0 < size <= WORD_SIZE
            or addr % WORD_SIZE + size > WORD_SIZE
        ):
            layout.validate_access(addr, size)  # raises
        if value is not None and not 0 <= value < _VALUE_LIMITS[size]:
            layout.validate_value(value, size)  # raises
        try:
            return self._pages[addr >> PAGE_SHIFT]
        except KeyError:
            pass
        region = self.region_of(addr, size)
        page = addr >> PAGE_SHIFT
        if region.base <= page << PAGE_SHIFT and (
            (page + 1) << PAGE_SHIFT <= region.end
        ):
            self._pages[page] = region
        return region

    def read(self, addr: int, size: int) -> int:
        """Load an unsigned little-endian value of 1-8 bytes."""
        region = self.checked_region(addr, size)
        return int.from_bytes(region.read_bytes(addr, size), "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Store an unsigned little-endian value of 1-8 bytes."""
        region = self.checked_region(addr, size, value)
        region.write_bytes(addr, value.to_bytes(size, "little"))

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Bulk read for inspection/recovery; no word-atomicity rules."""
        if size < 0:
            raise MemoryAccessError(f"negative read size {size}")
        if size == 0:
            return b""
        region = self.region_of(addr, size)
        return region.read_bytes(addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write for test setup; no word-atomicity rules."""
        if not data:
            return
        region = self.region_of(addr, len(data))
        region.write_bytes(addr, data)
