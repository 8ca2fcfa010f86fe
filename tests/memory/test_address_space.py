"""Unit tests for the simulated address space."""

import pytest

from repro.errors import MemoryAccessError
from repro.memory import AddressSpace, Region


@pytest.fixture
def space():
    return AddressSpace.with_default_layout(
        volatile_size=4096, persistent_size=4096
    )


class TestRegions:
    def test_default_layout_has_two_regions(self, space):
        names = [region.name for region in space.regions]
        assert names == ["volatile", "persistent"]

    def test_region_lookup_by_name(self, space):
        assert space.region("volatile").persistent is False
        assert space.region("persistent").persistent is True

    def test_unknown_region_name(self, space):
        with pytest.raises(MemoryAccessError):
            space.region("nvdimm")

    def test_is_persistent(self, space):
        volatile = space.region("volatile")
        persistent = space.region("persistent")
        assert not space.is_persistent(volatile.base)
        assert space.is_persistent(persistent.base)

    def test_rejects_overlapping_regions(self):
        with pytest.raises(MemoryAccessError):
            AddressSpace(
                [
                    Region("a", 0x1000, 0x100, False),
                    Region("b", 0x1080, 0x100, False),
                ]
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(MemoryAccessError):
            AddressSpace(
                [
                    Region("a", 0x1000, 0x100, False),
                    Region("a", 0x2000, 0x100, False),
                ]
            )

    def test_rejects_unaligned_base(self):
        with pytest.raises(MemoryAccessError):
            Region("odd", 0x1001, 0x100, False)

    def test_region_end_boundary(self, space):
        region = space.region("volatile")
        with pytest.raises(MemoryAccessError):
            space.read(region.end - 4, 8)


class TestReadWrite:
    def test_roundtrip_word(self, space):
        base = space.region("volatile").base
        space.write(base, 8, 0xDEADBEEFCAFE)
        assert space.read(base, 8) == 0xDEADBEEFCAFE

    def test_roundtrip_subword(self, space):
        base = space.region("volatile").base
        space.write(base + 4, 4, 0x1234)
        assert space.read(base + 4, 4) == 0x1234

    def test_little_endian_layout(self, space):
        base = space.region("volatile").base
        space.write(base, 8, 0x0102030405060708)
        assert space.read_bytes(base, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1]
        )

    def test_memory_starts_zeroed(self, space):
        base = space.region("persistent").base
        assert space.read(base, 8) == 0

    def test_value_too_large(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.write(base, 4, 1 << 32)

    def test_negative_value(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.write(base, 8, -1)

    def test_unmapped_address(self, space):
        with pytest.raises(MemoryAccessError):
            space.read(0x10, 8)

    def test_word_crossing_rejected(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.read(base + 4, 8)


class TestBulkAccess:
    def test_bytes_roundtrip(self, space):
        base = space.region("persistent").base
        payload = bytes(range(100))
        space.write_bytes(base + 8, payload)
        assert space.read_bytes(base + 8, 100) == payload

    def test_empty_bulk_ops(self, space):
        base = space.region("volatile").base
        space.write_bytes(base, b"")
        assert space.read_bytes(base, 0) == b""

    def test_negative_size_rejected(self, space):
        base = space.region("volatile").base
        with pytest.raises(MemoryAccessError):
            space.read_bytes(base, -1)

    def test_bulk_ignores_word_alignment(self, space):
        base = space.region("volatile").base
        space.write_bytes(base + 3, b"xyz")
        assert space.read_bytes(base + 3, 3) == b"xyz"


def scan_region_of(space, addr, size):
    """Reference lookup: the linear scan over regions in base order that
    the bisection replaced; returns the region or the error text."""
    for region in space.regions:
        if region.base <= addr and addr + size <= region.end:
            return region
        if region.base <= addr < region.end:
            return (
                f"access at {addr:#x} size {size} runs past region "
                f"{region.name!r}"
            )
    return f"unmapped address {addr:#x}"


class TestRegionLookup:
    @pytest.fixture
    def gappy(self):
        # Adjacent, gapped and added out of base order.
        return AddressSpace(
            [
                Region("c", 0x3000, 0x100, True),
                Region("a", 0x1000, 0x100, False),
                Region("b", 0x1100, 0x80, False),
                Region("d", 0x3200, 0x8, True),
            ]
        )

    def test_matches_linear_scan(self, gappy):
        edges = {0, 0x10}
        for region in gappy.regions:
            edges.update({region.base, region.end})
        addrs = sorted(
            {edge + delta for edge in edges for delta in range(-9, 10)}
        )
        checked = 0
        for addr in addrs:
            for size in range(1, 17):
                expected = scan_region_of(gappy, addr, size)
                if isinstance(expected, str):
                    with pytest.raises(MemoryAccessError) as failure:
                        gappy.region_of(addr, size)
                    assert str(failure.value) == expected
                else:
                    assert gappy.region_of(addr, size) is expected
                checked += 1
        assert checked > 1000

    def test_checked_region_order_of_checks(self, space):
        base = space.region("volatile").base
        # Access rules first, then the value, then the mapping.
        with pytest.raises(MemoryAccessError, match="crosses"):
            space.checked_region(0x14, 8, 1 << 70)
        with pytest.raises(MemoryAccessError, match="does not fit"):
            space.checked_region(0x10, 8, 1 << 70)
        with pytest.raises(MemoryAccessError, match="unmapped"):
            space.checked_region(0x10, 8, 1)
        assert space.checked_region(base, 8, 1) is space.region("volatile")
