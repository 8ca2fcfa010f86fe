"""Unit tests for the NVRAM image (recovery observer snapshot)."""

import pytest

from repro.errors import MemoryAccessError
from repro.memory import AddressSpace, NvramImage


@pytest.fixture
def image():
    return NvramImage(base=0x8000_0000, size=4096)


class TestApplyPersist:
    def test_persist_visible(self, image):
        image.apply_persist(0x8000_0000, (123).to_bytes(8, "little"))
        assert image.read(0x8000_0000, 8) == 123

    def test_counts_applied(self, image):
        image.apply_persist(0x8000_0000, b"\x01" * 8)
        image.apply_persist(0x8000_0008, b"\x02" * 8)
        assert image.persists_applied == 2

    def test_subword_persist(self, image):
        image.apply_persist(0x8000_0004, b"\xff\xff")
        assert image.read(0x8000_0004, 2) == 0xFFFF
        assert image.read(0x8000_0000, 4) == 0

    def test_rejects_block_crossing(self, image):
        with pytest.raises(MemoryAccessError):
            image.apply_persist(0x8000_0004, b"\x00" * 8)

    def test_rejects_out_of_range(self, image):
        with pytest.raises(MemoryAccessError):
            image.apply_persist(0x8000_0000 + 4096, b"\x00" * 8)

    def test_rejects_empty(self, image):
        with pytest.raises(MemoryAccessError):
            image.apply_persist(0x8000_0000, b"")

    def test_larger_granularity_allows_wider_persists(self):
        image = NvramImage(0x8000_0000, 4096, persist_granularity=64)
        image.apply_persist(0x8000_0000, bytes(range(64)))
        assert image.read_bytes(0x8000_0000, 64) == bytes(range(64))

    def test_apply_all(self, image):
        image.apply_all(
            [(0x8000_0000, b"\x01" * 8), (0x8000_0008, b"\x02" * 8)]
        )
        assert image.persists_applied == 2

    def test_apply_slices(self, image):
        slices = [
            image.persist_slice(0x8000_0000, b"\x01" * 8),
            image.persist_slice(0x8000_000C, b"\xff\xff"),
        ]
        assert slices == [(0, 8, b"\x01" * 8), (12, 14, b"\xff\xff")]
        image.apply_slices(slices)
        assert image.read(0x8000_0000, 8) == 0x0101010101010101
        assert image.read(0x8000_000C, 2) == 0xFFFF
        assert image.persists_applied == 2

    @pytest.mark.parametrize("granularity", [8, 64])
    def test_persist_slice_accepts_exactly_what_apply_persist_does(
        self, granularity
    ):
        image = NvramImage(0x8000_0000, 256, persist_granularity=granularity)
        for offset in range(-80, 336, 3):
            for size in (0, 1, 2, 5, 8, 9, 64, 65):
                addr, data = 0x8000_0000 + offset, bytes(range(size))
                piece = image.persist_slice(addr, data)
                try:
                    image.copy().apply_persist(addr, data)
                except MemoryAccessError:
                    assert piece is None, (offset, size)
                else:
                    assert piece == (offset, offset + size, data)


class TestSnapshots:
    def test_blank_from_region_is_zeroed(self):
        space = AddressSpace.with_default_layout(persistent_size=4096)
        region = space.region("persistent")
        space.write(region.base, 8, 42)
        image = NvramImage.from_region(region, blank=True)
        assert image.read(region.base, 8) == 0

    def test_snapshot_from_region_copies_contents(self):
        space = AddressSpace.with_default_layout(persistent_size=4096)
        region = space.region("persistent")
        space.write(region.base, 8, 42)
        image = NvramImage.from_region(region, blank=False)
        assert image.read(region.base, 8) == 42
        # Snapshot is decoupled from later region writes.
        space.write(region.base, 8, 99)
        assert image.read(region.base, 8) == 42

    def test_copy_is_independent(self, image):
        image.apply_persist(0x8000_0000, b"\x07" * 8)
        clone = image.copy()
        clone.apply_persist(0x8000_0000, b"\x09" * 8)
        assert image.read(0x8000_0000, 8) != clone.read(0x8000_0000, 8)
        assert clone.persists_applied == image.persists_applied + 1

    def test_copy_keeps_geometry(self):
        image = NvramImage(0x8000_0000, 256, persist_granularity=64)
        image.apply_persist(0x8000_0000, bytes(range(64)))
        clone = image.copy()
        assert (clone.base, clone.size, clone.persist_granularity) == (
            image.base,
            image.size,
            image.persist_granularity,
        )
        assert clone.read_bytes(clone.base, clone.size) == image.read_bytes(
            image.base, image.size
        )
        assert clone.persists_applied == 1


class TestConstruction:
    def test_rejects_bad_granularity(self):
        with pytest.raises(MemoryAccessError):
            NvramImage(0, 64, persist_granularity=12)

    def test_rejects_size_mismatch(self):
        with pytest.raises(MemoryAccessError):
            NvramImage(0, 64, initial=b"\x00" * 32)

    def test_rejects_empty_image(self):
        with pytest.raises(MemoryAccessError):
            NvramImage(0, 0)
