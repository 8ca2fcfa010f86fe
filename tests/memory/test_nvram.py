"""Unit tests for the NVRAM image (recovery observer snapshot)."""

import random

import pytest

from repro.errors import MemoryAccessError
from repro.memory import AddressSpace, NvramImage
from repro.memory.nvram import PAGE_SIZE


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

    @pytest.mark.parametrize("granularity", [8, 64])
    def test_page_slice_rejects_exactly_what_apply_persist_does(
        self, granularity
    ):
        image = NvramImage(0x8000_0000, 256, persist_granularity=granularity)
        for offset in range(-80, 336, 3):
            for size in (0, 1, 2, 5, 8, 9, 64, 65):
                addr, data = 0x8000_0000 + offset, bytes(range(size))
                piece = image.page_slice(addr, data)
                try:
                    image.copy().apply_persist(addr, data)
                except MemoryAccessError:
                    assert piece is None, (offset, size)
                else:
                    assert piece == (
                        addr // PAGE_SIZE, slice(offset, offset + size), data
                    )

    @pytest.mark.parametrize("granularity", [8, 64, 2 * PAGE_SIZE])
    def test_page_slice_accepts_apply_persist_within_a_page(self, granularity):
        base = 0x8000_0000 + PAGE_SIZE - 128
        image = NvramImage(base, 256, persist_granularity=granularity)
        for offset in range(-80, 336, 3):
            for size in (0, 1, 2, 5, 8, 9, 64, 65):
                addr, data = base + offset, bytes(range(size))
                piece = image.page_slice(addr, data)
                try:
                    image.copy().apply_persist(addr, data)
                except MemoryAccessError:
                    assert piece is None, (offset, size)
                    continue
                if addr // PAGE_SIZE != (addr + size - 1) // PAGE_SIZE:
                    assert piece is None, (offset, size)
                else:
                    start = addr % PAGE_SIZE
                    assert piece == (
                        addr // PAGE_SIZE, slice(start, start + size), data
                    )

    def test_apply_page_slices(self, image):
        slices = [
            image.page_slice(0x8000_0000, b"\x01" * 8),
            image.page_slice(0x8000_0FF8, b"\x02" * 8),
            image.page_slice(0x8000_000C, b"\xff\xff"),
        ]
        image.apply_page_slices(slices)
        assert image.read(0x8000_0000, 8) == 0x0101010101010101
        assert image.read(0x8000_0FF8, 8) == 0x0202020202020202
        assert image.read(0x8000_000C, 2) == 0xFFFF
        assert image.persists_applied == 3


class TestReads:
    def test_read_bytes_across_pages(self):
        image = NvramImage(0x8000_0000, 3 * PAGE_SIZE)
        addr = 0x8000_0000 + PAGE_SIZE - 5
        image.apply_raw(addr, bytes(range(1, 11)))
        assert image.read_bytes(addr - 1, 12) == bytes(range(0, 11)) + b"\0"
        assert image.read_bytes(0x8000_0000, 3 * PAGE_SIZE).count(0) == (
            3 * PAGE_SIZE - 10
        )

    def test_read_words_matches_reads(self):
        image = NvramImage(0x8000_0000, 2 * PAGE_SIZE)
        for index in range(0, 2 * PAGE_SIZE, 8):
            image.apply_persist(
                0x8000_0000 + index, (index * 0x0101 + 7).to_bytes(8, "little")
            )
        for addr in (0x8000_0000, 0x8000_0000 + PAGE_SIZE - 24):
            assert image.read_words(addr, 6) == tuple(
                image.read(addr + 8 * i, 8) for i in range(6)
            )

    def test_read_words_of_unwritten_pages_are_zero(self, image):
        assert image.read_words(0x8000_0000, 8) == (0,) * 8

    @pytest.mark.parametrize(
        "addr,count,message",
        [
            (0x8000_0004, 2, "word read at 0x80000004 is not 8-byte aligned"),
            (0x8000_0000, 0, "word count must be positive, got 0"),
            (
                0x8000_0FF8,
                2,
                "range [0x80000ff8, 0x80001008) outside image "
                "[0x80000000, 0x80001000)",
            ),
            (
                0x7FFF_FFF8,
                1,
                "range [0x7ffffff8, 0x80000000) outside image "
                "[0x80000000, 0x80001000)",
            ),
        ],
        ids=["misaligned", "no-words", "past-end", "before-start"],
    )
    def test_read_words_rejects(self, image, addr, count, message):
        with pytest.raises(MemoryAccessError) as info:
            image.read_words(addr, count)
        assert str(info.value) == message


class TestErrorsNameTheOperation:
    def test_empty_read_bytes(self, image):
        with pytest.raises(MemoryAccessError) as info:
            image.read_bytes(0x8000_0000, 0)
        assert str(info.value) == "read size must be positive, got 0"

    def test_empty_apply_raw(self, image):
        with pytest.raises(MemoryAccessError) as info:
            image.apply_raw(0x8000_0000, b"")
        assert str(info.value) == "raw write size must be positive, got 0"

    def test_empty_persist(self, image):
        with pytest.raises(MemoryAccessError) as info:
            image.apply_persist(0x8000_0000, b"")
        assert str(info.value) == "persist size must be positive, got 0"


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

    def test_parent_write_after_copy_stays_out_of_clone(self, image):
        image.apply_persist(0x8000_0000, b"\x07" * 8)
        clone = image.copy()
        image.apply_persist(0x8000_0000, b"\x09" * 8)
        image.flip_bits(0x8000_0010, 0x80)
        assert clone.read(0x8000_0000, 8) == 0x0707070707070707
        assert clone.read(0x8000_0010, 1) == 0
        assert clone.persists_applied == 1

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

    def test_rejects_negative_base(self):
        with pytest.raises(MemoryAccessError) as info:
            NvramImage(-8, 64)
        assert str(info.value) == "image base must be non-negative, got -8"

    def test_initial_contents_across_pages(self):
        initial = bytes(index % 251 for index in range(PAGE_SIZE + 100))
        image = NvramImage(PAGE_SIZE - 50, len(initial), initial)
        assert image.read_bytes(image.base, image.size) == initial


class FlatImage:
    """Flat-bytearray model of one image: the pre-copy-on-write layout."""

    def __init__(self, base, data, applied=0):
        self.base = base
        self.data = bytearray(data)
        self.applied = applied

    def copy(self):
        return FlatImage(self.base, self.data, self.applied)

    def inside(self, addr, size):
        return size > 0 and self.base <= addr and addr + size <= (
            self.base + len(self.data)
        )

    def write(self, addr, data):
        offset = addr - self.base
        self.data[offset : offset + len(data)] = data

    def read(self, addr, size):
        offset = addr - self.base
        return bytes(self.data[offset : offset + size])


def _random_addr(rng, base, size):
    """Mostly near page boundaries and the image ends, sometimes outside."""
    end = base + size
    pick = rng.random()
    if pick < 0.4:
        boundary = rng.randrange(base // PAGE_SIZE, end // PAGE_SIZE + 1)
        return boundary * PAGE_SIZE + rng.randrange(-24, 24)
    if pick < 0.6:
        return end + rng.randrange(-40, 8)
    if pick < 0.7:
        return base + rng.randrange(-8, 24)
    return base + rng.randrange(size)


def _step(rng, images, models):
    """One random operation on one image and its model, or a copy."""
    which = rng.randrange(len(images))
    image, model = images[which], models[which]
    base, size = image.base, image.size
    granularity = image.persist_granularity
    op = rng.choice(
        ["copy", "persist", "slices", "raw", "flip", "read", "words", "bytes"]
    )
    if op == "copy":
        if len(images) < 6:
            images.append(image.copy())
            models.append(model.copy())
        return
    addr = _random_addr(rng, base, size)
    if op in ("persist", "slices"):
        addr -= addr % granularity
        start = rng.randrange(granularity)
        size = rng.randint(1, granularity)
        data = bytes(rng.randrange(256) for _ in range(size))
        addr += start if rng.random() < 0.8 else 0
        valid = model.inside(addr, len(data)) and (
            addr // granularity == (addr + len(data) - 1) // granularity
        )
        if op == "persist":
            if not valid:
                with pytest.raises(MemoryAccessError):
                    image.apply_persist(addr, data)
                return
            image.apply_persist(addr, data)
        else:
            piece = image.page_slice(addr, data)
            assert (piece is not None) == valid
            if not valid:
                return
            image.apply_page_slices([piece, piece])
            model.applied += 1
        model.write(addr, data)
        model.applied += 1
    elif op == "raw":
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
        if not model.inside(addr, len(data)):
            with pytest.raises(MemoryAccessError):
                image.apply_raw(addr, data)
            return
        image.apply_raw(addr, data)
        model.write(addr, data)
    elif op == "flip":
        mask = rng.randrange(1, 256)
        if not model.inside(addr, 1):
            with pytest.raises(MemoryAccessError):
                image.flip_bits(addr, mask)
            return
        image.flip_bits(addr, mask)
        offset = addr - base
        model.data[offset] ^= mask
    elif op == "read":
        width = rng.choice([1, 2, 4, 8])
        addr -= addr % width
        if model.inside(addr, width):
            assert image.read(addr, width) == int.from_bytes(
                model.read(addr, width), "little"
            )
        else:
            with pytest.raises(MemoryAccessError):
                image.read(addr, width)
    elif op == "words":
        addr -= addr % 8
        count = rng.randint(1, 12)
        if model.inside(addr, 8 * count):
            raw = model.read(addr, 8 * count)
            assert image.read_words(addr, count) == tuple(
                int.from_bytes(raw[i : i + 8], "little")
                for i in range(0, len(raw), 8)
            )
        else:
            with pytest.raises(MemoryAccessError):
                image.read_words(addr, count)
    else:
        length = rng.randint(1, 2 * PAGE_SIZE)
        if model.inside(addr, length):
            assert image.read_bytes(addr, length) == model.read(addr, length)
        else:
            with pytest.raises(MemoryAccessError):
                image.read_bytes(addr, length)


class TestCopyOnWriteModel:
    """Seeded interleavings on a parent and its clones, checked against
    one flat-bytearray model per image after every step."""

    @pytest.mark.parametrize(
        "base,size,granularity",
        [
            (0x8000_0000, 4 * PAGE_SIZE, 8),
            (0x8000_0000 + 40, 3 * PAGE_SIZE + 104, 8),
            (0x8000_0000 + 64, 2 * PAGE_SIZE + 256, 64),
        ],
        ids=["aligned", "unaligned", "coarse"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_every_image_matches_its_model(
        self, base, size, granularity, seed
    ):
        rng = random.Random(seed)
        # Odd seeds start from sparse contents, even seeds blank.
        initial = bytearray(size)
        for _ in range(3 * (seed % 2)):
            start = rng.randrange(size - 64)
            initial[start : start + 64] = bytes(range(1, 65))
        initial = bytes(initial)
        images = [NvramImage(base, size, initial, granularity)]
        models = [FlatImage(base, initial)]
        for _ in range(250):
            _step(rng, images, models)
            for image, model in zip(images, models):
                assert image.read_bytes(base, size) == bytes(model.data)
                assert image.persists_applied == model.applied
        assert len(images) > 2
