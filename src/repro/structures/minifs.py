"""MiniFS: a BPFS-style persistent filesystem substrate.

The persistency models reproduced here were designed for the
Byte-Addressable Persistent File System (BPFS); MiniFS is a miniature of
that use case, built entirely on the epoch-persistency discipline:

* a fixed **inode table** (one cache line per inode: valid flag, size,
  checksum, direct block pointers);
* a **data area** of fixed-size blocks;
* a single **root directory** of (name-hash, inode-ref) entry pairs.

Every update is published bottom-up with persist barriers, finishing
with one eight-byte atomic store:

* ``create``   — write data blocks -> barrier -> write inode -> barrier
  -> set inode valid -> barrier -> write entry name -> barrier ->
  publish entry's inode-ref (atomic).
* ``write``    — shadow update (BPFS's copy-on-write): build a fresh
  inode over fresh blocks, then atomically swing the directory entry's
  inode-ref; the old version remains durable until the swing persists.
* ``unlink``   — zero the entry's inode-ref (atomic).

Free-space tracking is volatile (rebuilt trivially at mount from
reachability), so no persistent allocator metadata can ever be
inconsistent — the BPFS approach.

Recovery walks the directory from an NVRAM image and verifies each
file's checksum; the failure-injection tests assert that at *every*
consistent cut each recovered file equals some version that was actually
written (old or new, never torn).

**Why MiniFS needs the paper's race-free discipline.**  Shadow updates
recycle the replaced version's inode and blocks.  The next write may
reuse those blocks, and strong persist atomicity orders the reuse-writes
only after the *old data* persists — not after the directory swing.  A
failure can then expose a directory entry still pointing at the old
inode whose blocks were already overwritten: a torn file.  Surrounding
the lock's critical section with persist barriers (the paper's "persist
barriers before and after all lock acquires and releases") transitively
orders every reuse-write after the swing through the lock hand-off.
MiniFS applies those barriers by default; constructing it with
``race_free=False`` removes them, and the failure-injection tests
demonstrate the resulting recovery violation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import RecoveryError, ReproError
from repro.inject.report import (
    FaultDiagnosis,
    RecoveryReport,
    RepairPlan,
    RepairStep,
)
from repro.memory.nvram import NvramImage
from repro.sim.context import OpGen, ThreadContext
from repro.sim.machine import Machine
from repro.sim.sync import make_lock

#: Geometry.
BLOCK_SIZE = 256
DIRECT_BLOCKS = 4
MAX_FILE_SIZE = BLOCK_SIZE * DIRECT_BLOCKS

#: Inode layout (one 64-byte line).
INODE_VALID = 0
INODE_SIZE = 8
INODE_CHECKSUM = 16
INODE_BLOCKS = 24  # DIRECT_BLOCKS pointers
INODE_BYTES = 64

#: Directory entry layout (16 bytes; ref is the atomic publish word).
ENTRY_NAME = 0
ENTRY_REF = 8
ENTRY_BYTES = 16


def name_hash(name: str) -> int:
    """Stable 64-bit FNV-1a hash of a file name (nonzero)."""
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) % (1 << 64)
    return value or 1


def checksum(data: bytes) -> int:
    """Order-sensitive 64-bit checksum used to detect torn file data.

    This per-byte loop defines the on-NVRAM format; recovery calls it
    through the content-keyed :data:`_memo_checksum`.
    """
    value = 1469598103934665603
    for index, byte in enumerate(data):
        value = (value * 31 + byte * (index + 1)) % (1 << 64)
    return value


#: Payloads the checksum memo keeps.  Recovery re-verifies the same few
#: file versions at every cut of a campaign, so a small memo answers
#: almost every call; at most this many payloads of up to
#: ``MAX_FILE_SIZE`` bytes stay alive.
CHECKSUM_MEMO_SIZE = 256

#: :func:`checksum` memoized by payload content.  A pure function of
#: the bytes, so torn or corrupt data still gets its own, right value.
_memo_checksum = functools.lru_cache(maxsize=CHECKSUM_MEMO_SIZE)(checksum)


def file_checksum(hashed: int, data: bytes) -> int:
    """Inode checksum binding a file's *name* to its data.

    Folding the directory entry's name hash into the stored checksum
    makes cross-wiring detectable under device fault injection
    (:mod:`repro.inject`): a bit flip in the entry's name word — or a
    ref flip that points the entry at some *other* valid inode — fails
    verification at mount instead of surfacing a clean-looking file
    under the wrong name.
    """
    return (_memo_checksum(bytes(data)) ^ hashed * 0x9E3779B97F4A7C15) % (
        1 << 64
    )


@dataclass(frozen=True)
class RecoveredFile:
    """One file reconstructed from persistent state."""

    name_hash: int
    data: bytes


class MiniFs:
    """A miniature persistent filesystem (single root directory)."""

    def __init__(
        self,
        machine: Machine,
        inodes: int = 32,
        data_blocks: int = 64,
        dir_slots: int = 32,
        lock_kind: str = "mcs",
        race_free: bool = True,
    ) -> None:
        if min(inodes, data_blocks, dir_slots) <= 0:
            raise ReproError("filesystem geometry must be positive")
        self._race_free = race_free
        self._inodes = inodes
        self._data_blocks = data_blocks
        self._dir_slots = dir_slots
        self._inode_base = machine.persistent_heap.malloc(inodes * INODE_BYTES)
        self._data_base = machine.persistent_heap.malloc(
            data_blocks * BLOCK_SIZE
        )
        self._dir_base = machine.persistent_heap.malloc(
            dir_slots * ENTRY_BYTES
        )
        self._lock = make_lock(machine, lock_kind)
        # Volatile free-space state (rebuilt from reachability at mount).
        self._free_inodes = list(range(inodes - 1, -1, -1))
        self._free_blocks = list(range(data_blocks - 1, -1, -1))
        # Free lists are Python-side state read by thread bodies, so
        # snapshot replay must rewind them with the machine.
        machine.register_state(
            lambda: (list(self._free_inodes), list(self._free_blocks)),
            self._restore_free_lists,
        )

    def _restore_free_lists(self, state: tuple) -> None:
        free_inodes, free_blocks = state
        self._free_inodes = list(free_inodes)
        self._free_blocks = list(free_blocks)

    # -- address helpers ----------------------------------------------------

    def _inode_addr(self, index: int) -> int:
        return self._inode_base + index * INODE_BYTES

    def _block_addr(self, index: int) -> int:
        return self._data_base + index * BLOCK_SIZE

    def _entry_addr(self, slot: int) -> int:
        return self._dir_base + slot * ENTRY_BYTES

    # -- volatile allocation --------------------------------------------------

    def _alloc_inode(self) -> int:
        if not self._free_inodes:
            raise ReproError("out of inodes")
        return self._free_inodes.pop()

    def _alloc_blocks(self, count: int) -> List[int]:
        if len(self._free_blocks) < count:
            raise ReproError("out of data blocks")
        return [self._free_blocks.pop() for _ in range(count)]

    def _release_inode(self, index: int, blocks: List[int]) -> None:
        self._free_inodes.append(index)
        self._free_blocks.extend(blocks)

    # -- critical-section discipline ------------------------------------------

    def _enter(self, ctx: ThreadContext) -> OpGen:
        """Acquire the lock; barrier after acquisition (race-free rule)."""
        yield from self._lock.acquire(ctx)
        if self._race_free:
            yield from ctx.persist_barrier()

    def _exit(self, ctx: ThreadContext) -> OpGen:
        """Barrier before release (race-free rule); release the lock."""
        if self._race_free:
            yield from ctx.persist_barrier()
        yield from self._lock.release(ctx)

    # -- directory helpers (simulated accesses) -------------------------------

    def _find_entry(self, ctx: ThreadContext, hashed: int) -> OpGen:
        """Return (slot, ref) for the live entry with this name, or the
        first free slot with ref 0."""
        free_slot = None
        for slot in range(self._dir_slots):
            addr = self._entry_addr(slot)
            ref = yield from ctx.load(addr + ENTRY_REF)
            if ref == 0:
                if free_slot is None:
                    free_slot = slot
                continue
            entry_hash = yield from ctx.load(addr + ENTRY_NAME)
            if entry_hash == hashed:
                return slot, ref
        if free_slot is None:
            raise ReproError("directory full")
        return free_slot, 0

    def _write_file_body(
        self, ctx: ThreadContext, hashed: int, data: bytes
    ) -> OpGen:
        """Write data + a fresh invalid inode; returns (inode_idx, blocks).

        Ends with the inode published valid behind two barriers, ready
        for a directory swing.  The stored checksum binds the owning
        name hash (see :func:`file_checksum`).
        """
        block_count = -(-len(data) // BLOCK_SIZE) if data else 0
        blocks = self._alloc_blocks(block_count)
        inode = self._alloc_inode()
        for position, block in enumerate(blocks):
            chunk = data[position * BLOCK_SIZE : (position + 1) * BLOCK_SIZE]
            yield from ctx.store_bytes(self._block_addr(block), chunk)
        inode_addr = self._inode_addr(inode)
        yield from ctx.store(inode_addr + INODE_SIZE, len(data))
        yield from ctx.store(
            inode_addr + INODE_CHECKSUM, file_checksum(hashed, data)
        )
        for position in range(DIRECT_BLOCKS):
            pointer = blocks[position] + 1 if position < len(blocks) else 0
            yield from ctx.store(
                inode_addr + INODE_BLOCKS + 8 * position, pointer
            )
        yield from ctx.persist_barrier()  # contents before validity
        yield from ctx.store(inode_addr + INODE_VALID, 1)
        yield from ctx.persist_barrier()  # validity before publication
        return inode, blocks

    # -- operations --------------------------------------------------------

    def create(self, ctx: ThreadContext, name: str, data: bytes) -> OpGen:
        """Create a file (fails if it exists)."""
        yield from self._write_named(ctx, name, data, expect_existing=False)

    def write(self, ctx: ThreadContext, name: str, data: bytes) -> OpGen:
        """Replace a file's contents via shadow update (creates if new)."""
        yield from self._write_named(ctx, name, data, expect_existing=None)

    def _write_named(
        self,
        ctx: ThreadContext,
        name: str,
        data: bytes,
        expect_existing: Optional[bool],
    ) -> OpGen:
        if len(data) > MAX_FILE_SIZE:
            raise ReproError(
                f"file of {len(data)} bytes exceeds max {MAX_FILE_SIZE}"
            )
        hashed = name_hash(name)
        yield from self._enter(ctx)
        slot, old_ref = yield from self._find_entry(ctx, hashed)
        if expect_existing is False and old_ref:
            yield from self._exit(ctx)
            raise ReproError(f"file {name!r} already exists")
        if expect_existing is True and not old_ref:
            yield from self._exit(ctx)
            raise ReproError(f"file {name!r} does not exist")
        inode, blocks = yield from self._write_file_body(ctx, hashed, data)
        entry_addr = self._entry_addr(slot)
        if not old_ref:
            yield from ctx.store(entry_addr + ENTRY_NAME, hashed)
            yield from ctx.persist_barrier()  # name before publication
        # The atomic publication / shadow swing.
        yield from ctx.store(entry_addr + ENTRY_REF, inode + 1)
        if old_ref:
            # Reclaim the shadowed version's space (volatile-only state;
            # durable truth is reachability from the directory).
            old_inode = old_ref - 1
            old_blocks = yield from self._read_block_list(ctx, old_inode)
            yield from ctx.persist_barrier()  # swing before invalidation
            yield from ctx.store(self._inode_addr(old_inode) + INODE_VALID, 0)
            self._release_inode(old_inode, old_blocks)
        yield from self._exit(ctx)
        yield from ctx.mark("fs:write")

    def _read_block_list(self, ctx: ThreadContext, inode: int) -> OpGen:
        blocks = []
        inode_addr = self._inode_addr(inode)
        for position in range(DIRECT_BLOCKS):
            pointer = yield from ctx.load(
                inode_addr + INODE_BLOCKS + 8 * position
            )
            if pointer:
                blocks.append(pointer - 1)
        return blocks

    def read(self, ctx: ThreadContext, name: str) -> OpGen:
        """Return the file's contents, or None when absent."""
        hashed = name_hash(name)
        yield from self._lock.acquire(ctx)
        _, ref = yield from self._find_entry(ctx, hashed)
        data = None
        if ref:
            inode_addr = self._inode_addr(ref - 1)
            size = yield from ctx.load(inode_addr + INODE_SIZE)
            chunks = []
            remaining = size
            for position in range(DIRECT_BLOCKS):
                if remaining <= 0:
                    break
                pointer = yield from ctx.load(
                    inode_addr + INODE_BLOCKS + 8 * position
                )
                take = min(remaining, BLOCK_SIZE)
                chunk = yield from ctx.load_bytes(
                    self._block_addr(pointer - 1), take
                )
                chunks.append(chunk)
                remaining -= take
            data = b"".join(chunks)
        yield from self._lock.release(ctx)
        return data

    def unlink(self, ctx: ThreadContext, name: str) -> OpGen:
        """Remove a file; returns True when it existed."""
        hashed = name_hash(name)
        yield from self._enter(ctx)
        slot, ref = yield from self._find_entry(ctx, hashed)
        existed = bool(ref)
        if ref:
            # Atomic un-publication; space reclaimed afterwards.
            yield from ctx.store(self._entry_addr(slot) + ENTRY_REF, 0)
            inode = ref - 1
            blocks = yield from self._read_block_list(ctx, inode)
            yield from ctx.persist_barrier()  # unlink before invalidation
            yield from ctx.store(self._inode_addr(inode) + INODE_VALID, 0)
            self._release_inode(inode, blocks)
        yield from self._exit(ctx)
        return existed

    # -- recovery ---------------------------------------------------------

    def _recover_entry(
        self, image: NvramImage, slot: int
    ) -> Optional[RecoveredFile]:
        """Reconstruct directory slot ``slot``; None when unpublished.

        Raises:
            RecoveryError: on any inconsistency a correct persistency
                discipline makes impossible — a published entry whose
                inode is invalid or whose data fails its checksum.
        """
        entry = image.read_words(self._entry_addr(slot), ENTRY_BYTES // 8)
        ref = entry[ENTRY_REF // 8]
        if ref == 0:
            return None
        if ref > self._inodes:
            raise RecoveryError(f"entry {slot} references bad inode {ref}")
        hashed = entry[ENTRY_NAME // 8]
        if hashed == 0:
            raise RecoveryError(f"entry {slot} published without a name")
        inode = image.read_words(self._inode_addr(ref - 1), INODE_BYTES // 8)
        if inode[INODE_VALID // 8] != 1:
            raise RecoveryError(
                f"entry {slot} references invalid inode {ref - 1}"
            )
        size = inode[INODE_SIZE // 8]
        if size > MAX_FILE_SIZE:
            raise RecoveryError(f"inode {ref - 1} has bad size {size}")
        chunks = []
        remaining = size
        for position in range(DIRECT_BLOCKS):
            if remaining <= 0:
                break
            pointer = inode[INODE_BLOCKS // 8 + position]
            if pointer == 0 or pointer > self._data_blocks:
                raise RecoveryError(
                    f"inode {ref - 1} has bad block pointer {pointer}"
                )
            take = min(remaining, BLOCK_SIZE)
            chunks.append(
                image.read_bytes(self._block_addr(pointer - 1), take)
            )
            remaining -= take
        data = b"".join(chunks)
        if file_checksum(hashed, data) != inode[INODE_CHECKSUM // 8]:
            raise RecoveryError(
                f"file in entry {slot} failed its checksum (torn data or "
                f"mis-bound name)"
            )
        return RecoveredFile(name_hash=hashed, data=data)

    def recover(self, image: NvramImage) -> Dict[int, RecoveredFile]:
        """Mount a failure-state image: return files by name hash.

        Raises:
            RecoveryError: on any inconsistency a correct persistency
                discipline makes impossible — a published entry whose
                inode is invalid or whose data fails its checksum.
        """
        files: Dict[int, RecoveredFile] = {}
        for slot in range(self._dir_slots):
            recovered = self._recover_entry(image, slot)
            if recovered is None:
                continue
            if recovered.name_hash in files:
                raise RecoveryError(
                    f"duplicate directory entry for {recovered.name_hash}"
                )
            files[recovered.name_hash] = recovered
        return files

    def recover_report(self, image: NvramImage) -> RecoveryReport:
        """Detect-and-degrade mount: intact files plus quarantine diagnoses.

        Each directory slot is reconstructed independently; a slot whose
        metadata or data is inconsistent — whether from a persistency
        violation or an injected device fault (:mod:`repro.inject`) — is
        quarantined with the failed invariant, never mounted.  The
        BPFS-style bottom-up checksums make every torn or corrupted file
        body detectable.
        """
        files: Dict[int, RecoveredFile] = {}
        quarantined: List[FaultDiagnosis] = []
        for slot in range(self._dir_slots):
            try:
                recovered = self._recover_entry(image, slot)
            except RecoveryError as exc:
                quarantined.append(
                    FaultDiagnosis(
                        kind="entry",
                        location=f"directory slot {slot}",
                        detail=str(exc),
                    )
                )
                continue
            if recovered is None:
                continue
            if recovered.name_hash in files:
                quarantined.append(
                    FaultDiagnosis(
                        kind="duplicate",
                        location=f"directory slot {slot}",
                        detail=(
                            f"second entry for name hash "
                            f"{recovered.name_hash:#x}; first kept"
                        ),
                    )
                )
                continue
            files[recovered.name_hash] = recovered
        return RecoveryReport(
            state=files,
            quarantined=tuple(quarantined),
            repairable=True,
            repair_actions=self.repair_plan(image).actions,
        )

    # -- repair -----------------------------------------------------------

    def repair_plan(self, image: NvramImage) -> RepairPlan:
        """Plan the mutating repair for a crash image.

        Two fixes, in barrier-separated phases:

        1. **Un-publish broken entries.**  Every directory slot that
           fails to mount (torn file, invalid inode, bad metadata) or
           duplicates an earlier slot's name gets its inode-ref zeroed —
           the same single atomic persist ``unlink`` uses, turning the
           slot back into free space.
        2. **Invalidate orphan inodes.**  Any valid inode not referenced
           by a surviving live entry (e.g. published by a create whose
           directory swing never persisted, or stranded by phase 1) has
           its valid flag zeroed, completing the interrupted
           create/unlink.  Ordering this after the un-publications means
           a nested crash can never invalidate an inode that a still-
           published entry needs.

        Both fixes only remove unreachable or unmountable state, so the
        repaired image mounts a subset of the files the crash image
        could — never a torn or cross-wired one.
        """
        unpublish: List[RepairStep] = []
        actions: List[str] = []
        surviving: Dict[int, int] = {}
        seen_names: Dict[int, int] = {}
        for slot in range(self._dir_slots):
            entry_addr = self._entry_addr(slot)
            ref = image.read(entry_addr + ENTRY_REF, 8)
            if ref == 0:
                continue
            try:
                recovered = self._recover_entry(image, slot)
            except RecoveryError as exc:
                actions.append(f"un-publish directory slot {slot} ({exc})")
                unpublish.append(RepairStep(entry_addr + ENTRY_REF, 0))
                continue
            if recovered.name_hash in seen_names:
                actions.append(
                    f"un-publish directory slot {slot} (duplicate of slot "
                    f"{seen_names[recovered.name_hash]})"
                )
                unpublish.append(RepairStep(entry_addr + ENTRY_REF, 0))
                continue
            seen_names[recovered.name_hash] = slot
            surviving[ref - 1] = slot
        invalidate: List[RepairStep] = []
        for inode in range(self._inodes):
            inode_addr = self._inode_addr(inode)
            if image.read(inode_addr + INODE_VALID, 8) != 1:
                continue
            if inode not in surviving:
                actions.append(f"invalidate orphan inode {inode}")
                invalidate.append(RepairStep(inode_addr + INODE_VALID, 0))
        phases = tuple(
            tuple(phase) for phase in (unpublish, invalidate) if phase
        )
        if not phases:
            return RepairPlan()
        return RepairPlan(actions=tuple(actions), phases=phases)

    def repair(self, ctx: ThreadContext, image: NvramImage) -> OpGen:
        """Execute :meth:`repair_plan` as an instrumented program."""
        plan = self.repair_plan(image)
        yield from plan.emit(ctx)
        return plan
