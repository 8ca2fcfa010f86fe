"""Device-level fault injection while materializing recovery images.

The cut-based failure model (:mod:`repro.core.recovery`) assumes every
surviving persist landed as one clean atomic block.  This engine relaxes
that assumption when building the image for a cut: persists can land
*torn* (an aligned prefix of device sub-writes,
:func:`repro.nvramdev.device.sub_persists`), be silently *dropped*
despite the cut saying they are durable, and landed blocks can suffer
seeded bit *corruption* biased toward the most-written blocks
(:func:`repro.harness.wear.block_write_counts` — wear).

Every decision derives from ``plan.seed`` mixed with a stable digest of
the cut (via ``zlib.crc32``, never the salted builtin ``hash``), so the
same (graph, cut, plan) triple always produces the identical faulty
image and fault log — which is what lets a corpus entry carrying a
fault plan replay to the identical :class:`~repro.inject.report.RecoveryReport`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.recovery import persist_table
from repro.harness.wear import block_write_counts
from repro.inject.plan import FaultPlan
from repro.memory.nvram import NvramImage
from repro.nvramdev.device import sub_persists


@dataclass(frozen=True)
class InjectedFault:
    """One fault the engine actually injected (the diagnosis record)."""

    kind: str  # "torn" | "dropped" | "corrupt"
    pid: int  # persist id; -1 for post-apply corruption
    addr: int  # first affected address
    detail: str

    def describe(self) -> str:
        """One-line rendering for logs and summaries."""
        return f"{self.kind} @ {self.addr:#x} (pid {self.pid}): {self.detail}"


def cut_salt(cut: Iterable[int]) -> int:
    """Stable 32-bit digest of a failure cut.

    Mixed into the plan seed so each cut of a case draws independent
    faults while staying deterministic across processes and
    ``PYTHONHASHSEED`` values.
    """
    canonical = ",".join(str(pid) for pid in sorted(cut))
    return zlib.crc32(canonical.encode("utf-8"))


def _fault_rng(plan: FaultPlan, cut: Iterable[int]) -> random.Random:
    """The seeded RNG driving every injection decision for one image."""
    return random.Random((plan.seed * 1_000_003 + cut_salt(cut)) % (1 << 32))


def _droppable(
    graph, cut_set: Set[int], scope: str
) -> Set[int]:
    """Persists the plan's drop scope allows to be silently discarded."""
    if scope == "any":
        return set(cut_set)
    # "maximal": no other cut member may depend (transitively) on it —
    # the device lost the unreferenced tail of its queue.
    maximal = set(cut_set)
    for pid in cut_set:
        maximal -= graph.ancestors(pid)
    return maximal


def materialize_faulty(
    graph,
    cut: Iterable[int],
    base_image: NvramImage,
    plan: FaultPlan,
) -> Tuple[NvramImage, List[InjectedFault]]:
    """Apply ``cut`` to a copy of ``base_image``, injecting planned faults.

    Walks the cut's persists in creation order (as
    :func:`~repro.core.recovery.image_at_cut` does) and, per persist,
    decides drop / tear / apply, applying untouched persists from the
    same cached :func:`~repro.core.recovery.persist_table`; afterwards flips
    ``plan.corrupt`` bits inside landed blocks.  Returns the image plus
    the exact faults injected — an empty list means the image is
    byte-identical to the clean cut image.
    """
    plan.validate()
    cut_set = set(cut)
    rng = _fault_rng(plan, cut_set)
    image = base_image.copy()
    faults: List[InjectedFault] = []
    budget = plan.max_faults
    droppable = (
        _droppable(graph, cut_set, plan.drop_scope) if plan.dropped else set()
    )
    landed: List[Tuple[int, bytes]] = []

    nodes = graph.nodes
    count = len(nodes)
    table = persist_table(graph, base_image)
    for pid in sorted(cut_set):
        if not 0 <= pid < count:
            continue
        node = nodes[pid]
        if budget > 0 and pid in droppable and rng.random() < plan.dropped:
            budget -= 1
            faults.append(
                InjectedFault(
                    kind="dropped",
                    pid=pid,
                    addr=node.addr,
                    detail=(
                        f"silently discarded {len(node.writes)} write(s) "
                        f"ordering declared durable"
                    ),
                )
            )
            continue
        if budget > 0 and plan.torn and rng.random() < plan.torn:
            fragments: List[Tuple[int, bytes]] = []
            for addr, data in node.writes:
                fragments.extend(sub_persists(addr, data, plan.tear_granularity))
            if len(fragments) >= 2:
                keep = rng.randrange(1, len(fragments))
                budget -= 1
                for addr, data in fragments[:keep]:
                    image.apply_raw(addr, data)
                    landed.append((addr, data))
                faults.append(
                    InjectedFault(
                        kind="torn",
                        pid=pid,
                        addr=fragments[keep][0],
                        detail=(
                            f"landed {keep}/{len(fragments)} "
                            f"{plan.tear_granularity}-byte sub-write(s)"
                        ),
                    )
                )
                continue
        slices = table[pid]
        if slices is None:
            # A write that failed validation (apply_persist raises) or
            # that spans two pages.
            image.apply_all(node.writes)
        else:
            image.apply_page_slices(slices)
        landed.extend(node.writes)

    if plan.corrupt and landed:
        granularity = image.persist_granularity
        counts = block_write_counts(landed, granularity)
        blocks = sorted(counts)
        weights = (
            [counts[block] for block in blocks] if plan.wear_bias else None
        )
        for _ in range(plan.corrupt):
            block = rng.choices(blocks, weights=weights)[0]
            addr = block * granularity + rng.randrange(granularity)
            if not base_image.base <= addr < base_image.end:
                continue  # block straddles the image boundary
            mask = 1 << rng.randrange(8)
            image.flip_bits(addr, mask)
            faults.append(
                InjectedFault(
                    kind="corrupt",
                    pid=-1,
                    addr=addr,
                    detail=(
                        f"flipped bit mask {mask:#04x} in a block written "
                        f"{counts[block]} time(s)"
                    ),
                )
            )
    return image, faults


def fault_kind_counts(faults: Iterable[InjectedFault]) -> Dict[str, int]:
    """Injected faults per kind (for summaries and reports)."""
    counts: Dict[str, int] = {}
    for fault in faults:
        counts[fault.kind] = counts.get(fault.kind, 0) + 1
    return counts
