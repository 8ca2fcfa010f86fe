"""Recording operation histories in the simulation trace.

Structures record an operation by wrapping its generator body in
:func:`record_op`, which emits two MARK events — one at invocation
(operation name + arguments) and one at response (return value).  MARK
events carry no ordering effect, are skipped by every persistency
analyzer, and ride the existing trace plumbing, so recorded runs
snapshot/restore and prefix-share exactly like unrecorded ones; the
only cost is trace length (which perturbs seeded schedules, so
recording is strictly opt-in — pinned unrecorded campaigns are
byte-identical with recording off).

After a run, :func:`extract_history` pairs the markers back into
:class:`Operation` records and attributes every persist of the persist
DAG to the operation that issued it by the *invoke-interval rule*: a
persist created by thread ``t`` belongs to the latest operation on
``t`` whose invocation precedes the persist's first store in trace
order.  The durable prefix of an operation at a failure cut is then
just set containment: the operation is *persisted-complete* at a cut
iff it responded and all of its attributed persists lie inside the cut.

Marker payloads are JSON with a bytes-safe codec (``bytes`` values
become ``{"__bytes__": "<hex>"}``), so arguments like queue entries and
file contents round-trip exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import HistoryError

#: MARK prefix of an operation-invocation marker.
INVOKE_PREFIX = "h!i:"

#: MARK prefix of an operation-response marker.
RESPONSE_PREFIX = "h!r:"


def encode_value(value: object) -> object:
    """JSON-safe encoding of an operation argument or result.

    Handles None, bool, int, str, bytes (hex-wrapped), and lists/tuples
    of the same (tuples become lists).  Anything else is rejected — the
    history format must stay replayable and comparable.

    Raises:
        HistoryError: on values outside the codec's domain.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise HistoryError(
        f"cannot encode {type(value).__name__} in an operation marker"
    )


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value` (lists stay lists)."""
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        raise HistoryError(f"unexpected object in operation marker: {value}")
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def _encode_marker(prefix: str, payload: object) -> str:
    return prefix + json.dumps(
        encode_value(payload), separators=(",", ":"), sort_keys=True
    )


def _decode_marker(info: str, prefix: str) -> object:
    try:
        return decode_value(json.loads(info[len(prefix):]))
    except ValueError as exc:
        raise HistoryError(f"malformed history marker {info!r}") from exc


def record_op(ctx, name: str, args: List[object], body):
    """Run ``body`` (a generator op) bracketed by history markers.

    Emits an invoke marker (``name`` + ``args``), delegates to the
    operation's generator, then emits a response marker carrying the
    operation's return value — which is also returned, so call sites
    read ``result = yield from record_op(ctx, "append", [payload],
    log.append(ctx, payload))``.  All state is generator-local, so
    recorded bodies replay safely through snapshot/restore.
    """
    yield from ctx.mark(_encode_marker(INVOKE_PREFIX, [name, args]))
    result = yield from body
    yield from ctx.mark(_encode_marker(RESPONSE_PREFIX, result))
    return result


@dataclass(frozen=True)
class Operation:
    """One recorded operation of a history.

    ``persists`` lists the persist ids attributed to this operation by
    the invoke-interval rule; ``response_seq``/``result`` are ``None``
    for an operation whose response marker never appeared (possible
    only on truncated traces — the fuzz pipeline always runs programs
    to completion).
    """

    thread: int
    index: int
    name: str
    args: Tuple[object, ...]
    result: object
    invoke_seq: int
    response_seq: Optional[int]
    persists: Tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        """True when the operation's response marker was recorded."""
        return self.response_seq is not None

    def persisted_complete(self, cut_set) -> bool:
        """True when the op responded and all its persists are in ``cut_set``."""
        return self.complete and all(pid in cut_set for pid in self.persists)

    def describe(self) -> str:
        """One-line rendering for verdict details and logs."""
        args = ", ".join(repr(arg) for arg in self.args)
        return f"t{self.thread}#{self.index} {self.name}({args})={self.result!r}"


@dataclass
class History:
    """An extracted operation history plus unattributed persists.

    ``unattributed`` holds persist ids created outside every recorded
    operation (e.g. structure initialisation after tracing began); they
    constrain no operation's durability.
    """

    operations: List[Operation] = field(default_factory=list)
    unattributed: Tuple[int, ...] = ()

    def by_thread(self) -> Dict[int, List[Operation]]:
        """Operations grouped per thread, in program order."""
        threads: Dict[int, List[Operation]] = {}
        for op in self.operations:
            threads.setdefault(op.thread, []).append(op)
        return threads


def extract_history(trace, graph) -> History:
    """Reconstruct the operation history of a recorded run.

    Scans the trace's MARK events (only the sparse ``infos`` of its
    columnar chunks) for invoke/response pairs (per thread, strictly
    alternating — nested recorded operations are not supported), then
    attributes every persist node of ``graph`` to the operation whose
    invoke interval contains the node's first store.
    Persist ids are identical across persistency models for the same
    trace (coalescing is off and creation follows trace order), so one
    extraction is valid for any model's graph of the same run.

    Raises:
        HistoryError: on unpaired or malformed markers.
    """
    pending: Dict[int, Tuple[int, str, List[object]]] = {}
    raw: Dict[int, List[dict]] = {}
    for chunk in trace.chunks:
        for index, info in chunk.marks():
            seq = chunk.base_seq + index
            thread = chunk.threads[index]
            if info.startswith(INVOKE_PREFIX):
                if thread in pending:
                    raise HistoryError(
                        f"thread {thread} invoked an operation inside "
                        f"another at seq {seq}"
                    )
                payload = _decode_marker(info, INVOKE_PREFIX)
                if not (isinstance(payload, list) and len(payload) == 2):
                    raise HistoryError(f"malformed invoke marker at seq {seq}")
                name, args = payload
                pending[thread] = (seq, str(name), list(args))
            elif info.startswith(RESPONSE_PREFIX):
                invoked = pending.pop(thread, None)
                if invoked is None:
                    raise HistoryError(
                        f"thread {thread} responded without an invocation "
                        f"at seq {seq}"
                    )
                invoke_seq, name, args = invoked
                raw.setdefault(thread, []).append(
                    {
                        "name": name,
                        "args": args,
                        "invoke_seq": invoke_seq,
                        "response_seq": seq,
                        "result": _decode_marker(info, RESPONSE_PREFIX),
                    }
                )
    for thread, (invoke_seq, name, args) in pending.items():
        raw.setdefault(thread, []).append(
            {
                "name": name,
                "args": args,
                "invoke_seq": invoke_seq,
                "response_seq": None,
                "result": None,
            }
        )
    for ops in raw.values():
        ops.sort(key=lambda op: op["invoke_seq"])

    # Invoke-interval attribution: a persist belongs to the latest
    # operation on its thread whose invocation precedes its first store.
    persists: Dict[Tuple[int, int], List[int]] = {}
    unattributed: List[int] = []
    invoke_seqs = {
        thread: [op["invoke_seq"] for op in ops] for thread, ops in raw.items()
    }
    for node in graph.nodes:
        seqs = invoke_seqs.get(node.thread)
        if not seqs:
            unattributed.append(node.pid)
            continue
        slot = bisect_right(seqs, node.first_seq) - 1
        if slot < 0:
            unattributed.append(node.pid)
            continue
        persists.setdefault((node.thread, slot), []).append(node.pid)

    operations: List[Operation] = []
    for thread in sorted(raw):
        for index, op in enumerate(raw[thread]):
            operations.append(
                Operation(
                    thread=thread,
                    index=index,
                    name=op["name"],
                    args=tuple(op["args"]),
                    result=op["result"],
                    invoke_seq=op["invoke_seq"],
                    response_seq=op["response_seq"],
                    persists=tuple(persists.get((thread, index), ())),
                )
            )
    return History(operations=operations, unattributed=tuple(unattributed))
