"""Canonical hashing of persist DAGs and cuts.

Two Mazurkiewicz-equivalent interleavings produce persist DAGs that are
isomorphic but not identical: persist ids (``pid``) are assigned in
trace order, which differs between equivalent traces.  What *is*
invariant is each persist's position within its own thread — per-thread
persist order is program order, which commuting independent steps never
changes.  Renaming every node to ``(thread, k)`` ("the k-th persist of
thread t") therefore maps equivalent DAGs onto the *same* labelled
graph, and hashing that labelled graph yields a key under which
equivalent interleavings collide exactly.

The checker uses these keys two ways: ``canonical_dag_key`` deduplicates
whole (interleaving, model) verification jobs across schedules, and
:func:`repro.core.recovery.cut_content_key` deduplicates individual
failure images within one.  Equal DAG keys mean equal node sets, writes,
and dependence edges — hence equal consistent-cut families and equal
failure images from any common base — so one verification covers every
colliding schedule.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.core.lattice import GraphDomain


def _node_records(graph: GraphDomain) -> List[Tuple[Tuple[int, int], bytes]]:
    """Per-pid ``(canonical name, encoded record)``, extended on demand.

    A node's record — its name, its writes, its frontier's names —
    depends only on it and lower pids, so the list lives on the graph
    (``node_records``, which the graph cuts back when a store coalesces
    into a node or the graph is truncated) and only new nodes are
    encoded: after an analyzer rewind, a key costs the nodes the new
    suffix added plus one sort and hash.
    """
    records = graph.node_records
    nodes = graph.nodes
    if len(records) < len(nodes):
        per_thread: Dict[int, int] = {}
        for (thread, k), _ in records:
            per_thread[thread] = k + 1
        for node in nodes[len(records):]:
            k = per_thread.get(node.thread, 0)
            per_thread[node.thread] = k + 1
            name = (node.thread, k)
            writes = tuple(
                (addr, bytes(data).hex()) for addr, data in node.writes
            )
            deps = tuple(sorted(records[dep][0] for dep in node.deps))
            records.append((name, repr((name, writes, deps)).encode("utf-8")))
    return records


def canonical_ids(graph: GraphDomain) -> Dict[int, Tuple[int, int]]:
    """Map each pid to its interleaving-invariant ``(thread, k)`` name.

    ``k`` counts the persists of the node's thread in pid order, which
    is trace order and therefore program order within one thread.
    """
    return {pid: name for pid, (name, _) in enumerate(_node_records(graph))}


def canonical_dag_key(graph: GraphDomain) -> str:
    """Content hash of the persist DAG under canonical node names.

    The digest covers, for every node in sorted canonical order: its
    name, its byte writes in occurrence order, and its immediate
    dependence frontier (sorted canonical names).  Two graphs share a
    key iff they are equal after renaming — which for graphs produced
    by equivalent interleavings means they order and write persistent
    memory identically.
    """
    digest = hashlib.sha256()
    # Canonical names are unique, so sorting the records sorts by name.
    for _, record in sorted(_node_records(graph)):
        digest.update(record)
    return digest.hexdigest()
