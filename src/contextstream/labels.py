"""Indicator-vector labels over the concept DAG and the child-implies-parent
consistency constraint: construction from snapshots, checking, and repair.

Vectors are uint8 numpy arrays of 0/1 indexed by the hierarchy's node order.
A vector is consistent when every set bit's parents are set too; upward
repair adds the missing ancestors, downward repair drops unsupported bits.
Both walk the hierarchy's edges level by level (`Hierarchy.levels`): one
(child, parent) pair of index arrays per depth of the child, shallowest
first, so every parent sits in an earlier level than its children. The
repairs are bool logic, so no path count can wrap around (at 256 parents,
say).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hierarchy import Hierarchy
from .kg import EG, ETG

LabelVector = np.ndarray


@dataclass(frozen=True)
class ConsistencyViolation:
    """A hierarchy edge whose child bit is set while the parent bit is not."""

    child: str
    parent: str


def zeros(h: Hierarchy) -> LabelVector:
    return np.zeros(len(h), dtype=np.uint8)


def _as_vector(h: Hierarchy, y: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(y, dtype=np.uint8)
    if arr.shape != (len(h),):
        raise ValueError(f"label vector has shape {arr.shape}, hierarchy has {len(h)} nodes")
    return arr


def check_consistency(h: Hierarchy, y: Sequence[int] | np.ndarray) -> list[ConsistencyViolation]:
    """Every edge with child bit 1 and parent bit 0; empty means consistent."""
    arr = _as_vector(h, y)
    pairs = h.edge_index_pairs
    bad = (arr[pairs[:, 0]] == 1) & (arr[pairs[:, 1]] == 0)
    order = h.node_order
    return [
        ConsistencyViolation(order[int(c)], order[int(p)])
        for c, p in pairs[bad]
    ]


def repair_upward(h: Hierarchy, y: Sequence[int] | np.ndarray) -> LabelVector:
    """Minimal consistent superset: set bits plus all their ancestors."""
    up = _as_vector(h, y).astype(bool)
    if up.any():
        # deepest level first, so each child bit is final before it passes up
        for child, parent in reversed(h.levels):
            up[parent[up[child]]] = True
    return up.astype(np.uint8)


def repair_downward(h: Hierarchy, y: Sequence[int] | np.ndarray) -> LabelVector:
    """Maximal consistent subset: keep a bit only when all its ancestors are
    set in the input."""
    keep = _as_vector(h, y).astype(bool)
    # shallowest level first, so a child is kept exactly when every parent was
    for child, parent in h.levels:
        keep[child[~keep[parent]]] = False
    return keep.astype(np.uint8)


def labels_from_eg(h: Hierarchy, snapshot: EG, etg: ETG) -> LabelVector:
    """Ground-truth bits for a snapshot: property-instance nodes whose triple
    holds, entity nodes incident to any context-dependent triple, then upward
    closure. Both are found by their back-reference (`Hierarchy.source_index`).
    The observer and properties in Q have no node and are skipped, as are
    structural triples; a ValueError names the first other context entity
    without a node.

    The hierarchy remembers the last vector, keyed on the observer's id and
    the snapshot's context triples, the only inputs read besides `h`; a call
    that raises stores nothing. A snapshot with the same key gets a fresh
    copy of that vector: no returned array is shared with the memo or with
    another call."""
    me = snapshot.me_entity(etg)
    me_id = me.id if me is not None else None
    context = snapshot.context_triples(etg)
    last = h.last_labels
    if last is None or last[0] != me_id or last[1] != context:
        seeds = zeros(h)
        nodes = h.source_index
        for t in context:
            for entity_id in (t.subject, t.object):
                if entity_id == me_id:
                    continue
                i = nodes.get(entity_id)
                if i is None:
                    raise ValueError(f"snapshot entity {entity_id!r} has no node in the hierarchy")
                seeds[i] = 1
            i = nodes.get((t.property, t.subject, t.object))
            if i is not None:
                seeds[i] = 1
        y = repair_upward(h, seeds)
        y.flags.writeable = False
        last = h.last_labels = (me_id, context, y)
    return last[2].copy()
