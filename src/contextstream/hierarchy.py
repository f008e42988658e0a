"""Compile an ETG + EG pair into the rooted concept DAG used for labeling.

Nodes stand for entity types, entities, reified object properties and their
instances; edges run child -> parent and mean is-a. Structural properties
(isA/partOf/has by default) collapse to direct edges, context-dependent
properties (Q) are excluded entirely, everything else is reified. Two rules
shape the graph:

- node rule: the observer's etype and entities get no node;
- edge rule: every edge the graphs assert is added, and one filter, once all
  nodes exist, drops each self-loop and each edge without a node at both
  ends; then every node left without a parent hangs off the root.

The result is transitively reduced.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CycleError, UnknownIdError
from .kg import COLLAPSE_PROPERTIES, EG, ETG, PropertyValue
from .report import ValidationReport

ROOT_ID = "root"
ROOT_DISPLAY_NAME = "context"


class NodeKind(str, Enum):
    ROOT = "root"
    ETYPE = "etype"
    ENTITY = "entity"
    PROPERTY = "property"
    PROPERTY_INSTANCE = "property_instance"


SourceRef = Optional[str | tuple[str, str, str]]


@dataclass(frozen=True)
class ConceptNode:
    id: str
    kind: NodeKind
    display_name: str
    source_ref: SourceRef


def etype_node_id(etype_id: str) -> str:
    return f"etype:{etype_id}"


def entity_node_id(entity_id: str) -> str:
    return f"entity:{entity_id}"


def property_node_id(prop_id: str) -> str:
    return f"prop:{prop_id}"


def pinst_node_id(prop_id: str, subject_id: str, object_id: str) -> str:
    return f"pinst:{prop_id}/{subject_id}/{object_id}"


class Hierarchy:
    """A rooted DAG of concept nodes with child->parent edges, built and
    checked in one step: a cyclic edge set raises CycleError with a witness
    loop.

    The node order (topological with lexicographic tie-break, children before
    parents) indexes label vectors; it is a pure function of the graph,
    computed when the graph is built, and a transitive reduction keeps its
    input's. Label repairs walk the edges grouped by depth (`levels`).
    """

    def __init__(self, nodes: Iterable[ConceptNode], edges: Iterable[tuple[str, str]], root: str):
        self.nodes: dict[str, ConceptNode] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        edges = sorted(set(edges))
        parents: dict[str, list[str]] = {}  # in sorted child order, so the edges come out sorted
        incoming = dict.fromkeys(self.nodes, 0)  # each node's children, for Kahn's pass below
        for child, parent in edges:
            for end in (child, parent):
                if end not in self.nodes:
                    raise ValueError(f"edge endpoint {end!r} is not a node")
            parents.setdefault(child, []).append(parent)
            incoming[parent] += 1
        if root not in self.nodes:
            raise ValueError(f"root {root!r} is not a node")
        self.root = root
        # labels.labels_from_eg's last (observer id, context triples,
        # read-only vector, entity ids without a node)
        self.last_labels: tuple | None = None
        # Kahn's pass: a node is ready once all its children are ordered
        ready = [nid for nid, deg in incoming.items() if deg == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for parent in parents.get(nid, ()):
                incoming[parent] -= 1
                if incoming[parent] == 0:
                    heapq.heappush(ready, parent)
        if len(order) != len(self.nodes):
            raise CycleError(_cycle_among(edges, {nid for nid, deg in incoming.items() if deg}))
        self.node_order: tuple[str, ...] = tuple(order)
        self._index = {nid: i for i, nid in enumerate(order)}
        # the longest path up to a parentless node; a node's parents come after it
        depth: dict[str, int] = {}
        for nid in reversed(order):
            depth[nid] = max(map(depth.__getitem__, parents.get(nid, ())), default=-1) + 1
        self._depth = np.fromiter(map(depth.__getitem__, order), np.int64, len(order))
        kinds = (NodeKind.ENTITY, NodeKind.PROPERTY_INSTANCE)
        # back-reference -> order index of the entity and property-instance
        # nodes: an entity id, or a (property, subject, object) tuple. Nodes
        # that share one keep the last (`validate_hierarchy` reports them).
        self.source_index: dict[SourceRef, int] = {
            n.source_ref: self._index[n.id] for n in self.nodes.values() if n.kind in kinds}
        self._link(parents)

    def _link(self, parents: dict[str, list[str]]) -> None:
        """Set what the parent lists give over the node order and depths:
        `edges`, sorted as the lists' keys are; `edge_index_pairs`, the edges
        as an (m, 2) int array of (child, parent) order indexes; and `levels`,
        those pairs grouped by the child's depth, shallowest first, so that
        every parent sits in an earlier level than its children."""
        self._parents = parents
        self.edges: tuple[tuple[str, str], ...] = tuple(
            (child, parent) for child, ps in parents.items() for parent in ps)
        pairs = np.fromiter(map(self._index.__getitem__, chain.from_iterable(self.edges)),
                            np.int64, 2 * len(self.edges)).reshape(-1, 2)
        self.edge_index_pairs = pairs
        # the stable sort keeps the edge order within a depth; an edgeless graph
        # makes one empty group
        depth = self._depth[pairs[:, 0]]
        by_depth = np.argsort(depth, kind="stable")
        groups = np.split(by_depth, np.flatnonzero(np.diff(depth[by_depth])) + 1)
        self.levels: tuple[tuple[np.ndarray, np.ndarray], ...] = tuple(
            (pairs[g, 0], pairs[g, 1]) for g in groups if len(g))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and set(self.edges) == set(other.edges)
            and self.root == other.root
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def parents_of(self, node_id: str) -> tuple[str, ...]:
        return tuple(self._parents.get(node_id, ()))

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownIdError(f"unknown node {node_id!r}") from None


def _cycle_among(edges: list[tuple[str, str]], left: set[str]) -> list[str]:
    """A cycle through the nodes Kahn's pass left unordered, child -> parent,
    first node equal to last. Each of them still has an unordered child, so
    walking child-ward from the smallest comes back around."""
    child_of: dict[str, str] = {}
    for child, parent in edges:  # sorted, so each parent keeps its smallest child
        if child in left:
            child_of.setdefault(parent, child)
    at: dict[str, int] = {}
    nid = min(left)
    while nid not in at:
        at[nid] = len(at)
        nid = child_of[nid]
    return [*list(at)[at[nid]:], nid][::-1]


def compile_hierarchy(
    etg: ETG,
    eg: EG,
    collapse: Sequence[str] = COLLAPSE_PROPERTIES,
) -> Hierarchy:
    """Convert the schema and instance graphs into the concept DAG.

    The ETG's `q` names the context-dependent properties, which get no node;
    `collapse` names the structural properties turned into direct edges.
    Cycles surface as CycleError with a witness path before reduction. Two
    concepts that spell one node id from different back-references
    (`likes(x/y, z)` and `likes(x, y/z)`) raise ValueError; a repeated
    triple is one node, and of a repeated entity id the first entity counts.
    """
    collapse_set = frozenset(collapse)
    # node rule: the observer's etype and entities get no node
    observer = {etype_node_id(etg.me_etype)}
    observer.update(entity_node_id(e.id) for e in eg.entities if etg.is_observer(e.etype))
    nodes: dict[str, ConceptNode] = {}
    edges: list[tuple[str, str]] = []

    def add_node(nid: str, kind: NodeKind, name: str, ref: SourceRef) -> None:
        if nid in observer:
            return
        known = nodes.setdefault(nid, ConceptNode(nid, kind, name, ref))
        if known.source_ref != ref:
            raise ValueError(f"{known.source_ref} and {ref} both compile to the node id {nid!r}")

    def name_of(entity_id: str) -> str:
        return eg.entity(entity_id).name if eg.has_entity(entity_id) else entity_id

    for et_id in sorted(etg.etypes):
        et = etg.etypes[et_id]
        add_node(etype_node_id(et_id), NodeKind.ETYPE, et.name, et_id)
        if et.parent is not None:  # inheritance links are etype-level isA assertions
            edges.append((etype_node_id(et_id), etype_node_id(et.parent)))
    for entity_id in sorted({e.id for e in eg.entities}):
        entity = eg.entity(entity_id)
        nid = entity_node_id(entity_id)
        add_node(nid, NodeKind.ENTITY, entity.name, entity_id)
        edges.append((nid, etype_node_id(entity.etype)))

    triples: dict[str, list[PropertyValue]] = {}
    for t in sorted(eg.triples, key=lambda t: (t.property, t.subject, t.object)):
        triples.setdefault(t.property, []).append(t)
    for prop_id in sorted(etg.properties.keys() - etg.q):
        prop = etg.properties[prop_id]
        if prop_id in collapse_set or prop.name in collapse_set:
            # the assertion p(A, B) and each instance p(a, b) become direct edges
            edges.append((etype_node_id(prop.domain), etype_node_id(prop.codomain)))
            edges.extend((entity_node_id(t.subject), entity_node_id(t.object))
                         for t in triples.get(prop_id, ()))
            continue
        prop_nid = property_node_id(prop_id)
        add_node(prop_nid, NodeKind.PROPERTY, prop.name, prop_id)
        edges.append((prop_nid, etype_node_id(prop.codomain)))
        for t in triples.get(prop_id, ()):
            inst_nid = pinst_node_id(prop_id, t.subject, t.object)
            add_node(inst_nid, NodeKind.PROPERTY_INSTANCE,
                     f"{prop.name}({name_of(t.subject)}, {name_of(t.object)})",
                     (prop_id, t.subject, t.object))
            edges += [(inst_nid, prop_nid), (entity_node_id(t.object), inst_nid)]

    # edge rule: drop each self-loop and each edge without a node at both ends;
    # the kept ends are the nodes' own id strings, which later lookups match faster
    kept = [(nodes[c].id, nodes[p].id) for c, p in edges if c != p and c in nodes and p in nodes]
    add_node(ROOT_ID, NodeKind.ROOT, ROOT_DISPLAY_NAME, None)
    with_parent = {child for child, _ in kept}
    kept += [(nid, ROOT_ID) for nid in nodes if nid != ROOT_ID and nid not in with_parent]
    return transitive_reduction(Hierarchy(nodes.values(), kept, ROOT_ID))


def _implied_edges(h: Hierarchy) -> list[tuple[str, str]]:
    """Edges a longer path implies: one pass from the top keeps each node's
    strict ancestors as a set of ids, and c -> p is implied exactly when p is
    an ancestor of another parent of c."""
    ancestors: dict[str, set[str]] = {}
    implied: list[tuple[str, str]] = []
    for nid in reversed(h.node_order):
        parents = h._parents.get(nid, ())
        above = set().union(*(ancestors[p] for p in parents))
        implied += [(nid, p) for p in parents if p in above]
        ancestors[nid] = above.union(parents)
    return implied


def transitive_reduction(h: Hierarchy) -> Hierarchy:
    """The unique minimal edge set with the same reachability (Aho, Garey and
    Ullman 1972); nodes, root, order and depths are `h`'s. Both graphs have
    the same descendant sets, so every node becomes ready at the same step of
    Kahn's pass; and an implied edge c -> p never sets c's depth, since p is
    an ancestor of another parent of c, which is deeper than p."""
    parents = dict(h._parents)
    for child, parent in _implied_edges(h):
        parents[child] = [p for p in parents[child] if p != parent]
    reduced = copy.copy(h)
    reduced.last_labels = None
    reduced._link(parents)
    return reduced


def validate_hierarchy(
    h: Hierarchy, etg: ETG | None = None, eg: EG | None = None
) -> ValidationReport:
    """Rootedness, reducedness and back-reference checks; a `Hierarchy` is
    acyclic as it is built. With the source graphs it also looks up each id
    of every back-reference in them (`dangling-source-ref` names the first
    one missing), and reports a node that compiling them would make but `h`
    lacks (`missing-node`): a non-observer entity's, or an instance's of a
    triple whose property has a node. A property in Q or collapsed has no
    node, so custom sets pass."""
    report = ValidationReport()
    if h.nodes[h.root].kind is not NodeKind.ROOT:
        report.add("root-kind", f"root node has kind {h.nodes[h.root].kind.value}", h.root)
    rooted = np.zeros(len(h), dtype=bool)
    rooted[h.index_of(h.root)] = True
    for child, parent in h.levels:
        rooted[child[rooted[parent]]] = True
    for nid in h.node_order:
        if nid == h.root:
            continue
        if not h.parents_of(nid):
            report.add("orphan", "non-root node has no parent", nid)
        elif not rooted[h.index_of(nid)]:
            report.add("unrooted", "root not reachable", nid)
    index = h._index
    for child, parent in sorted(_implied_edges(h), key=lambda e: (index[e[0]], index[e[1]])):
        report.add("redundant-edge", f"edge implied by a longer path: {child} -> {parent}")
    # with the source graphs, the lookup of each kind of id a back-reference names
    resolves = None if etg is None or eg is None else {
        "etype": etg.etypes.__contains__, "entity": eg.has_entity,
        "property": etg.properties.__contains__}
    seen: dict[tuple[NodeKind, SourceRef], str] = {}
    for node in h.nodes.values():
        if node.kind is NodeKind.ROOT:
            continue
        ref = node.source_ref
        if ref is None:
            report.add("missing-source-ref", "non-root node lacks a back-reference", node.id)
            continue
        triple = node.kind is NodeKind.PROPERTY_INSTANCE
        if isinstance(ref, tuple) != triple or triple and len(ref) != 3:
            need = "a 3-part ref" if triple else "an id as its ref"
            report.add("bad-source-ref", f"a {node.kind.value} node needs {need}", node.id)
            continue
        first = seen.setdefault((node.kind, ref), node.id)
        if first != node.id:
            report.add("duplicate-source-ref", f"shares its back-reference with {first}", node.id)
        if resolves is not None:
            parts = (zip(("property", "entity", "entity"), ref) if triple
                     else [(node.kind.value, ref)])
            for what, part in parts:
                if not resolves[what](part):
                    report.add("dangling-source-ref", f"unknown {what} {part!r}", node.id)
                    break
    if etg is not None and eg is not None:
        for e in eg.entities:
            if not etg.is_observer(e.etype) and (NodeKind.ENTITY, e.id) not in seen:
                report.add("missing-node", f"entity {e.id!r} has no node", entity_node_id(e.id))
        for t in eg.triples:
            ref = (t.property, t.subject, t.object)
            if (NodeKind.PROPERTY, t.property) in seen and (
                NodeKind.PROPERTY_INSTANCE, ref) not in seen:
                report.add("missing-node", f"triple {t.property}({t.subject}, {t.object}) has "
                           "no node", pinst_node_id(*ref))
    return report
