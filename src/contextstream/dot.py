"""Graphviz export of compiled hierarchies.

Colors follow the compiled-DAG legend: entities orange, entity types blue,
action entities red, reified properties and their instances green, root gray.
Telling actions apart needs the source graphs; without them every entity is
orange.
"""

from __future__ import annotations

from .hierarchy import Hierarchy, NodeKind
from .kg import EG, ETG

_KIND_COLORS = {
    NodeKind.ROOT: "lightgray",
    NodeKind.ETYPE: "lightskyblue",
    NodeKind.ENTITY: "orange",
    NodeKind.PROPERTY: "palegreen",
    NodeKind.PROPERTY_INSTANCE: "palegreen",
}

ACTION_COLOR = "indianred1"
ACTION_ETYPE_NAME = "action"


def _is_action_entity(node, etg: ETG | None, eg: EG | None, actions: list[str]) -> bool:
    """Whether `node` is an entity whose etype is or inherits one of the
    `actions` etypes."""
    if not actions or eg is None or node.kind is not NodeKind.ENTITY:
        return False
    entity_id = str(node.source_ref)
    return eg.has_entity(entity_id) and any(
        etg.is_subtype(eg.entity(entity_id).etype, a) for a in actions)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(h: Hierarchy, etg: ETG | None = None, eg: EG | None = None) -> str:
    """Render the hierarchy as a DOT digraph; each node appears exactly once
    and edges point child -> parent."""
    lines = ["digraph hierarchy {", "  rankdir=BT;", '  node [shape=box, style=filled];']
    etypes = etg.etypes.values() if etg is not None else ()
    actions = [et.id for et in etypes if et.name.lower() == ACTION_ETYPE_NAME]
    for nid in h.node_order:
        node = h.nodes[nid]
        action = _is_action_entity(node, etg, eg, actions)
        color = ACTION_COLOR if action else _KIND_COLORS[node.kind]
        lines.append(
            f'  "{_escape(nid)}" [label="{_escape(node.display_name)}", fillcolor={color}];'
        )
    for child, parent in h.edges:
        lines.append(f'  "{_escape(child)}" -> "{_escape(parent)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
