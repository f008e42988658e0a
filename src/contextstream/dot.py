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


def _is_action_entity(node, etg: ETG | None, eg: EG | None) -> bool:
    if etg is None or eg is None or node.kind is not NodeKind.ENTITY:
        return False
    entity_id = str(node.source_ref)
    if not eg.has_entity(entity_id):
        return False
    lineage = etg.lineage.get(eg.entity(entity_id).etype, ())
    return any(etg.etypes[et_id].name.lower() == ACTION_ETYPE_NAME for et_id in lineage)


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(h: Hierarchy, etg: ETG | None = None, eg: EG | None = None) -> str:
    """Render the hierarchy as a DOT digraph; each node appears exactly once
    and edges point child -> parent."""
    lines = ["digraph hierarchy {", "  rankdir=BT;", '  node [shape=box, style=filled];']
    for nid in h.node_order:
        node = h.nodes[nid]
        color = ACTION_COLOR if _is_action_entity(node, etg, eg) else _KIND_COLORS[node.kind]
        lines.append(
            f'  "{_escape(nid)}" [label="{_escape(node.display_name)}", fillcolor={color}];'
        )
    for child, parent in h.edges:
        lines.append(f'  "{_escape(child)}" -> "{_escape(parent)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
