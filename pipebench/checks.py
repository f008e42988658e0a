"""Expected outputs of the benchmark workloads, derived apart from the program.

The compiled DAG is the hand-derived golden travel DAG plus five nodes and
seven edges per synthetic copy, which follow from the compile rules. Truth
vectors are the hand-listed seed sets of each regime closed upward by a plain
DFS over the expected edges. Nothing here calls the program.
"""

from __future__ import annotations

import json
from pathlib import Path

from gen import ME, copy_ids

GOLDEN_DAG = Path(__file__).resolve().parent.parent / "tests" / "golden" / "travel_hierarchy.json"

# Concept nodes a snapshot of each regime seeds: entities touched by a
# context-dependent triple (the observer excluded) and the reified instances
# of the triples that hold. Regime 0 takes the train, regime 1 walks with a
# friend.
REGIME_SEEDS = (
    frozenset({
        "entity:train_1", "entity:sitting", "entity:take_train", "entity:travel_1",
        "entity:seat_1", "pinst:RestToolOf/xiaoyue/seat_1",
    }),
    frozenset({
        "entity:roads_2", "entity:walking", "entity:talking", "entity:listening",
        "entity:walk", "entity:travel_1", "entity:haonan", "pinst:FriendOf/xiaoyue/haonan",
    }),
)

# The context-dependent triples a snapshot regenerates from each regime's record.
REGIME_CONTEXT_TRIPLES = (
    frozenset({
        ("in", ME, "train_1"), ("do", ME, "sitting"), ("happenIn", "take_train", "train_1"),
        ("during", "take_train", "travel_1"), ("participate", ME, "take_train"),
        ("RestToolOf", ME, "seat_1"),
    }),
    frozenset({
        ("in", ME, "roads_2"), ("do", ME, "walking"), ("do", ME, "talking"),
        ("happenIn", "walk", "roads_2"), ("during", "walk", "travel_1"),
        ("participate", ME, "walk"), ("FriendOf", ME, "haonan"),
        ("participate", "haonan", "walk"), ("do", "haonan", "walking"),
        ("do", "haonan", "listening"),
    }),
)

PATTERN = "1EML"


def expected_dag(k: int) -> tuple[dict[str, str], set[tuple[str, str]]]:
    """(node id -> kind, child->parent edges) of the DAG compiled from k copies."""
    golden = json.loads(GOLDEN_DAG.read_text(encoding="utf-8"))
    nodes = {n["id"]: n["kind"] for n in golden["nodes"]}
    edges = {(c, p) for c, p in golden["edges"]}
    for i in range(k):
        p, t, s = copy_ids(i)
        friend, rest = f"pinst:FriendOf/{ME}/{p}", f"pinst:RestToolOf/{ME}/{s}"
        p, t, s = f"entity:{p}", f"entity:{t}", f"entity:{s}"
        nodes.update({p: "entity", t: "entity", s: "entity",
                      friend: "property_instance", rest: "property_instance"})
        edges |= {
            (p, friend), (friend, "prop:FriendOf"),
            (t, "entity:trentino"), (t, "etype:train"),
            (s, "etype:seat"), (s, rest), (rest, "prop:RestToolOf"),
        }
    return nodes, edges


def strict_ancestors(edges: set[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Every node's strict ancestors by DFS; raises ValueError on a cycle."""
    parents: dict[str, list[str]] = {}
    for c, p in edges:
        parents.setdefault(c, []).append(p)
        parents.setdefault(p, [])
    done: dict[str, frozenset[str]] = {}
    on_path: set[str] = set()

    def visit(node: str) -> frozenset[str]:
        if node in done:
            return done[node]
        if node in on_path:
            raise ValueError(f"cycle through {node!r}")
        on_path.add(node)
        acc: set[str] = set()
        for p in parents[node]:
            acc.add(p)
            acc |= visit(p)
        on_path.discard(node)
        done[node] = frozenset(acc)
        return done[node]

    for node in parents:
        visit(node)
    return done


def dag_defects(nodes: set[str], edges: set[tuple[str, str]], root: str) -> list[str]:
    """Rootedness and transitive-reduction defects found by DFS."""
    try:
        anc = strict_ancestors(edges)
    except ValueError as exc:
        return [str(exc)]
    defects = [f"{n} does not reach the root" for n in sorted(nodes)
               if n != root and root not in anc.get(n, ())]
    if anc.get(root):
        defects.append("the root has a parent")
    parents: dict[str, list[str]] = {}
    for c, p in edges:
        parents.setdefault(c, []).append(p)
    for c, p in sorted(edges):
        if any(p in anc[q] for q in parents[c] if q != p):
            defects.append(f"edge {c} -> {p} is implied by a longer path")
    return defects


def regime_truths(edges: set[tuple[str, str]]) -> tuple[frozenset[str], ...]:
    """Each regime's seed set closed upward."""
    anc = strict_ancestors(edges)
    return tuple(frozenset(s).union(*(anc[n] for n in s)) for s in REGIME_SEEDS)


def static_triples(etg_doc: dict, eg_doc: dict) -> frozenset[tuple[str, str, str]]:
    """The EG's triples whose property is not context-dependent."""
    dependent = {p["id"] for p in etg_doc["properties"] if p.get("context_dependent")}
    return frozenset(
        (t["property"], t["subject"], t["object"])
        for t in eg_doc["triples"] if t["property"] not in dependent
    )


def hierarchical_f1(preds, truths) -> float:
    """Micro-averaged F1 over the set bits of aligned 0/1 matrices."""
    inter = float((preds & truths).sum())
    n_pred, n_true = float(preds.sum()), float(truths.sum())
    if n_pred == 0 or n_true == 0 or inter == 0:
        return 0.0
    precision, recall = inter / n_pred, inter / n_true
    return 2 * precision * recall / (precision + recall)
