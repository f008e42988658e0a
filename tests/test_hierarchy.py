from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from contextstream import hierarchy, io
from contextstream.errors import ContextStreamError, CycleError
from contextstream.hierarchy import (
    ConceptNode,
    Hierarchy,
    NodeKind,
    compile_hierarchy,
    transitive_reduction,
    validate_hierarchy,
)
from contextstream.io import load_hierarchy
from contextstream.kg import (
    COLLAPSE_PROPERTIES, EG, ETG, Entity, EntityType, ObjectPropertyDef, PropertyValue,
)
from contextstream.labels import check_consistency, repair_upward, zeros
from contextstream.learn import OnlinePerceptron, require_consistent

from conftest import (GOLDEN, codes, dfs_closure_ids, dfs_reachable_pairs, random_dag,
                      reference_compile, travel_etg_renaming, travel_etg_with_q)


def plain_node(nid: str) -> ConceptNode:
    return ConceptNode(nid, NodeKind.ENTITY, nid, nid)


def hierarchy_from_indexed(n: int, edges: set[tuple[int, int]]) -> Hierarchy:
    """Index DAG -> Hierarchy; node n is an artificial root every source
    attaches to so the rootedness invariant holds."""
    names = [f"n{i:02d}" for i in range(n)] + ["root"]
    nodes = [plain_node(name) for name in names[:-1]]
    nodes.append(ConceptNode("root", NodeKind.ROOT, "context", None))
    named = {(names[a], names[b]) for a, b in edges}
    with_parent = {a for a, _ in named}
    for i in range(n):
        if names[i] not in with_parent:
            named.add((names[i], "root"))
    return Hierarchy(nodes, named, "root")


def test_source_index_finds_nodes_by_their_back_reference(travel_hierarchy):
    """Entity and property-instance nodes are found by `source_ref` alone,
    whatever their ids spell; other kinds are not indexed."""
    nodes = [ConceptNode("pinst:a/b/c/d", NodeKind.PROPERTY_INSTANCE, "", ("a/b", "c", "d")),
             ConceptNode("pinst:p/s", NodeKind.PROPERTY_INSTANCE, "", ("p", "s", "o")),
             ConceptNode("entity:", NodeKind.ENTITY, "", "x/y"),
             ConceptNode("etype:z", NodeKind.ETYPE, "", "z")]
    h = Hierarchy([*nodes, ConceptNode("root", NodeKind.ROOT, "", None)],
                  [(n.id, "root") for n in nodes], "root")
    assert h.source_index == {("a/b", "c", "d"): h.index_of("pinst:a/b/c/d"),
                              ("p", "s", "o"): h.index_of("pinst:p/s"),
                              "x/y": h.index_of("entity:")}
    h = travel_hierarchy
    for node in h.nodes.values():
        if node.kind in (NodeKind.ENTITY, NodeKind.PROPERTY_INSTANCE):
            assert h.source_index[node.source_ref] == h.index_of(node.id)
    refs = list(h.source_index)
    assert sum(isinstance(r, str) for r in refs) == 13
    assert sum(isinstance(r, tuple) for r in refs) == 2


# -- the golden travel DAG -----------------------------------------------------

def test_compile_matches_hand_executed_golden(travel_etg, travel_eg, travel_hierarchy):
    golden = load_hierarchy(GOLDEN / "travel_hierarchy.json")
    assert set(travel_hierarchy.nodes) == set(golden.nodes)
    assert set(travel_hierarchy.edges) == set(golden.edges)
    assert travel_hierarchy == golden


def test_compile_deterministic_including_ids(travel_etg, travel_eg, travel_hierarchy):
    again = compile_hierarchy(travel_etg, travel_eg)
    assert again == travel_hierarchy
    assert again.node_order == travel_hierarchy.node_order


def test_observer_never_compiled(travel_hierarchy):
    assert "entity:xiaoyue" not in travel_hierarchy.nodes
    assert "etype:me" not in travel_hierarchy.nodes
    for child, parent in travel_hierarchy.edges:
        assert "xiaoyue" not in (child, parent)
        assert parent != "etype:me"


def test_q_properties_never_compiled(travel_etg, travel_hierarchy):
    for node in travel_hierarchy.nodes.values():
        if node.kind in (NodeKind.PROPERTY, NodeKind.PROPERTY_INSTANCE):
            ref = node.source_ref if isinstance(node.source_ref, str) else node.source_ref[0]
            assert ref not in travel_etg.q


def test_reduction_pruned_implied_entity_edge(travel_hierarchy):
    # haonan reaches Person through the FriendOf instance, so the direct
    # edge (haonan -> Person) must have been reduced away
    assert ("entity:haonan", "etype:person") not in travel_hierarchy.edges
    assert "etype:person" in dfs_closure_ids(set(travel_hierarchy.edges), {"entity:haonan"})


def test_reified_instance_reachability(travel_hierarchy):
    edges = set(travel_hierarchy.edges)
    inst = "pinst:RestToolOf/xiaoyue/seat_1"
    assert {inst, "prop:RestToolOf"} <= dfs_closure_ids(edges, {"entity:seat_1"})
    assert "prop:RestToolOf" in dfs_closure_ids(edges, {inst})


# -- small compile cases ----------------------------------------------------------

def minimal_etg(properties=(), q=None, extra_etypes=()):
    return ETG(
        [EntityType("me", "Me"), EntityType("thing", "Thing"), *extra_etypes],
        properties,
        me_etype="me",
        q=q,
    )


def test_minimal_compile_two_nodes_one_edge():
    h = compile_hierarchy(minimal_etg(), EG([], []))
    assert set(h.nodes) == {"etype:thing", "root"}
    assert set(h.edges) == {("etype:thing", "root")}


def test_q_property_leaves_no_node():
    etg = minimal_etg(
        properties=[ObjectPropertyDef("near", "near", "thing", "thing", True)],
        q=["near"],
    )
    eg = EG(
        [Entity("a", "A", "thing"), Entity("b", "B", "thing")],
        [PropertyValue("near", "a", "b")],
    )
    h = compile_hierarchy(etg, eg)
    assert all(n.kind not in (NodeKind.PROPERTY, NodeKind.PROPERTY_INSTANCE)
               for n in h.nodes.values())


def test_a_property_collapses_by_its_id_or_its_name():
    """A property whose id or name is in COLLAPSE_PROPERTIES becomes direct
    edges; any other is reified, with a node for each of its triples."""
    for prop_id, name, collapses in [("partOf", "partOf", True), ("partOf", "part of", True),
                                     ("locatedIn", "partOf", True),
                                     ("locatedIn", "locatedIn", False)]:
        etg = ETG(
            [EntityType("me", "Me"), EntityType("location", "Location")],
            [ObjectPropertyDef(prop_id, name, "location", "location", False)],
            "me",
        )
        eg = EG(
            [Entity("roads_2", "Roads 2", "location"),
             Entity("trentino", "Trentino", "location")],
            [PropertyValue(prop_id, "roads_2", "trentino")],
        )
        h = compile_hierarchy(etg, eg)
        assert (("entity:roads_2", "entity:trentino") in h.edges) is collapses
        assert (f"prop:{prop_id}" in h.nodes) is not collapses
        assert (f"pinst:{prop_id}/roads_2/trentino" in h.nodes) is not collapses


def test_entity_liked_256_times_keeps_every_ancestor():
    # the object of 256 reified likes triples has 256 instance parents that
    # all reach prop:likes; a path count modulo 256 would drop it
    etg = minimal_etg(
        properties=[ObjectPropertyDef("likes", "likes", "thing", "thing", False)],
        q=[],
    )
    fans = [Entity(f"fan{i:03d}", f"Fan {i}", "thing") for i in range(256)]
    eg = EG(
        [Entity("star", "Star", "thing"), *fans],
        [PropertyValue("likes", fan.id, "star") for fan in fans],
    )
    h = compile_hierarchy(etg, eg)
    star = h.index_of("entity:star")
    y = zeros(h)
    y[star] = 1
    up = repair_upward(h, y)
    got = {h.node_order[j] for j in np.flatnonzero(up)}
    assert got == dfs_closure_ids(set(h.edges), {"entity:star"})
    assert "prop:likes" in got
    assert ("entity:star", "etype:thing") not in h.edges
    assert check_consistency(h, up) == []
    model = OnlinePerceptron.zeros(len(h), 2)
    require_consistent(h, up)
    model.update(np.ones(2), up, model.scores(np.ones((1, 2)))[0])


def test_duplicate_triples_collapse_to_one_instance_node():
    etg = minimal_etg(
        properties=[ObjectPropertyDef("likes", "likes", "thing", "thing", False)],
        q=[],
    )
    eg = EG(
        [Entity("a", "A", "thing"), Entity("b", "B", "thing")],
        [PropertyValue("likes", "a", "b"), PropertyValue("likes", "a", "b")],
    )
    h = compile_hierarchy(etg, eg)
    instances = [n for n in h.nodes.values() if n.kind is NodeKind.PROPERTY_INSTANCE]
    assert len(instances) == 1


def test_compile_refuses_two_triples_that_spell_one_node_id():
    etg = minimal_etg(
        properties=[ObjectPropertyDef("likes", "likes", "thing", "thing", False)],
        q=[],
    )
    eg = EG(
        [Entity(eid, eid, "thing") for eid in ("x/y", "z", "x", "y/z")],
        [PropertyValue("likes", "x/y", "z"), PropertyValue("likes", "x", "y/z")],
    )
    with pytest.raises(ValueError) as exc:
        compile_hierarchy(etg, eg)
    message = str(exc.value)
    assert "('likes', 'x/y', 'z')" in message and "('likes', 'x', 'y/z')" in message
    assert "'pinst:likes/x/y/z'" in message


def test_me_touching_collapse_triples_drop_edges():
    etg = ETG(
        [EntityType("me", "Me", parent="person"), EntityType("person", "Person"),
         EntityType("object", "Object")],
        [ObjectPropertyDef("has", "has", "me", "object", False)],
        "me",
    )
    eg = EG(
        [Entity("x", "X", "me"), Entity("phone", "Phone", "object")],
        [PropertyValue("has", "x", "phone")],
    )
    h = compile_hierarchy(etg, eg)
    assert "entity:x" not in h.nodes
    assert set(h.parents_of("entity:phone")) == {"etype:object"}


def test_random_me_exclusion_property():
    rng = random.Random(5)
    for _ in range(25):
        n_types = rng.randint(2, 5)
        etypes = [EntityType("me", "Me")] + [
            EntityType(f"t{i}", f"T{i}") for i in range(n_types)
        ]
        entities = [Entity("me_ent", "MeEnt", "me")] + [
            Entity(f"e{i}", f"E{i}", f"t{rng.randrange(n_types)}")
            for i in range(rng.randint(1, 6))
        ]
        props = [
            ObjectPropertyDef("knows", "knows", f"t{rng.randrange(n_types)}",
                              f"t{rng.randrange(n_types)}", False)
        ]
        triples = [
            PropertyValue("knows", rng.choice(entities).id, rng.choice(entities).id)
            for _ in range(rng.randint(0, 6))
        ]
        h = compile_hierarchy(ETG(etypes, props, "me"), EG(entities, triples))
        entity_nodes = [n for n in h.nodes.values() if n.kind is NodeKind.ENTITY]
        assert {n.source_ref for n in entity_nodes} == {e.id for e in entities if e.etype != "me"}


# entity ids and property ids with a slash, so that instances can spell one node id
ENTITY_POOL = ("a", "b", "a/b", "b/b", "me1")
PROPERTY_POOL = ("isA", "partOf", "has", "near", "likes", "likes/a")
# three triples that each spell the instance id pinst:likes/a/b/b
SPELLED_ALIKE = (PropertyValue("likes", "a/b", "b"), PropertyValue("likes", "a", "b/b"),
                 PropertyValue("likes/a", "b", "b"))


def random_graphs(rng: random.Random):
    """A random (ETG, EG): observer subtypes, repeated entity ids (one copy
    maybe the observer's), undeclared etypes and properties, endpoints
    missing from the EG, self-loops, a custom Q (the ETG's), and properties
    that collapse by their id or by their name."""
    names = [f"t{i}" for i in range(rng.randint(1, 5))]
    etypes = [EntityType("me", "Me", parent=rng.choice([None, *names[:1]]))]
    for i, et_id in enumerate(names):
        # parents come from earlier etypes or the observer's, so no cycle
        parent = rng.choice([None, None, "me", *names[:i]]) if i else None
        etypes.append(EntityType(et_id, et_id.upper(), parent=parent))
    declared = ["me", *names]
    props = [
        ObjectPropertyDef(pid, rng.choice([pid, pid, *COLLAPSE_PROPERTIES]),
                          rng.choice(declared), rng.choice(declared), rng.random() < 0.2)
        for pid in rng.sample(PROPERTY_POOL, rng.randint(0, len(PROPERTY_POOL)))
    ]
    own_q = rng.choice([None, []])
    entities = [
        Entity(rng.choice(ENTITY_POOL), f"N{i}", rng.choice([*declared, "undeclared"]))
        for i in range(rng.randint(0, 8))
    ]
    triples = [
        PropertyValue(rng.choice(PROPERTY_POOL), rng.choice([*ENTITY_POOL, "gone"]),
                      rng.choice([*ENTITY_POOL, "gone"]))
        for _ in range(rng.randint(0, 10))
    ]
    if rng.random() < 0.5:
        triples += rng.sample(SPELLED_ALIKE, 2)
    prop_ids = sorted(p.id for p in props)
    q = rng.choice([None, rng.sample(prop_ids, rng.randint(0, len(prop_ids)))])
    etg = ETG(etypes, props, "me", q=own_q if q is None else q)
    return etg, EG(entities, triples)


def compiled_or_refused(compile_fn, etg, eg):
    try:
        return io.hierarchy_to_dict(compile_fn(etg, eg))
    except (ValueError, ContextStreamError) as exc:
        return type(exc), str(exc)


def test_compile_matches_the_reference_compiler_on_random_graphs():
    """The node rule and the one edge filter give the reference's document,
    or its exception type and message, on every seeded random pair."""
    rng = random.Random(2020)
    outcomes = {"ok": 0, "cycle": 0, "spelled twice": 0}
    for _ in range(400):
        etg, eg = random_graphs(rng)
        got = compiled_or_refused(compile_hierarchy, etg, eg)
        assert got == compiled_or_refused(reference_compile, etg, eg), (
            etg.etypes, etg.properties, etg.q, eg.entities, eg.triples)
        if isinstance(got, dict):
            outcomes["ok"] += 1
        else:
            outcomes["cycle" if got[0] is CycleError else "spelled twice"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_compile_refuses_a_q_that_names_an_undeclared_property():
    """Q comes from the ETG alone, which refuses such a Q as it is built."""
    with pytest.raises(ValueError, match=r"q lists unknown properties: \['nonsense'\]"):
        minimal_etg(properties=[ObjectPropertyDef("likes", "likes", "thing", "thing", False)],
                    q=["likes", "nonsense"])


# -- transitive reduction ----------------------------------------------------------

def test_reduction_textbook_chain():
    h = hierarchy_from_indexed(3, {(0, 1), (1, 2), (0, 2)})
    reduced = transitive_reduction(h)
    assert ("n00", "n02") not in reduced.edges
    assert ("n00", "n01") in reduced.edges
    assert ("n01", "n02") in reduced.edges


def test_reduction_idempotent_on_reduced_dag():
    h = hierarchy_from_indexed(4, {(0, 1), (1, 2), (2, 3)})
    reduced = transitive_reduction(h)
    assert reduced == transitive_reduction(reduced)
    assert set(reduced.edges) == set(h.edges)


def test_reduction_preserves_reachability_against_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 30)
        edges = random_dag(rng, n, p=rng.uniform(0.05, 0.4))
        h = hierarchy_from_indexed(n, edges)
        reduced = transitive_reduction(h)
        assert set(reduced.nodes) == set(h.nodes)
        index = {nid: i for i, nid in enumerate(sorted(h.nodes))}
        before = dfs_reachable_pairs(
            len(h.nodes), {(index[a], index[b]) for a, b in h.edges}
        )
        after = dfs_reachable_pairs(
            len(h.nodes), {(index[a], index[b]) for a, b in reduced.edges}
        )
        assert before == after
        # upward repair on the reduced DAG sets each node's ancestors in h
        for nid in h.nodes:
            y = zeros(reduced)
            y[reduced.index_of(nid)] = 1
            got = {reduced.node_order[j] for j in np.flatnonzero(repair_upward(reduced, y))}
            assert got == dfs_closure_ids(set(h.edges), {nid})
        # no removable edge: dropping any edge loses reachability
        reduced_set = set(reduced.edges)
        for edge in reduced.edges:
            thinner = {(index[a], index[b]) for a, b in reduced_set - {edge}}
            assert (index[edge[0]], index[edge[1]]) not in dfs_reachable_pairs(
                len(h.nodes), thinner
            )


def test_reduction_drops_shortcut_past_256_parents():
    # n000 has 256 parents that all reach n257, so the shortcut n000 -> n257
    # is implied 256 times; a path count modulo 256 would keep it
    edges = {(0, k) for k in range(1, 257)} | {(k, 257) for k in range(1, 257)} | {(0, 257)}
    h = hierarchy_from_indexed(258, edges)
    assert ("n00", "n257") in h.edges
    reduced = transitive_reduction(h)
    assert set(reduced.edges) == set(h.edges) - {("n00", "n257")}
    findings = list(validate_hierarchy(h))
    assert [f.code for f in findings] == ["redundant-edge"]
    assert "n00 -> n257" in findings[0].message


def test_reduction_rejects_cycles_with_witness():
    """A cyclic graph never reaches the reduction: building it raises."""
    nodes = [plain_node(x) for x in "abc"] + [ConceptNode("root", NodeKind.ROOT, "context", None)]
    with pytest.raises(CycleError) as exc:
        Hierarchy(nodes, {("a", "b"), ("b", "c"), ("c", "a")}, "root")
    assert len(exc.value.path) >= 3


def test_cycle_witness_is_a_closed_walk_over_input_edges():
    """Random cycles with a DAG hanging above and below: the witness starts
    and ends on one node, steps along input edges only and repeats nothing
    in between."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(4, 40)
        edges = random_dag(rng, n, p=rng.uniform(0.05, 0.3))
        ring = rng.sample(range(1, n - 1), rng.randint(2, min(6, n - 2)))
        edges |= {(a, b) for a, b in zip(ring, ring[1:] + ring[:1])}
        edges |= {(0, ring[0]), (ring[-1], n - 1)}  # a node below and one above
        with pytest.raises(CycleError) as exc:
            hierarchy_from_indexed(n, edges)
        path = exc.value.path
        assert path[0] == path[-1] and len(set(path)) == len(path) - 1 >= 2
        # the root is on no cycle, so the input edges that matter are these
        assert set(zip(path, path[1:])) <= {(f"n{a:02d}", f"n{b:02d}") for a, b in edges}


def test_reduction_keeps_the_input_order_object(travel_etg, travel_eg, monkeypatch):
    """Kahn's pass runs once per compile: the reduced graph's order is the
    very tuple the input computed."""
    inputs = []
    reduce = hierarchy.transitive_reduction
    monkeypatch.setattr(hierarchy, "transitive_reduction", lambda h: inputs.append(h) or reduce(h))
    compiled = compile_hierarchy(travel_etg, travel_eg)
    assert len(inputs) == 1 and len(inputs[0].edges) > len(compiled.edges)
    assert compiled.node_order is inputs[0].node_order
    assert reduce(inputs[0]).node_order is inputs[0].node_order
    assert compiled.node_order == Hierarchy(compiled.nodes.values(), compiled.edges,
                                            compiled.root).node_order


# -- hierarchy validation -----------------------------------------------------------

def test_validate_compile_output_is_clean(travel_hierarchy, travel_etg, travel_eg):
    assert validate_hierarchy(travel_hierarchy, travel_etg, travel_eg).ok


def test_validate_detects_orphan():
    nodes = [plain_node("a"), plain_node("b"), ConceptNode("root", NodeKind.ROOT, "context", None)]
    h = Hierarchy(nodes, {("a", "root")}, "root")
    report = validate_hierarchy(h)
    assert "orphan" in codes(report)
    assert any(f.subject == "b" for f in report)


def test_validate_detects_redundant_edge():
    nodes = [plain_node(x) for x in "ab"] + [ConceptNode("root", NodeKind.ROOT, "context", None)]
    h = Hierarchy(nodes, {("a", "b"), ("b", "root"), ("a", "root")}, "root")
    report = validate_hierarchy(h)
    assert codes(report) == ["redundant-edge"]


def test_validate_detects_cycle():
    """A cyclic graph is refused as it is built, so no validation sees one."""
    nodes = [plain_node(x) for x in "ab"] + [ConceptNode("root", NodeKind.ROOT, "context", None)]
    with pytest.raises(CycleError) as exc:
        Hierarchy(nodes, {("a", "b"), ("b", "a")}, "root")
    assert exc.value.path == ["a", "b", "a"]


def dangling(report) -> list[tuple[str, str]]:
    """(subject, message) of each `dangling-source-ref` finding; a
    hierarchy built by hand also lacks most nodes the travel graphs make."""
    return [(f.subject, f.message) for f in report if f.code == "dangling-source-ref"]


def test_validate_detects_dangling_source_ref(travel_etg, travel_eg):
    nodes = [
        ConceptNode("entity:ghost", NodeKind.ENTITY, "Ghost", "ghost"),
        ConceptNode("root", NodeKind.ROOT, "context", None),
    ]
    h = Hierarchy(nodes, {("entity:ghost", "root")}, "root")
    report = validate_hierarchy(h, travel_etg, travel_eg)
    assert dangling(report) == [("entity:ghost", "unknown entity 'ghost'")]


@pytest.mark.parametrize("kind, ref, message", [
    (NodeKind.ETYPE, "ghost", "unknown etype 'ghost'"),
    (NodeKind.PROPERTY, "ghost", "unknown property 'ghost'"),
    (NodeKind.PROPERTY_INSTANCE, ("ghost", "phantom", "spectre"), "unknown property 'ghost'"),
    (NodeKind.PROPERTY_INSTANCE, ("FriendOf", "phantom", "spectre"), "unknown entity 'phantom'"),
    (NodeKind.PROPERTY_INSTANCE, ("FriendOf", "xiaoyue", "spectre"), "unknown entity 'spectre'"),
], ids=["etype", "property", "instance-property", "instance-subject", "instance-object"])
def test_validate_names_the_first_unknown_id_of_a_back_reference(kind, ref, message,
                                                                  travel_etg, travel_eg):
    """A node's back-reference is looked up in the source graphs, as an
    entity's is above: an instance's property, then its subject, then its
    object."""
    nodes = [ConceptNode("x", kind, "X", ref), ConceptNode("root", NodeKind.ROOT, "context", None)]
    report = validate_hierarchy(Hierarchy(nodes, {("x", "root")}, "root"), travel_etg, travel_eg)
    assert dangling(report) == [("x", message)]


def test_validate_detects_a_root_of_another_kind():
    nodes = [plain_node("a"), plain_node("top")]
    report = validate_hierarchy(Hierarchy(nodes, {("a", "top")}, "top"))
    assert [(f.code, f.subject, f.message) for f in report] == [
        ("root-kind", "top", "root node has kind entity")]


def test_validate_detects_a_node_the_root_does_not_reach():
    """`b` has no parent, so `a`, its child, has one but no path to the root."""
    nodes = [plain_node("a"), plain_node("b"), ConceptNode("root", NodeKind.ROOT, "context", None)]
    report = validate_hierarchy(Hierarchy(nodes, {("a", "b")}, "root"))
    assert sorted((f.code, f.subject, f.message) for f in report) == [
        ("orphan", "b", "non-root node has no parent"), ("unrooted", "a", "root not reachable")]


def test_validate_detects_a_node_without_a_back_reference(travel_etg, travel_eg):
    nodes = [ConceptNode("entity:a", NodeKind.ENTITY, "A", None),
             ConceptNode("root", NodeKind.ROOT, "context", None)]
    h = Hierarchy(nodes, {("entity:a", "root")}, "root")
    assert [(f.code, f.subject, f.message) for f in validate_hierarchy(h)] == [
        ("missing-source-ref", "entity:a", "non-root node lacks a back-reference")]
    assert not dangling(validate_hierarchy(h, travel_etg, travel_eg))


def test_validate_detects_a_shared_back_reference():
    nodes = [ConceptNode("entity:a", NodeKind.ENTITY, "A", "a"),
             ConceptNode("entity:b", NodeKind.ENTITY, "B", "a"),
             ConceptNode("etype:a", NodeKind.ETYPE, "A", "a"),
             ConceptNode("root", NodeKind.ROOT, "context", None)]
    h = Hierarchy(nodes, {(n.id, "root") for n in nodes[:-1]}, "root")
    report = validate_hierarchy(h)
    assert codes(report) == ["duplicate-source-ref"]
    assert [(f.subject, f.message) for f in report] == [
        ("entity:b", "shares its back-reference with entity:a")]


def test_validate_detects_a_ref_of_the_wrong_shape():
    nodes = [ConceptNode("entity:a", NodeKind.ENTITY, "A", ("p", "s", "o")),
             ConceptNode("pinst:p", NodeKind.PROPERTY_INSTANCE, "p", "p"),
             ConceptNode("pinst:q", NodeKind.PROPERTY_INSTANCE, "q", ("q", "s")),
             ConceptNode("root", NodeKind.ROOT, "context", None)]
    h = Hierarchy(nodes, {(n.id, "root") for n in nodes[:-1]}, "root")
    assert [(f.code, f.subject) for f in validate_hierarchy(h)] == [
        ("bad-source-ref", "entity:a"), ("bad-source-ref", "pinst:p"),
        ("bad-source-ref", "pinst:q")]


def test_validate_detects_nodes_a_compile_of_the_sources_would_make(travel_etg, travel_eg):
    """A hierarchy compiled from the travel EG without one entity and one
    FriendOf triple lacks their nodes; the observer and the triples of
    collapsed properties (partOf, has) need none."""
    stale = EG([e for e in travel_eg.entities if e.id != "talking"],
               [t for t in travel_eg.triples if t.property != "FriendOf"])
    h = compile_hierarchy(travel_etg, stale)
    assert validate_hierarchy(h, travel_etg, stale).ok
    report = validate_hierarchy(h, travel_etg, travel_eg)
    assert [(f.code, f.subject, f.message) for f in report] == [
        ("missing-node", "entity:talking", "entity 'talking' has no node"),
        ("missing-node", "pinst:FriendOf/xiaoyue/haonan",
         "triple FriendOf(xiaoyue, haonan) has no node"),
    ]


# `collapse` names a property of the travel ETG after a structural one, so
# that it collapses by its name
@pytest.mark.parametrize("q, collapse", [
    (["near", "use", "interact", "in", "do", "happenIn", "during", "participate", "FriendOf"],
     {}),
    (None, {"FriendOf": "isA"}),
    (None, {"RestToolOf": "has"}),
])
def test_validate_accepts_a_compile_with_custom_q_or_collapse(q, collapse, travel_etg, travel_eg,
                                                              tmp_path):
    """A hierarchy compiled under an ETG document that carries a custom `q`,
    or that collapses another property, checks clean against the travel
    ETG, whose Q and collapsed properties differ."""
    path = (travel_etg_renaming(tmp_path, collapse) if q is None
            else travel_etg_with_q(tmp_path, q))
    h = compile_hierarchy(io.load_etg(path), travel_eg)
    assert {f"prop:{p}" for p in collapse}.isdisjoint(h.nodes)
    assert validate_hierarchy(h, travel_etg, travel_eg).ok


# -- display names ------------------------------------------------------------------

def test_display_names(travel_hierarchy):
    h = travel_hierarchy
    assert h.nodes["root"].display_name == "context"
    assert h.nodes["etype:person"].display_name == "Person"
    assert h.nodes["pinst:FriendOf/xiaoyue/haonan"].display_name == "FriendOf(Xiaoyue, Haonan)"
    assert h.nodes["entity:train_1"].display_name == "Train 1"


# -- growth ---------------------------------------------------------------------------

def chain(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = [f"c{i:05d}" for i in range(n)]
    return names, list(zip(names, names[1:] + ["root"]))


def fan_out(n: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = ["top"] + [f"c{i:05d}" for i in range(n)]
    return names, [("top", "root")] + [(c, "top") for c in names[1:]]


def diamond_lattice(n: int, width: int = 8) -> tuple[list[str], list[tuple[str, str]]]:
    """Layers of `width` nodes; below the top layer, each node has the two
    parents in its own and the next column of the layer above."""
    names = [f"d{i:05d}" for i in range(n)]
    edges = [(name, "root") for name in names[:width]]
    for i in range(width, n):
        above = i - width - i % width
        edges += [(names[i], names[above + i % width]), (names[i], names[above + (i + 1) % width])]
    return names, edges


def build_peak(shape, n: int) -> int:
    """tracemalloc's peak, in bytes, while a hierarchy of `shape` at size
    `n` is built and its levels are read."""
    names, edges = shape(n)
    nodes = [plain_node(x) for x in names] + [ConceptNode("root", NodeKind.ROOT, "context", None)]
    tracemalloc.start()
    try:
        levels = Hierarchy(nodes, edges, "root").levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(child) for child, _ in levels) == len(edges)
    return peak


@pytest.mark.parametrize("shape", [chain, fan_out, diamond_lattice], ids=lambda f: f.__name__)
def test_building_a_hierarchy_doubles_linearly(shape):
    """From 2,000 to 4,000 nodes the peak of a build, levels included, grows
    by under 2.5x."""
    base, double = build_peak(shape, 2000), build_peak(shape, 4000)
    assert double < 2.5 * base, f"peak {base} B at 2,000 nodes, {double} B at 4,000"


# -- node order -----------------------------------------------------------------------

def test_node_order_children_before_parents(travel_hierarchy):
    order = travel_hierarchy.node_order
    position = {nid: i for i, nid in enumerate(order)}
    for child, parent in travel_hierarchy.edges:
        assert position[child] < position[parent]
    assert order[-1] == "root"


def test_node_order_lexicographic_tie_break():
    nodes = [plain_node(x) for x in ("b", "a", "c")] + [
        ConceptNode("root", NodeKind.ROOT, "context", None)
    ]
    h = Hierarchy(nodes, {("b", "root"), ("a", "root"), ("c", "root")}, "root")
    assert h.node_order == ("a", "b", "c", "root")
