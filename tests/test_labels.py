from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest

from contextstream.hierarchy import compile_hierarchy
from contextstream.io import load_hierarchy, save_hierarchy
from contextstream.kg import EG, Entity, PropertyValue, snapshot_eg
from contextstream.labels import (
    check_consistency,
    labels_from_eg,
    repair_downward,
    repair_upward,
    zeros,
)

from conftest import GOLDEN, dfs_closure_ids, reference_labels
from test_hierarchy import hierarchy_from_indexed
from test_kg import ROW2


def bits_to_ids(h, y):
    return {nid for nid, bit in zip(h.node_order, y) if bit}


def ids_to_bits(h, ids):
    y = zeros(h)
    for nid in ids:
        y[h.index_of(nid)] = 1
    return y


# -- construction from snapshots -----------------------------------------------

ROW2_SEEDS = {
    # entities incident to the row's context-dependent triples
    "entity:roads_2", "entity:walking", "entity:talking", "entity:listening",
    "entity:haonan", "entity:walk", "entity:travel_1",
    # the materialized function instance
    "pinst:FriendOf/xiaoyue/haonan",
}


def test_row2_labels_match_closure_oracle(travel_hierarchy, travel_etg, travel_eg):
    snap = snapshot_eg(travel_eg, ROW2, travel_etg)
    y = labels_from_eg(travel_hierarchy, snap, travel_etg)
    expected = dfs_closure_ids(set(travel_hierarchy.edges), ROW2_SEEDS)
    assert bits_to_ids(travel_hierarchy, y) == expected
    # spot checks straight from the stream row
    on = bits_to_ids(travel_hierarchy, y)
    assert {"entity:roads_2", "entity:walk", "pinst:FriendOf/xiaoyue/haonan",
            "prop:FriendOf", "etype:person", "root"} <= on
    assert {"entity:train_1", "entity:seat_1", "entity:sitting",
            "pinst:RestToolOf/xiaoyue/seat_1"}.isdisjoint(on)
    assert check_consistency(travel_hierarchy, y) == []


def test_empty_snapshot_is_all_zeros(travel_hierarchy, travel_etg, travel_eg):
    static_only = EG(
        travel_eg.entities,
        [t for t in travel_eg.triples
         if not travel_etg.properties[t.property].context_dependent],
    )
    y = labels_from_eg(travel_hierarchy, static_only, travel_etg)
    assert not y.any()


def test_all_active_snapshot_sets_every_bit(travel_hierarchy, travel_etg, travel_eg):
    everything = EG(
        travel_eg.entities,
        list(travel_eg.triples)
        + [
            PropertyValue("in", "xiaoyue", "train_1"),
            PropertyValue("in", "xiaoyue", "roads_2"),
            PropertyValue("in", "xiaoyue", "trentino"),
            PropertyValue("use", "xiaoyue", "smartphone"),
            PropertyValue("use", "xiaoyue", "seat_1"),
            PropertyValue("interact", "xiaoyue", "haonan"),
            PropertyValue("do", "xiaoyue", "sitting"),
            PropertyValue("do", "xiaoyue", "walking"),
            PropertyValue("do", "xiaoyue", "talking"),
            PropertyValue("do", "xiaoyue", "listening"),
            PropertyValue("participate", "xiaoyue", "travel_1"),
            PropertyValue("participate", "xiaoyue", "take_train"),
            PropertyValue("participate", "xiaoyue", "walk"),
        ],
    )
    y = labels_from_eg(travel_hierarchy, everything, travel_etg)
    seeds = {
        f"entity:{e.id}" for e in travel_eg.entities if e.id != "xiaoyue"
    } | {"pinst:FriendOf/xiaoyue/haonan", "pinst:RestToolOf/xiaoyue/seat_1"}
    expected = dfs_closure_ids(set(travel_hierarchy.edges), seeds)
    assert bits_to_ids(travel_hierarchy, y) == expected
    assert y.all()  # every node is reachable from the active set


def test_labels_deterministic(travel_hierarchy, travel_etg, travel_eg):
    snap = snapshot_eg(travel_eg, ROW2, travel_etg)
    a = labels_from_eg(travel_hierarchy, snap, travel_etg)
    b = labels_from_eg(travel_hierarchy, snap, travel_etg)
    assert np.array_equal(a, b)


def test_labels_find_an_instance_by_its_triple_not_its_id(travel_etg, travel_eg):
    """`FriendOf(x/y, z)` and `FriendOf(x, y/z)` spell one node id; a
    snapshot that holds only the second sets no bit on the first's node."""
    people = [Entity(eid, eid, "person") for eid in ("x/y", "z", "x", "y/z")]
    static = EG([*travel_eg.entities, *people],
                [*travel_eg.triples, PropertyValue("FriendOf", "x/y", "z")])
    h = compile_hierarchy(travel_etg, static)
    y = labels_from_eg(h, EG(static.entities, [PropertyValue("FriendOf", "x", "y/z")]), travel_etg)
    assert y[h.index_of("pinst:FriendOf/x/y/z")] == 0
    assert bits_to_ids(h, y) == dfs_closure_ids(set(h.edges), {"entity:x", "entity:y/z"})


def test_labels_skip_unknown_references_with_warning(travel_hierarchy, travel_etg, travel_eg, caplog):
    odd = EG(
        travel_eg.entities,
        list(travel_eg.triples) + [PropertyValue("in", "xiaoyue", "atlantis")],
    )
    import logging

    with caplog.at_level(logging.WARNING):
        y = labels_from_eg(travel_hierarchy, odd, travel_etg)
    assert any("atlantis" in m for m in caplog.messages)
    assert check_consistency(travel_hierarchy, y) == []


def test_labels_match_the_string_lookup_on_every_fixture_snapshot(
        tmp_path, travel_hierarchy, travel_etg, travel_eg, travel_stream, travel_scenario):
    path = tmp_path / "h.json"
    save_hierarchy(path, load_hierarchy(GOLDEN / "travel_hierarchy.json"))
    golden = load_hierarchy(path)
    # every fixture record: the stream's, the scenario segments' and ROW2
    records = [*travel_stream.records, *(seg.record for seg in travel_scenario.segments), ROW2]
    snapshots = [snapshot_eg(travel_eg, r, travel_etg) for r in records]
    for snap in snapshots:
        scanned = tuple(t for t in snap.triples
                        if t.property in travel_etg.properties
                        and travel_etg.properties[t.property].context_dependent)
        assert snap.context_triples(travel_etg) == scanned
        for h in (travel_hierarchy, golden):
            expected = reference_labels(h, snap, travel_etg)
            assert np.array_equal(labels_from_eg(h, snap, travel_etg), expected)
    friend = golden.index_of("pinst:FriendOf/xiaoyue/haonan")
    assert any(labels_from_eg(golden, snap, travel_etg)[friend] for snap in snapshots)


def test_labels_warn_like_the_string_lookup_for_an_entity_with_no_node(
        travel_hierarchy, travel_etg, travel_eg, caplog):
    wider = EG([*travel_eg.entities, Entity("atlantis", "Atlantis", "region")], travel_eg.triples)
    snap = snapshot_eg(wider, replace(ROW2, location="atlantis"), travel_etg)
    with caplog.at_level(logging.WARNING):
        expected = reference_labels(travel_hierarchy, snap, travel_etg)
    oracle_messages = list(caplog.messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        y = labels_from_eg(travel_hierarchy, snap, travel_etg)
    assert np.array_equal(y, expected)
    assert caplog.messages == oracle_messages
    assert any("'atlantis'" in m for m in oracle_messages)


# -- consistency checking ---------------------------------------------------------

def test_all_zeros_and_all_ones_consistent(travel_hierarchy):
    n = len(travel_hierarchy)
    assert check_consistency(travel_hierarchy, np.zeros(n, dtype=np.uint8)) == []
    assert check_consistency(travel_hierarchy, np.ones(n, dtype=np.uint8)) == []


def test_single_violation_located(travel_hierarchy):
    y = ids_to_bits(travel_hierarchy, {"entity:walk"})  # parent etype:event unset
    violations = check_consistency(travel_hierarchy, y)
    assert len(violations) == 1
    assert violations[0].child == "entity:walk"
    assert violations[0].parent == "etype:event"


def test_length_mismatch_rejected(travel_hierarchy):
    with pytest.raises(ValueError):
        check_consistency(travel_hierarchy, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        repair_upward(travel_hierarchy, np.zeros(999, dtype=np.uint8))


# -- repair -------------------------------------------------------------------------

def test_repair_upward_single_leaf_matches_oracle(travel_hierarchy):
    y = ids_to_bits(travel_hierarchy, {"entity:seat_1"})
    repaired = repair_upward(travel_hierarchy, y)
    expected = dfs_closure_ids(set(travel_hierarchy.edges), {"entity:seat_1"})
    assert bits_to_ids(travel_hierarchy, repaired) == expected
    assert "root" in expected


def test_repair_upward_fixpoint_and_zeros(travel_hierarchy):
    y = zeros(travel_hierarchy)
    assert np.array_equal(repair_upward(travel_hierarchy, y), y)
    once = repair_upward(travel_hierarchy, ids_to_bits(travel_hierarchy, {"entity:walk"}))
    assert np.array_equal(repair_upward(travel_hierarchy, once), once)


def test_repair_downward_clears_unsupported_child(travel_hierarchy):
    y = ids_to_bits(travel_hierarchy, {"entity:walk"})
    assert not repair_downward(travel_hierarchy, y).any()
    consistent = repair_upward(travel_hierarchy, y)
    assert np.array_equal(repair_downward(travel_hierarchy, consistent), consistent)


def test_repair_properties_random(travel_hierarchy):
    rng = np.random.default_rng(29)
    n = len(travel_hierarchy)
    for _ in range(300):
        y = (rng.random(n) < rng.uniform(0.05, 0.9)).astype(np.uint8)
        up = repair_upward(travel_hierarchy, y)
        down = repair_downward(travel_hierarchy, y)
        assert check_consistency(travel_hierarchy, up) == []
        assert check_consistency(travel_hierarchy, down) == []
        assert np.array_equal(repair_upward(travel_hierarchy, up), up)
        assert np.array_equal(repair_downward(travel_hierarchy, down), down)
        assert np.all(down <= y) and np.all(y <= up)


def test_repair_monotone(travel_hierarchy):
    rng = np.random.default_rng(31)
    n = len(travel_hierarchy)
    for _ in range(100):
        small = (rng.random(n) < 0.3).astype(np.uint8)
        extra = (rng.random(n) < 0.3).astype(np.uint8)
        big = np.maximum(small, extra)
        assert np.all(
            repair_upward(travel_hierarchy, small) <= repair_upward(travel_hierarchy, big)
        )
        assert np.all(
            repair_downward(travel_hierarchy, small) <= repair_downward(travel_hierarchy, big)
        )


def test_batch_repairs_past_256_bits():
    # 256 set bits share the ancestors n256 and root, and n257 has 256 unset
    # ancestors; counts modulo 256 would miss both
    star = hierarchy_from_indexed(257, {(k, 256) for k in range(256)})
    deep = hierarchy_from_indexed(258, {(257, k) for k in range(1, 256)})
    cases = [
        (star, {f"n{k:02d}" for k in range(256)}),
        (deep, {"n257"}),
    ]
    for h, seeds in cases:
        y = ids_to_bits(h, seeds)
        closed = dfs_closure_ids(set(h.edges), seeds)
        assert bits_to_ids(h, repair_upward(h, y)) == closed
        # a bit survives downward repair only when the oracle finds every
        # ancestor of it set
        kept = {s for s in seeds if dfs_closure_ids(set(h.edges), {s}) <= seeds}
        assert bits_to_ids(h, repair_downward(h, y)) == kept
        assert bits_to_ids(h, repair_downward(h, ids_to_bits(h, closed))) == closed
        assert not repair_upward(h, zeros(h)).any()
        assert not repair_downward(h, zeros(h)).any()
