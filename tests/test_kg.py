from __future__ import annotations

import logging
import random
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from contextstream.core import Coordinates, FunctionAssignment, PersonEntry, StreamRecord
from contextstream.errors import CycleError
from contextstream.kg import (
    EG,
    ETG,
    DataPropertyDef,
    Entity,
    EntityType,
    ObjectPropertyDef,
    PropertyValue,
    containment_from_eg,
    snapshot_eg,
    validate_eg,
)
from contextstream.labels import labels_from_eg
from contextstream.report import ValidationReport

from conftest import codes, parent_chain, reference_labels

UTC = timezone.utc


def triple(p, s, o):
    return PropertyValue(p, s, o)


# -- schema structure ----------------------------------------------------------

def test_etg_rejects_inheritance_cycle():
    with pytest.raises(CycleError):
        ETG(
            [EntityType("a", "A", parent="b"), EntityType("b", "B", parent="a"),
             EntityType("me", "Me")],
            [],
            me_etype="me",
        )


@pytest.mark.parametrize("etypes, path", [
    ([("root", None), ("a", "b"), ("b", "c"), ("c", "a"), ("me", "root")], ["a", "b", "c", "a"]),
    ([("d", "a"), ("a", "b"), ("b", "a"), ("me", None)], ["d", "a", "b", "a"]),
    ([("me", "me")], ["me", "me"]),
], ids=["three-cycle", "tail-into-a-cycle", "self-parent"])
def test_inheritance_cycle_keeps_its_path(etypes, path):
    """The first etype, in declaration order, whose chain meets a cycle names it."""
    with pytest.raises(CycleError) as exc:
        ETG([EntityType(et_id, et_id.upper(), parent=parent) for et_id, parent in etypes],
            [], me_etype="me")
    assert exc.value.path == path


@pytest.mark.parametrize("seed", range(25))
def test_lineage_matches_the_parent_chain_oracle(seed):
    """On a random single-parent ETG, declared in random order, every type
    question agrees with following the `parent` links one at a time."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    parents = {i: rng.choice([None, *range(i)]) for i in range(n)}
    etypes = [
        EntityType(f"e{i}", f"E{i}", None if parents[i] is None else f"e{parents[i]}",
                   tuple(DataPropertyDef(f"p{i}_{k}", "string") for k in range(rng.randint(0, 2))))
        for i in rng.sample(range(n), n)
    ]
    me = f"e{rng.randrange(n)}"
    etg = ETG(etypes, [], me_etype=me)
    by_id = {et.id: et for et in etypes}
    for a in by_id:
        chain = parent_chain(by_id, a)
        assert etg.is_observer(a) == (me in chain)
        inherited = [dp for et_id in reversed(chain) for dp in by_id[et_id].data_properties]
        assert list(etg.effective_data_properties(a).values()) == inherited
        for b in by_id:
            assert etg.is_subtype(a, b) == (b in chain)
    assert etg.is_subtype("ghost", "ghost")
    assert not etg.is_subtype("ghost", me) and not etg.is_observer("ghost")


def test_etg_rejects_duplicate_and_dangling_ids():
    with pytest.raises(ValueError):
        ETG([EntityType("a", "A"), EntityType("a", "A2"), EntityType("me", "Me")], [], "me")
    with pytest.raises(ValueError):
        ETG([EntityType("me", "Me")], [], me_etype="ghost")
    with pytest.raises(ValueError):
        ETG(
            [EntityType("me", "Me")],
            [ObjectPropertyDef("p", "p", domain="me", codomain="ghost")],
            "me",
        )


def test_etg_rejects_inherited_name_collision():
    with pytest.raises(ValueError):
        ETG(
            [
                EntityType("top", "Top", data_properties=(DataPropertyDef("mood", "string"),)),
                EntityType("sub", "Sub", parent="top",
                           data_properties=(DataPropertyDef("mood", "string"),)),
                EntityType("me", "Me"),
            ],
            [],
            "me",
        )


def _etg_of(*etypes):
    """An ETG of `(id, parent, data property names)` etypes and an observer."""
    return ETG([EntityType(et_id, et_id.upper(), parent,
                           tuple(DataPropertyDef(name, "string") for name in names))
                for et_id, parent, names in etypes] + [EntityType("me", "Me")], [], "me")


@pytest.mark.parametrize("etypes, error, message", [
    ([("sub", "top", ["mood"]), ("top", None, ["mood"])], ValueError,
     "etype 'sub': data property 'mood' collides with an inherited property"),
    ([("leaf", "sub", []), ("sub", "top", ["mood"]), ("top", None, ["age", "mood"])], ValueError,
     "etype 'leaf': data property 'mood' collides with an inherited property"),
    ([("top", None, ["mood"]), ("twice", None, ["mood", "mood"]), ("sub", "top", ["mood"])],
     ValueError, "etype 'twice': data property 'mood' is declared twice"),
    ([("leaf", "twice", []), ("twice", None, ["mood", "mood"])],
     ValueError, "etype 'twice': data property 'mood' is declared twice"),
    ([("sub", "top", ["mood"]), ("top", None, ["mood"]), ("a", "b", []), ("b", "a", [])],
     CycleError, "cycle detected: a -> b -> a"),
], ids=["subtype-before-its-parent", "named-after-the-first-lineage", "declared-twice",
        "declared-twice-by-a-parent", "a-later-cycle-comes-first"])
def test_a_collision_names_the_first_etype_whose_lineage_holds_it(etypes, error, message):
    """Etypes are checked in declaration order, every cycle before any
    collision; a collision names the etype whose lineage is being built, and
    a property declared twice the etype that declares it."""
    with pytest.raises(error) as exc:
        _etg_of(*etypes)
    assert str(exc.value) == message


def _chain_etg_peak(travel_etg: ETG, depth: int) -> int:
    """tracemalloc's peak, in bytes, while an ETG of the travel etypes plus a
    chain of `depth` location subtypes, declared leaf first, is built."""
    chain = [EntityType(f"loc{i}", f"Loc{i}", f"loc{i - 1}" if i else "location")
             for i in range(depth)]
    tracemalloc.start()
    try:
        etg = ETG(chain[::-1] + list(travel_etg.etypes.values()),
                  list(travel_etg.properties.values()), travel_etg.me_etype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert etg.is_subtype(f"loc{depth - 1}", "location")
    assert "indoor" in etg.effective_data_properties(f"loc{depth - 1}")
    return peak


def test_a_deep_etype_chain_builds_in_memory_linear_in_its_depth(travel_etg):
    """Doubling a 1,000-deep chain at most multiplies the peak by 2.5; an
    ancestor tuple stored per etype would square it."""
    base, double = _chain_etg_peak(travel_etg, 1000), _chain_etg_peak(travel_etg, 2000)
    assert double <= 2.5 * base, f"peak {base} B at 1,000 deep, {double} B at 2,000"


def test_effective_properties_inherited(travel_etg):
    effective = travel_etg.effective_data_properties("me")
    assert "mood" in effective  # inherited from person
    assert travel_etg.is_subtype("me", "person")
    assert travel_etg.is_subtype("train", "location")
    assert not travel_etg.is_subtype("location", "train")


def test_etg_default_q_and_override(travel_etg):
    assert travel_etg.q == frozenset(
        {"near", "use", "interact", "in", "do", "happenIn", "during", "participate"}
    )
    with pytest.raises(ValueError):
        ETG(list(travel_etg.etypes.values()), list(travel_etg.properties.values()),
            "me", q=["not-a-property"])


def test_enum_datatype_invariants():
    with pytest.raises(ValueError):
        DataPropertyDef("mood", "enum", ())
    with pytest.raises(ValueError):
        DataPropertyDef("mood", "enum", ("a", "a"))
    with pytest.raises(ValueError):
        DataPropertyDef("mood", "strange-type")


# -- instance validation ---------------------------------------------------------

def test_travel_eg_conforms(travel_etg, travel_eg):
    assert validate_eg(travel_etg, travel_eg).ok


def test_empty_eg_conforms(travel_etg):
    assert validate_eg(travel_etg, EG([], [])).ok


def test_domain_violation_single_finding(travel_etg, travel_eg):
    bad = EG(travel_eg.entities, list(travel_eg.triples) + [triple("FriendOf", "seat_1", "haonan")])
    report = validate_eg(travel_etg, bad)
    assert codes(report) == ["domain-violation"]
    assert "seat" in report.findings[0].message


def test_datatype_and_reference_findings(travel_etg, travel_eg):
    entities = list(travel_eg.entities) + [
        Entity("dup", "Dup", "person"),
        Entity("dup", "Dup again", "person"),
        Entity("ghost_typed", "Ghost", "spaceship"),
        Entity("moody", "Moody", "person", values={"mood": "angry"}),
        Entity("chatty", "Chatty", "person", values={"nickname": "ch"}),
    ]
    triples = list(travel_eg.triples) + [
        triple("teleports", "haonan", "trentino"),
        triple("in", "haonan", "nowhere"),
    ]
    report = validate_eg(travel_etg, EG(entities, triples))
    found = codes(report)
    assert found.count("duplicate-id") == 1
    assert "unknown-etype" in found
    assert "datatype-mismatch" in found
    assert "unknown-data-property" in found
    assert "unknown-property" in found
    assert "unknown-entity" in found


def test_boolean_value_is_not_integer(travel_etg):
    person = Entity("p", "P", "person", values={"mood": "happy"})
    place = Entity("l", "L", "location", values={"indoor": 1})
    report = validate_eg(travel_etg, EG([person, place], []))
    assert codes(report) == ["datatype-mismatch"]


# -- snapshots -------------------------------------------------------------------

ROW1 = StreamRecord(
    ts=datetime(2021, 6, 2, 12, 15, tzinfo=UTC),
    super_location="trentino",
    super_event="travel_1",
    location="train_1",
    event="take_train",
    my_actions=frozenset({"Sitting"}),
    person_entries=None,
    object_entries=(FunctionAssignment("RestToolOf", holder="seat_1", beneficiary="xiaoyue"),),
)

ROW2 = StreamRecord(
    ts=datetime(2021, 6, 2, 12, 30, tzinfo=UTC),
    super_location="trentino",
    super_event="travel_1",
    location="roads_2",
    event="walk",
    my_actions=frozenset({"Walking", "Talking"}),
    person_entries=(
        PersonEntry(
            FunctionAssignment("FriendOf", holder="haonan", beneficiary="xiaoyue"),
            frozenset({"Walking", "Listening"}),
        ),
    ),
    object_entries=None,
)

# hand-materialized against the travel fixture: static triples minus the
# context-dependent ones, plus the row's regenerated facts
ROW1_EXPECTED = {
    triple("partOf", "train_1", "trentino"),
    triple("partOf", "roads_2", "trentino"),
    triple("has", "xiaoyue", "smartphone"),
    triple("in", "xiaoyue", "train_1"),
    triple("do", "xiaoyue", "sitting"),
    triple("happenIn", "take_train", "train_1"),
    triple("during", "take_train", "travel_1"),
    triple("participate", "xiaoyue", "take_train"),
    triple("RestToolOf", "xiaoyue", "seat_1"),
}

ROW2_EXPECTED = {
    triple("partOf", "train_1", "trentino"),
    triple("partOf", "roads_2", "trentino"),
    triple("has", "xiaoyue", "smartphone"),
    triple("in", "xiaoyue", "roads_2"),
    triple("do", "xiaoyue", "walking"),
    triple("do", "xiaoyue", "talking"),
    triple("happenIn", "walk", "roads_2"),
    triple("during", "walk", "travel_1"),
    triple("participate", "xiaoyue", "walk"),
    triple("FriendOf", "xiaoyue", "haonan"),
    triple("participate", "haonan", "walk"),
    triple("do", "haonan", "walking"),
    triple("do", "haonan", "listening"),
}


def test_snapshot_row1_exact_triples(travel_etg, travel_eg):
    snap = snapshot_eg(travel_eg, ROW1, travel_etg)
    assert frozenset(snap.triples) == frozenset(ROW1_EXPECTED)
    assert snap.at == ROW1.ts
    assert validate_eg(travel_etg, snap).ok


def test_snapshot_all_missing_record_keeps_statics_only(travel_etg, travel_eg):
    static_only = EG(
        travel_eg.entities,
        [t for t in travel_eg.triples
         if not travel_etg.properties[t.property].context_dependent],
    )
    blank = StreamRecord(ts=ROW1.ts)
    snap = snapshot_eg(static_only, blank, travel_etg)
    assert snap == EG(static_only.entities, static_only.triples, at=ROW1.ts)


def test_snapshot_consecutive_rows_replace_stale_facts(travel_etg, travel_eg):
    first = snapshot_eg(travel_eg, ROW1, travel_etg)
    second = snapshot_eg(first, ROW2, travel_etg)
    assert frozenset(second.triples) == frozenset(ROW2_EXPECTED)
    ins = {t for t in second.triples if t.property == "in"}
    assert ins == {triple("in", "xiaoyue", "roads_2")}
    assert not any(t.property == "RestToolOf" for t in second.triples)


def test_snapshot_deterministic(travel_etg, travel_eg):
    a = snapshot_eg(travel_eg, ROW2, travel_etg)
    b = snapshot_eg(travel_eg, ROW2, travel_etg)
    assert a == b


def test_snapshot_unresolved_references_reported(travel_etg, travel_eg):
    report = ValidationReport()
    odd = StreamRecord(
        ts=ROW1.ts, location="atlantis", event="take_train",
        my_actions=frozenset({"Sitting"}),
    )
    snap = snapshot_eg(travel_eg, odd, travel_etg, report)
    assert not report.ok
    assert any("atlantis" in f.message for f in report)
    # resolvable parts still produced
    assert triple("do", "xiaoyue", "sitting") in snap.triples
    assert validate_eg(travel_etg, snap).ok


def test_snapshot_static_triples_identical_across_rows(travel_etg, travel_eg):
    statics = lambda eg: {
        t for t in eg.triples if not travel_etg.properties[t.property].context_dependent
    }
    s1 = snapshot_eg(travel_eg, ROW1, travel_etg)
    s2 = snapshot_eg(travel_eg, ROW2, travel_etg)
    assert statics(s1) == statics(s2) == statics(travel_eg)


def test_snapshot_shares_static_indexes(travel_etg, travel_eg):
    snap = snapshot_eg(travel_eg, ROW1, travel_etg)
    assert snap.entities is travel_eg.entities
    assert snap._by_id is travel_eg._by_id
    assert snap._by_name is travel_eg._by_name
    assert snap.me_entity(travel_etg) is travel_eg.me_entity(travel_etg)


def _travel_etg_variant(etg, me_etype, static=()):
    properties = [
        ObjectPropertyDef(p.id, p.name, p.domain, p.codomain,
                          p.context_dependent and p.id not in static)
        for p in etg.properties.values()
    ]
    return ETG(etg.etypes.values(), properties, me_etype=me_etype, q=etg.q)


def test_me_entity_follows_the_etg_object(travel_etg, travel_eg):
    eg = EG(travel_eg.entities, travel_eg.triples)
    assert eg.me_entity(travel_etg).id == "xiaoyue"
    assert eg.me_entity(_travel_etg_variant(travel_etg, "train")).id == "train_1"
    assert eg.me_entity(_travel_etg_variant(travel_etg, "person")) is None  # two persons
    equal_copy = _travel_etg_variant(travel_etg, "me")
    assert equal_copy == travel_etg and equal_copy is not travel_etg
    assert eg.me_entity(equal_copy).id == "xiaoyue"


def test_snapshot_static_triples_follow_the_etg_object(travel_etg, travel_eg):
    eg = EG(travel_eg.entities, travel_eg.triples)
    assert frozenset(snapshot_eg(eg, ROW1, travel_etg).triples) == frozenset(ROW1_EXPECTED)
    friends_static = _travel_etg_variant(travel_etg, "me", static={"FriendOf"})
    snap = snapshot_eg(eg, ROW1, friends_static)
    friends = frozenset(ROW1_EXPECTED) | {triple("FriendOf", "xiaoyue", "haonan")}
    assert frozenset(snap.triples) == friends
    # ROW2 regenerates the static FriendOf triple; the snapshot keeps one copy
    snap = snapshot_eg(eg, ROW2, friends_static)
    assert frozenset(snap.triples) == frozenset(ROW2_EXPECTED)
    assert len(snap.triples) == len(ROW2_EXPECTED)


def test_snapshot_random_records_conform(travel_etg, travel_eg):
    rng = random.Random(13)
    locations = ["train_1", "roads_2", "trentino"]
    events = [("take_train", "travel_1"), ("walk", "travel_1"), ("travel_1", None)]
    actions = ["Sitting", "Walking", "Talking", "Listening"]
    base = datetime(2021, 6, 2, 12, 0, tzinfo=UTC)
    for i in range(60):
        event, super_event = rng.choice(events)
        rec = StreamRecord(
            ts=base.replace(minute=i % 60, hour=12 + i // 60),
            location=rng.choice(locations) if rng.random() < 0.9 else None,
            super_location="trentino" if rng.random() < 0.7 else None,
            event=event if rng.random() < 0.9 else None,
            super_event=super_event,
            my_actions=frozenset(rng.sample(actions, rng.randint(0, 3))) or None,
            person_entries=(
                PersonEntry(
                    FunctionAssignment("FriendOf", holder="haonan", beneficiary="xiaoyue"),
                    frozenset(rng.sample(actions, rng.randint(0, 2))),
                ),
            )
            if rng.random() < 0.5
            else None,
            object_entries=(
                FunctionAssignment("RestToolOf", holder="seat_1", beneficiary="xiaoyue"),
            )
            if rng.random() < 0.5
            else None,
        )
        snap = snapshot_eg(travel_eg, rec, travel_etg)
        assert validate_eg(travel_etg, snap).ok


# -- a record with its predecessor's context -----------------------------------

FRIEND = FunctionAssignment("FriendOf", holder="haonan", beneficiary="xiaoyue")
# the values a record field takes below; each list holds an unresolved
# reference ("ghost", "Flying", "EnemyOf") and "atlantis", an entity that only
# some static graphs have and the travel hierarchy has no node for
RECORD_FIELDS = {
    "location": [None, "train_1", "roads_2", "atlantis", "ghost"],
    "super_location": [None, "trentino", "atlantis", "ghost"],
    "event": [None, "take_train", "walk", "travel_1", "ghost"],
    "super_event": [None, "travel_1", "ghost"],
    "my_actions": [None, frozenset(), frozenset({"Sitting"}),
                   frozenset({"Walking", "Talking"}), frozenset({"Flying", "Sitting"})],
    "person_entries": [None, (PersonEntry(FRIEND, frozenset({"Walking", "Listening"})),),
                       (PersonEntry(FRIEND),),
                       (PersonEntry(FunctionAssignment("FriendOf", "ghost", "xiaoyue")),)],
    "object_entries": [None, (FunctionAssignment("RestToolOf", "seat_1", "xiaoyue"),),
                       (FunctionAssignment("EnemyOf", "seat_1", "xiaoyue"),)],
}
TEMPLATES = [ROW1, ROW2, StreamRecord(ts=ROW1.ts),
             # its one context triple names the observer of one static graph only
             StreamRecord(ts=ROW1.ts, object_entries=ROW1.object_entries),
             replace(ROW2, location="atlantis", super_location="ghost", event="ghost")]


def _records_with_runs(rng: random.Random, n: int):
    """`n` (graph choice, record) pairs: mostly a run of equal records, else a
    record that differs from its predecessor in one field, `ts` or `coo_me`
    alone, a fresh template, or another static graph or ETG."""
    base = datetime(2021, 6, 2, 12, 0, tzinfo=UTC)
    graph, record = (0, 0), TEMPLATES[0]
    for i in range(n):
        change = rng.choice(["ts"] * 4 + ["coo_me", "template", "graph", *RECORD_FIELDS] * 2)
        if change == "coo_me":
            record = replace(record, coo_me=Coordinates(rng.random(), 0.0, 0.0))
        else:
            record = replace(record, ts=base + timedelta(seconds=i))
        if change == "template":
            record = replace(rng.choice(TEMPLATES), ts=record.ts)
        elif change == "graph":
            graph = (rng.randrange(2), rng.randrange(2))
        elif change in RECORD_FIELDS:
            values = [v for v in RECORD_FIELDS[change] if v != getattr(record, change)]
            record = replace(record, **{change: rng.choice(values)})
        yield graph, record


@pytest.mark.parametrize("seed", range(6))
def test_snapshot_and_labels_reuse_match_a_fresh_graph(
        seed, travel_etg, travel_eg, travel_hierarchy, caplog):
    """Every snapshot and label vector equals one made on a fresh copy of its
    static graph, which has no earlier record to reuse, and the labels
    oracle; findings and warnings come in the same order."""
    statics = [
        EG([*travel_eg.entities, Entity("atlantis", "Atlantis", "region")], travel_eg.triples),
        # two observers: no observer triple, and the observer is an entity to label
        EG([*travel_eg.entities, Entity("xiaoyue_2", "Xiaoyue 2", "me")], travel_eg.triples),
    ]
    etgs = [travel_etg, _travel_etg_variant(travel_etg, "me", static={"FriendOf"})]
    h = travel_hierarchy
    findings = warnings = 0
    for (s, e), record in _records_with_runs(random.Random(seed), 150):
        static, etg = statics[s], etgs[e]
        report, fresh_report = ValidationReport(), ValidationReport()
        snap = snapshot_eg(static, record, etg, report)
        fresh = snapshot_eg(EG(static.entities, static.triples), record, etg, fresh_report)
        assert snap.triples == fresh.triples
        assert snap.context_triples(etg) == fresh.context_triples(etg)
        assert snap.at == fresh.at == record.ts
        assert report.findings == fresh_report.findings
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            y = labels_from_eg(h, snap, etg)
        messages = list(caplog.messages)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            expected = reference_labels(h, fresh, etg)
        assert np.array_equal(y, expected)
        assert messages == caplog.messages
        findings, warnings = findings + len(report), warnings + len(messages)
    assert findings and warnings


def test_a_label_vector_is_never_shared(travel_etg, travel_eg, travel_hierarchy):
    h, snap = travel_hierarchy, snapshot_eg(travel_eg, ROW2, travel_etg)
    expected = reference_labels(h, snap, travel_etg)
    first = labels_from_eg(h, snap, travel_etg)
    first[:] = 1 - first
    second = labels_from_eg(h, snapshot_eg(travel_eg, replace(ROW2, ts=ROW1.ts), travel_etg),
                            travel_etg)
    assert np.array_equal(second, expected)
    assert not np.shares_memory(first, second)
    second.flags.writeable = False
    third = labels_from_eg(h, snap, travel_etg)
    assert third.flags.writeable and np.array_equal(third, expected)


# -- containment ----------------------------------------------------------------

def test_containment_from_eg(travel_etg, travel_eg):
    containment = containment_from_eg(travel_eg, travel_etg)
    assert containment.location_parent == {"train_1": "trentino", "roads_2": "trentino"}
    assert containment.event_parent == {}


def test_containment_refuses_a_second_parent(travel_etg, travel_eg):
    eg = EG(travel_eg.entities, [*travel_eg.triples, PropertyValue("partOf", "train_1", "roads_2")])
    with pytest.raises(ValueError, match="'train_1' has several partOf parents: 'trentino' and "
                                         "'roads_2'"):
        containment_from_eg(eg, travel_etg)
