"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them on success)."""

from __future__ import annotations

import random
import time

import numpy as np

from contextstream import io
from contextstream.core import ContextPattern, classify_pattern
from contextstream.hierarchy import NodeKind, compile_hierarchy, transitive_reduction
from contextstream.kg import (
    EG,
    ETG,
    Entity,
    EntityType,
    ObjectPropertyDef,
    PropertyValue,
    snapshot_eg,
    validate_eg,
)
from contextstream.labels import check_consistency, repair_downward, repair_upward
from contextstream.learn import QueryStrategy
from contextstream.metrics import per_node_accuracy
from contextstream.simulate import WindowSpec, run_simulation

from conftest import FIXTURES, GOLDEN, dfs_reachable_pairs, random_dag
from test_hierarchy import hierarchy_from_indexed
from test_simulate import two_regime_script


def test_criterion_1_algorithm_golden(travel_etg, travel_eg):
    """Compiling the travel fixture reproduces the hand-executed DAG exactly."""
    # one-time kernel JIT compilation stays outside the timed region
    compile_hierarchy(travel_etg, EG([], []))
    start = time.perf_counter()
    h = compile_hierarchy(travel_etg, travel_eg)
    elapsed = time.perf_counter() - start
    produced = io.dumps_canonical(io.hierarchy_to_dict(h))
    golden = (GOLDEN / "travel_hierarchy.json").read_text(encoding="utf-8")
    assert produced == golden, "compiled DAG differs from the hand-executed golden"
    assert elapsed < 1.0, f"compilation took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1: PASS - golden DAG reproduced zero-diff in {elapsed * 1000:.1f} ms")


def test_criterion_2_transitive_reduction_oracle():
    """500 random DAGs (<= 50 nodes): identical reachability via DFS oracle,
    no removable edge remaining, under 30 s."""
    rng = random.Random(2024)
    start = time.perf_counter()
    checked_edges = 0
    for _ in range(500):
        n = rng.randint(2, 50)
        edges = random_dag(rng, n, p=rng.uniform(0.03, 0.35))
        h = hierarchy_from_indexed(n, edges)
        reduced = transitive_reduction(h)
        index = {nid: i for i, nid in enumerate(sorted(h.nodes))}
        as_idx = lambda es: {(index[a], index[b]) for a, b in es}
        n_all = len(h.nodes)
        before = dfs_reachable_pairs(n_all, as_idx(h.edges))
        after = dfs_reachable_pairs(n_all, as_idx(reduced.edges))
        assert before == after, "reduction changed reachability"
        reduced_idx = as_idx(reduced.edges)
        # in a DAG, a -> b is removable exactly when another successor of a
        # reaches b, so the reduced graph's DFS reachability decides every edge
        successors: dict[int, list[int]] = {}
        for a, b in reduced_idx:
            successors.setdefault(a, []).append(b)
        for a, b in reduced_idx:
            assert not any((c, b) in after for c in successors[a] if c != b), (
                "removable edge survived reduction"
            )
        checked_edges += len(reduced_idx)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion budget exceeded: {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 2: PASS - 500 DAGs, {checked_edges} reduced edges verified "
        f"against the DFS oracle in {elapsed:.1f} s"
    )


def test_criterion_3_consistency_repairs():
    """1000 random vectors per random hierarchy: repaired outputs are 100%
    consistent, repairs idempotent, and down(y) <= y <= up(y) bitwise."""
    rng = random.Random(99)
    nprng = np.random.default_rng(99)
    hierarchies = [
        hierarchy_from_indexed(n, random_dag(rng, n, p=rng.uniform(0.05, 0.3)))
        for n in (5, 12, 20, 33, 47)
    ]
    total = 0
    for h in hierarchies:
        n = len(h)
        ys = (nprng.random((1000, n)) < nprng.uniform(0.05, 0.95, size=(1000, 1)))
        ys = ys.astype(np.uint8)
        for y in ys:
            up = repair_upward(h, y)
            down = repair_downward(h, y)
            assert check_consistency(h, up) == []
            assert check_consistency(h, down) == []
            assert np.array_equal(repair_upward(h, up), up)
            assert np.array_equal(repair_downward(h, down), down)
            assert np.all(down <= y) and np.all(y <= up)
            total += 1
    print(f"\nACCEPTANCE 3: PASS - {total} random vectors repaired consistently on "
          f"{len(hierarchies)} hierarchies")


def test_criterion_4_ground_truth_consistency(
    travel_scenario, travel_hierarchy, travel_etg, travel_eg
):
    """Every label vector emitted across a full simulated travel run is
    consistent with the hierarchy."""
    result = run_simulation(
        travel_scenario, travel_hierarchy, travel_etg, travel_eg,
        window_spec=WindowSpec.means(travel_scenario.channels, 5.0),
    )
    assert result.events, "simulation produced no windows"
    for event in result.events:
        assert check_consistency(travel_hierarchy, event.truth) == []
    print(
        f"\nACCEPTANCE 4: PASS - {len(result.events)} ground-truth vectors, "
        "100% consistent"
    )


def test_criterion_5_table_reproduction(travel_containment):
    """The two-row stream fixture reproduces the worked matrix: super chains,
    actions, functions, missing markers, and the 1EML window pattern."""
    stream = io.load_stream(FIXTURES / "travel_stream.jsonl", travel_containment)
    assert len(stream) == 2
    r1, r2 = stream.records

    assert (r1.super_location, r1.super_event) == ("trentino", "travel_1")
    assert (r1.location, r1.event) == ("train_1", "take_train")
    assert r1.my_actions == frozenset({"Sitting"})
    assert r1.person_entries is None  # the missing marker
    assert [fa.function_name for fa in r1.object_entries] == ["RestToolOf"]
    assert r1.object_entries[0].holder == "seat_1"
    assert r1.object_entries[0].beneficiary == "xiaoyue"
    assert r1.coo_me.x == 41.0

    assert (r2.super_location, r2.super_event) == ("trentino", "travel_1")
    assert (r2.location, r2.event) == ("roads_2", "walk")
    assert r2.my_actions == frozenset({"Walking", "Talking"})
    assert r2.object_entries is None
    entry = r2.person_entries[0]
    assert entry.function.function_name == "FriendOf"
    assert entry.function.holder == "haonan"
    assert entry.actions == frozenset({"Walking", "Listening"})

    assert r2.ts > r1.ts
    pattern = classify_pattern(stream, containment=travel_containment)
    assert pattern is ContextPattern.ONE_EVENT_MANY_LOCS
    print("\nACCEPTANCE 5: PASS - both rows reproduced exactly; window pattern 1EML")


def test_criterion_6_snapshot_conformance(travel_etg, travel_eg):
    """200 randomized scenario records all yield snapshots that validate
    cleanly against the schema."""
    rng = random.Random(61)
    from datetime import datetime, timedelta, timezone

    from contextstream.core import FunctionAssignment, PersonEntry, StreamRecord

    base = datetime(2021, 6, 2, 0, 0, tzinfo=timezone.utc)
    actions = ["Sitting", "Walking", "Talking", "Listening"]
    events = [("take_train", "travel_1"), ("walk", "travel_1"), ("travel_1", None), (None, None)]
    clean = 0
    for i in range(200):
        event, super_event = rng.choice(events)
        record = StreamRecord(
            ts=base + timedelta(minutes=i),
            location=rng.choice(["train_1", "roads_2", "trentino", None]),
            super_location="trentino" if rng.random() < 0.6 else None,
            event=event,
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
        snap = snapshot_eg(travel_eg, record, travel_etg)
        report = validate_eg(travel_etg, snap)
        assert report.ok, f"record {i}: {report.summary()}"
        clean += 1
    print(f"\nACCEPTANCE 6: PASS - {clean}/200 randomized snapshots conform")


def test_criterion_7_learning_sanity(tmp_path, travel_hierarchy, travel_etg, travel_eg):
    """Separable two-regime scenario, >= 500 windows, always-query: final
    sliding accuracy >= 0.95 on active nodes, all predictions consistent,
    bit-for-bit reproducible, under 60 s."""
    script = two_regime_script(n_pairs=45, segment_minutes=30.0, seed=7)
    spec = WindowSpec.means(script.channels, 5.0)
    start = time.perf_counter()
    result = run_simulation(
        script, travel_hierarchy, travel_etg, travel_eg,
        window_spec=spec, strategy=QueryStrategy("always"),
    )
    elapsed = time.perf_counter() - start
    n_windows = len(result.events)
    assert n_windows >= 500, f"only {n_windows} windows"
    assert result.metrics["n_queries"] == n_windows

    preds, truths = result.predictions(), result.truths()
    for pred in preds:
        assert check_consistency(travel_hierarchy, pred) == []
    active = truths.any(axis=0)
    final_acc = per_node_accuracy(preds, truths, last=100)
    worst = float(final_acc[active].min())
    assert worst >= 0.95, f"worst active-node sliding accuracy {worst:.3f}"

    rerun = run_simulation(
        script, travel_hierarchy, travel_etg, travel_eg,
        window_spec=spec, strategy=QueryStrategy("always"),
    )
    for run, path in ((result, tmp_path / "a.jsonl"), (rerun, tmp_path / "b.jsonl")):
        io.save_runlog(path, run.node_order, run.manifest, run.seed, run.events)
    a, b = ((tmp_path / name).read_text().splitlines() for name in ("a.jsonl", "b.jsonl"))
    assert a == b, "rerun is not bit-for-bit identical"
    assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 7: PASS - {n_windows} windows in {elapsed:.1f} s, "
        f"worst active-node sliding accuracy {worst:.3f}, reproducible"
    )


def test_criterion_8_q_exclusion():
    """Randomized ETGs with randomized Q subsets compile to hierarchies with
    zero nodes referencing any property in Q."""
    rng = random.Random(88)
    runs = 0
    for _ in range(60):
        n_types = rng.randint(2, 6)
        etypes = [EntityType("me", "Me")] + [EntityType(f"t{i}", f"T{i}") for i in range(n_types)]
        prop_names = ["in", "do", "near", "use", "linksTo", "knows", "partOf", "has"]
        properties = []
        for name in rng.sample(prop_names, rng.randint(2, len(prop_names))):
            if name in ("partOf", "has"):
                # keep structural assertions acyclic: domain index < codomain index
                a, b = sorted(rng.sample(range(n_types), 2))
                domain, codomain = f"t{a}", f"t{b}"
            else:
                domain = f"t{rng.randrange(n_types)}"
                codomain = f"t{rng.randrange(n_types)}"
            properties.append(ObjectPropertyDef(name, name, domain, codomain, rng.random() < 0.5))
        q = frozenset(p.id for p in properties if rng.random() < 0.4)
        entities = [Entity("me_ent", "MeEnt", "me")] + [
            Entity(f"e{i}", f"E{i}", f"t{rng.randrange(n_types)}")
            for i in range(rng.randint(1, 8))
        ]
        triples = []
        for _ in range(rng.randint(0, 10)):
            p = rng.choice(properties)
            if p.id in ("partOf", "has"):
                lo, hi = sorted(rng.sample(range(len(entities)), 2))
                triples.append(PropertyValue(p.id, entities[lo].id, entities[hi].id))
            else:
                triples.append(
                    PropertyValue(p.id, rng.choice(entities).id, rng.choice(entities).id)
                )
        etg = ETG(etypes, properties, "me", q=q)
        h = compile_hierarchy(etg, EG(entities, triples))
        for node in h.nodes.values():
            if node.kind is NodeKind.PROPERTY:
                assert node.source_ref not in q
            elif node.kind is NodeKind.PROPERTY_INSTANCE:
                assert node.source_ref[0] not in q
        runs += 1
    print(f"\nACCEPTANCE 8: PASS - {runs} randomized compilations, zero Q-referencing nodes")
