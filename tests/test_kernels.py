from __future__ import annotations

import random

import numpy as np

from contextstream.hierarchy import Hierarchy, transitive_reduction
from contextstream.labels import repair_downward, repair_upward
from contextstream.learn import OnlinePerceptron, require_consistent

from conftest import dfs_reachable_pairs, random_dag
from test_hierarchy import hierarchy_from_indexed, plain_node


def reach_oracle(n, edges):
    reach = np.zeros((n, n), dtype=bool)
    for a, b in dfs_reachable_pairs(n, edges):
        reach[a, b] = True
    return reach


def implied_by_longer_path(edges, edge):
    """True when edge (a, b) is implied: b is reachable from a by DFS over
    every edge except (a, b) itself."""
    a, b = edge
    adj: dict[int, list[int]] = {}
    for c, p in edges:
        if (c, p) != edge:
            adj.setdefault(c, []).append(p)
    stack, seen = list(adj.get(a, ())), set()
    while stack:
        node = stack.pop()
        if node == b:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(adj.get(node, ()))
    return False


def reduce(n, edges):
    """The reduced hierarchy of an indexed DAG and the DAG edges it keeps."""
    reduced = transitive_reduction(hierarchy_from_indexed(n, edges))
    kept = {(int(c[1:]), int(p[1:])) for c, p in reduced.edges if p != "root"}
    return reduced, kept


def check_against_oracles(n, edges):
    reduced, kept = reduce(n, edges)
    assert kept == {e for e in edges if not implied_by_longer_path(edges, e)}
    # the reduced DAG keeps every ancestor: upward repair of one bit sets
    # exactly the DFS reach of the input, plus the node and the root
    reach = reach_oracle(n, edges)
    for i in range(n):
        y = np.zeros(len(reduced), dtype=np.uint8)
        y[reduced.index_of(f"n{i:02d}")] = 1
        got = {reduced.node_order[j] for j in np.flatnonzero(repair_upward(reduced, y))}
        assert got == {f"n{j:02d}" for j in np.flatnonzero(reach[i])} | {f"n{i:02d}", "root"}


def wide_dag(rng, n, width):
    """A random DAG on n nodes plus one wide layer: node 0 has `width`
    parents 1..width, each with the parent n-1, and a shortcut 0 -> n-1."""
    edges = random_dag(rng, n, p=min(1.0, 3.0 / n))
    edges |= {(0, k) for k in range(1, width + 1)}
    edges |= {(k, n - 1) for k in range(1, width + 1)}
    edges.add((0, n - 1))
    return edges


def chain_and_wide_layer(depth, width):
    """A chain 0 -> 1 -> ... -> depth-1, a layer of `width` nodes under its
    bottom node 0, and one node under the whole layer with a shortcut to the
    chain's top: depth + 1 levels of edges."""
    layer = range(depth, depth + width)
    bottom = depth + width
    edges = {(i, i + 1) for i in range(depth - 1)}
    edges |= {(k, 0) for k in layer} | {(bottom, k) for k in layer} | {(bottom, depth - 1)}
    return bottom + 1, edges


def test_closure_matches_dfs_oracle():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 40)
        check_against_oracles(n, random_dag(rng, n, p=0.2))


def test_prune_redundant_drops_exactly_implied_edges():
    # chain plus shortcut: 0->1->2 with shortcut 0->2
    _, kept = reduce(3, {(0, 1), (1, 2), (0, 2)})
    assert kept == {(0, 1), (1, 2)}
    check_against_oracles(3, {(0, 1), (1, 2), (0, 2)})


def test_sweep_large_and_wide_dags_match_dfs_oracles():
    # path counts over a 256-wide layer wrap to 0 in uint8 arithmetic
    rng = random.Random(41)
    for n in (300, 277, 260):
        check_against_oracles(n, wide_dag(rng, n, width=256))
    for _ in range(4):
        n = rng.randint(50, 300)
        check_against_oracles(n, random_dag(rng, n, p=rng.uniform(0.005, 0.05)))


def test_reduced_order_is_the_order_of_the_reduced_edges():
    """The reduction takes its input's order over; Kahn's pass run afresh on
    the reduced edges must give the same order, 256-wide layers included."""
    rng = random.Random(29)
    dags = [(n, random_dag(rng, n, p=rng.uniform(0.02, 0.4))) for n in (2, 5, 12, 30, 60)]
    dags += [(n, wide_dag(rng, n, width=256)) for n in (300, 260)]
    dags += [chain_and_wide_layer(40, 256), chain_and_wide_layer(3, 300)]
    for n, edges in dags:
        reduced, _ = reduce(n, edges)
        fresh = Hierarchy(reduced.nodes.values(), reduced.edges, reduced.root)
        assert reduced.node_order == fresh.node_order


def indexed_hierarchy(n, edges):
    """A Hierarchy over an indexed DAG, and the DAG index of each node in
    its order."""
    names = [f"n{i:02d}" for i in range(n)]
    h = Hierarchy(map(plain_node, names), {(names[a], names[b]) for a, b in edges}, names[0])
    return h, np.array([int(nid[1:]) for nid in h.node_order], dtype=np.intp)


def test_repair_kernels_match_naive():
    rng = np.random.default_rng(11)
    pr = random.Random(11)
    dags = [(n, random_dag(pr, n, p=0.25)) for n in (int(rng.integers(1, 25)) for _ in range(20))]
    dags += [chain_and_wide_layer(40, 256), chain_and_wide_layer(3, 300)]
    for n, edges in dags:
        anc = reach_oracle(n, edges)
        h, to_index = indexed_hierarchy(n, edges)
        for density in (0.05, 0.4, 0.95):
            y = (rng.random(n) < density).astype(np.uint8)

            naive_up = y.astype(bool).copy()
            for i in range(n):
                if y[i]:
                    naive_up |= anc[i]
            naive_down = np.array(
                [bool(y[i]) and not (anc[i] & ~y.astype(bool)).any() for i in range(n)]
            )

            # the repairs index by the hierarchy's order, the oracles by the DAG's
            for repair, naive in ((repair_upward, naive_up), (repair_downward, naive_down)):
                got = np.empty(n, dtype=bool)
                got[to_index] = repair(h, y[to_index])
                assert np.array_equal(got, naive)


def test_perceptron_step_math():
    h = Hierarchy([plain_node("a"), plain_node("b")], [], "a")
    model = OnlinePerceptron.zeros(2, 3)
    W, b = model.weights, model.bias
    x = np.array([1.0, 2.0, 0.0])
    # zero scores -> predictions negative -> only node 0 wrong
    y = np.array([1, 0], dtype=np.uint8)
    require_consistent(h, y)
    model.update(x, y, model.scores(x))
    assert W[0].tolist() == [1.0, 2.0, 0.0]
    assert b[0] == 1.0
    assert not W[1].any() and b[1] == 0.0
    # now node 0 is right; flip the target to force a negative update
    y = np.array([0, 0], dtype=np.uint8)
    require_consistent(h, y)
    model.update(x, y, model.scores(x))
    assert W[0].tolist() == [0.0, 0.0, 0.0]
    assert b[0] == 0.0
    assert not W[1].any() and b[1] == 0.0
