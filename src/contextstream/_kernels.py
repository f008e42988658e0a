"""Hot numeric kernels: one topological sweep for reachability and transitive
reduction, label repair against an ancestor matrix, and perceptron updates.

Conventions: node indexes are topological with every parent above its child;
``pairs`` is an (m, 2) int array of (child, parent) edges; ``anc[i, j]`` is
True when j is a strict ancestor of i (reachable over parent edges); label
vectors are uint8 arrays of 0/1. Everything is bool logic, so no path count
can wrap around.
"""

from __future__ import annotations

import numpy as np


def ancestor_sweep(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strict ancestor rows and the edges a longer path does not imply.

    Sweeps from the top index down, so every parent row is final before its
    children read it: ``anc[i]`` is the OR over parents p of ``e_p | anc[p]``,
    and edge i->p is redundant exactly when p is an ancestor of another parent
    of i (the unique reduction of a DAG). Returns ``(anc, keep)`` where
    ``keep[k]`` is True when ``pairs[k]`` survives the reduction.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if (pairs[:, 1] <= pairs[:, 0]).any():
        raise ValueError("edge indexes are not topological (parent must exceed child)")
    anc = np.zeros((n, n), dtype=bool)
    keep = np.ones(len(pairs), dtype=bool)
    by_child = np.argsort(pairs[:, 0], kind="stable")
    bounds = np.searchsorted(pairs[by_child, 0], np.arange(n + 1))
    for i in range(n - 1, -1, -1):
        edges = by_child[bounds[i]:bounds[i + 1]]
        if edges.size == 0:
            continue
        parents = pairs[edges, 1]
        rows = anc[parents]
        anc[i] = rows.any(axis=0)
        anc[i, parents] = True
        # no node is its own strict ancestor, so p's own row never votes
        keep[edges] = ~rows[:, parents].any(axis=0)
    return anc, keep


def repair_up(y: np.ndarray, anc: np.ndarray) -> np.ndarray:
    yb = y.astype(bool)
    if not yb.any():
        return yb.astype(np.uint8)
    return (yb | anc[yb].any(axis=0)).astype(np.uint8)


def repair_down(y: np.ndarray, anc: np.ndarray) -> np.ndarray:
    yb = y.astype(bool)
    kill = (anc & ~yb[None, :]).any(axis=1)
    return (yb & ~kill).astype(np.uint8)


def perceptron_step(weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray) -> int:
    """One online update of per-node binary perceptrons; in-place, returns
    the number of nodes whose prediction was wrong. Score 0 counts negative."""
    scores = weights @ x + bias
    pred = scores > 0.0
    wrong = pred != y.astype(bool)
    if not wrong.any():
        return 0
    delta = 2.0 * y[wrong].astype(np.float64) - 1.0
    weights[wrong] += delta[:, None] * x[None, :]
    bias[wrong] += delta
    return int(wrong.sum())
