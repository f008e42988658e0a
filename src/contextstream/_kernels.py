"""Hot numeric kernels: label repair over the hierarchy's edge levels, and
perceptron updates.

Conventions: ``levels`` is a sequence of ``(child, parent)`` int index arrays,
one per depth of the child, shallowest first, so every parent sits in an
earlier level than its children; label vectors are uint8 arrays of 0/1.
Everything is bool logic, so no path count can wrap around.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Levels = Sequence[tuple[np.ndarray, np.ndarray]]


def repair_up(y: np.ndarray, levels: Levels) -> np.ndarray:
    """Set bits plus all their ancestors: deepest level first, so each child
    bit is final before it passes up to its parents."""
    up = y.astype(bool)
    if up.any():
        for child, parent in reversed(levels):
            up[parent[up[child]]] = True
    return up.astype(np.uint8)


def repair_down(y: np.ndarray, levels: Levels) -> np.ndarray:
    """Set bits whose ancestors are all set: shallowest level first, so a
    child is kept exactly when every parent was kept."""
    keep = y.astype(bool)
    for child, parent in levels:
        keep[child[~keep[parent]]] = False
    return keep.astype(np.uint8)


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
