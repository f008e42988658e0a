"""Evaluation of hierarchy-consistent multi-label predictions.

Hierarchical precision/recall are micro-averaged over the ancestor-closed bit
sets; 0/0 ratios are defined as 1.0 (an empty prediction against an empty
truth asserts nothing wrong).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 1.0
    return num / den


def evaluate(
    predictions: np.ndarray,
    ground_truth: np.ndarray,
    node_ids: Sequence[str] | None = None,
) -> dict:
    """Metrics over aligned prediction/truth matrices of shape (T, n)."""
    preds = np.asarray(predictions, dtype=bool)
    truths = np.asarray(ground_truth, dtype=bool)
    if preds.shape != truths.shape:
        raise ValueError(f"shape mismatch: predictions {preds.shape} vs truth {truths.shape}")
    if preds.ndim != 2:
        raise ValueError("expected matrices of shape (n_examples, n_nodes)")
    inter = int((preds & truths).sum())
    hp = _ratio(inter, int(preds.sum()))
    hr = _ratio(inter, int(truths.sum()))
    hf1 = _ratio(2 * hp * hr, hp + hr) if (hp + hr) > 0 else 0.0
    exact = float((preds == truths).all(axis=1).mean()) if len(preds) else 1.0
    hamming = float((preds == truths).mean()) if preds.size else 1.0
    tp = (preds & truths).sum(axis=0)
    fp = (preds & ~truths).sum(axis=0)
    fn = (~preds & truths).sum(axis=0)
    tn = (~preds & ~truths).sum(axis=0)
    per_node: dict[str, dict[str, int]] = {}
    names = list(node_ids) if node_ids is not None else [str(i) for i in range(preds.shape[1])]
    for i, name in enumerate(names):
        per_node[name] = {
            "tp": int(tp[i]),
            "fp": int(fp[i]),
            "fn": int(fn[i]),
            "tn": int(tn[i]),
        }
    return {
        "hierarchical_precision": hp,
        "hierarchical_recall": hr,
        "hierarchical_f1": hf1,
        "exact_match": exact,
        "hamming_accuracy": hamming,
        "n_examples": int(preds.shape[0]),
        "per_node": per_node,
    }


def session_metrics(predictions: np.ndarray, ground_truth: np.ndarray,
                    queried: Sequence[bool], node_ids: Sequence[str]) -> dict:
    """The metrics document of a session: `evaluate`'s metrics, then
    `n_windows` and `n_queries`."""
    metrics = evaluate(predictions, ground_truth, node_ids=node_ids)
    metrics["n_windows"] = len(predictions)
    metrics["n_queries"] = sum(queried)
    return metrics

