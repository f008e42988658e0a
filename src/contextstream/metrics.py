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
    """Metrics over aligned prediction/truth matrices of shape (T, n);
    `node_ids`, when given, names the n columns in order."""
    preds = np.asarray(predictions, dtype=bool)
    truths = np.asarray(ground_truth, dtype=bool)
    if preds.shape != truths.shape:
        raise ValueError(f"shape mismatch: predictions {preds.shape} vs truth {truths.shape}")
    if preds.ndim != 2:
        raise ValueError("expected matrices of shape (n_examples, n_nodes)")
    names = list(node_ids) if node_ids is not None else [str(i) for i in range(preds.shape[1])]
    if len(names) != preds.shape[1]:
        raise ValueError(f"{len(names)} node ids for {preds.shape[1]} columns")
    # per node, the true positives and the predicted and true counts; every
    # other count follows from those
    both = preds & truths
    tp = both.sum(axis=0)
    predicted, true = preds.sum(axis=0), truths.sum(axis=0)
    fp, fn = predicted - tp, true - tp
    tn = len(preds) - predicted - fn
    inter = int(tp.sum())
    hp = _ratio(inter, int(predicted.sum()))
    hr = _ratio(inter, int(true.sum()))
    hf1 = _ratio(2 * hp * hr, hp + hr) if (hp + hr) > 0 else 0.0
    # a row matches exactly when its predicted and true bits number twice
    # its true positives
    wrong = preds.sum(axis=1) + truths.sum(axis=1) - 2 * both.sum(axis=1)
    exact = float((wrong == 0).mean()) if len(preds) else 1.0
    hamming = (int((tp + tn).sum()) / preds.size) if preds.size else 1.0
    per_node = {
        name: {"tp": a, "fp": b, "fn": c, "tn": d}
        for name, a, b, c, d in zip(names, tp.tolist(), fp.tolist(), fn.tolist(), tn.tolist())
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

