"""Evaluation of hierarchy-consistent multi-label predictions.

Hierarchical precision/recall are micro-averaged over the ancestor-closed bit
sets; 0/0 ratios are defined as 1.0 (an empty prediction against an empty
truth asserts nothing wrong).

`MetricsAccumulator` counts a session's metrics as its windows are learned,
a block of rows at a time (prequential evaluation: Gama, Sebastião &
Rodrigues, Machine Learning 90, 2013). It keeps integer counts only, and
every ratio is a quotient of those counts, so the blocks a session is cut
into never change a metric's value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 1.0
    return num / den


class MetricsAccumulator:
    """Per node, the true positives and the predicted and true counts of the
    rows added so far, and the rows, the rows matched exactly and the
    queries; every other count follows from those."""

    def __init__(self, n_nodes: int):
        self.tp = np.zeros(n_nodes, dtype=np.int64)
        self.predicted = np.zeros(n_nodes, dtype=np.int64)
        self.true = np.zeros(n_nodes, dtype=np.int64)
        self.rows = self.exact = self.queries = 0

    def add(self, predictions: np.ndarray, truth: np.ndarray, queries: int = 0) -> None:
        """Count the (rows, nodes) `predictions` against `truth`, one row per
        prediction row or one row that every prediction row shares, and
        `queries` more queries. A nonzero value is a set bit."""
        preds, truths = np.asarray(predictions, dtype=bool), np.asarray(truth, dtype=bool)
        if preds.ndim != 2 or preds.shape[1] != len(self.tp) or truths.shape not in (
                preds.shape, preds.shape[1:]):
            raise ValueError(f"expected rows of {len(self.tp)} nodes, not predictions of shape "
                             f"{preds.shape} and truth of shape {truths.shape}")
        predicted = preds.sum(axis=0)
        if truths.ndim == 1:  # one truth row for the block: a node's tp is 0 or its predictions
            self.tp += predicted * truths
            self.true += len(preds) * truths
        else:
            self.tp += (preds & truths).sum(axis=0)
            self.true += truths.sum(axis=0)
        self.predicted += predicted
        self.rows += len(preds)
        self.exact += int(np.count_nonzero((preds == truths).all(axis=1)))
        self.queries += queries

    def result(self, node_ids: Sequence[str] | None = None) -> dict:
        """The metrics of the rows added so far; `node_ids`, when given,
        names the nodes in order."""
        n = len(self.tp)
        names = list(node_ids) if node_ids is not None else [str(i) for i in range(n)]
        if len(names) != n:
            raise ValueError(f"{len(names)} node ids for {n} columns")
        tp, predicted, true = self.tp, self.predicted, self.true
        fp, fn = predicted - tp, true - tp
        tn = self.rows - predicted - fn
        inter = int(tp.sum())
        hp = _ratio(inter, int(predicted.sum()))
        hr = _ratio(inter, int(true.sum()))
        hf1 = _ratio(2 * hp * hr, hp + hr) if (hp + hr) > 0 else 0.0
        cells = self.rows * n
        per_node = {
            name: {"tp": a, "fp": b, "fn": c, "tn": d}
            for name, a, b, c, d in zip(names, tp.tolist(), fp.tolist(), fn.tolist(), tn.tolist())
        }
        return {
            "hierarchical_precision": hp,
            "hierarchical_recall": hr,
            "hierarchical_f1": hf1,
            "exact_match": self.exact / self.rows if self.rows else 1.0,
            "hamming_accuracy": int((tp + tn).sum()) / cells if cells else 1.0,
            "n_examples": self.rows,
            "per_node": per_node,
        }

    def session_result(self, node_ids: Sequence[str]) -> dict:
        """The metrics document of a session: `result`'s metrics, then
        `n_windows` and `n_queries`."""
        return {**self.result(node_ids), "n_windows": self.rows, "n_queries": self.queries}


def evaluate(
    predictions: np.ndarray,
    ground_truth: np.ndarray,
    node_ids: Sequence[str] | None = None,
) -> dict:
    """Metrics over aligned prediction/truth matrices of shape (T, n);
    `node_ids`, when given, names the n columns in order."""
    preds, truths = np.asarray(predictions), np.asarray(ground_truth)
    if preds.shape != truths.shape:
        raise ValueError(f"shape mismatch: predictions {preds.shape} vs truth {truths.shape}")
    if preds.ndim != 2:
        raise ValueError("expected matrices of shape (n_examples, n_nodes)")
    counts = MetricsAccumulator(preds.shape[1])
    counts.add(preds, truths)
    return counts.result(node_ids)
