"""Per-concept online linear classifiers with hierarchy-consistent output.

The baseline learner keeps one binary perceptron per concept node; raw
decisions threshold at score > 0 (a zero score counts negative for
determinism) and predictions are made consistent by downward repair.

The API is five calls, in the order a streaming loop makes them: check a
label vector once with `require_consistent`; score a block of windows, one
row each, with `OnlinePerceptron.scores`; hand those scores to
`labels_from_scores` for the predictions and to `QueryStrategy.wants_labels`
for the query decisions, one per row; and hand a queried row's scores to
`OnlinePerceptron.update`. The perceptron changes only on a queried mistake,
so a block's rows share one model up to the first row that updates it; the
rows after that row must be scored again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InconsistentLabelError
from .hierarchy import Hierarchy
from .labels import LabelVector, check_consistency, repair_downward


@dataclass
class OnlinePerceptron:
    """Independent per-node perceptrons over a shared feature vector."""

    weights: np.ndarray
    bias: np.ndarray

    @classmethod
    def zeros(cls, nodes: int, features: int) -> "OnlinePerceptron":
        return cls(
            weights=np.zeros((nodes, features), dtype=np.float64),
            bias=np.zeros(nodes, dtype=np.float64),
        )

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """The (m, nodes) scores of the (m, features) block `xs`: row i is
        `weights @ xs[i] + bias` bit for bit. Each row is its own
        matrix-vector product, because one matrix product for the block may
        round differently in the last bits, and a score at 0 decides a sign."""
        xs = np.asarray(xs, dtype=np.float64)
        s = np.empty((len(xs), len(self.bias)))
        for x, row in zip(xs, s):
            np.dot(self.weights, x, out=row)
        s += self.bias
        return s

    def update(self, x: np.ndarray, y: LabelVector, s: np.ndarray) -> None:
        """One online update on the contiguous float64 `x` and the consistent
        uint8 labels `y`, given x's row `s` of `self.scores`. Every node whose
        score sided against its target moves by +-x (bias +-1) toward it; a
        zero score counts negative."""
        wrong = (s > 0.0) != y.astype(bool)
        if wrong.any():
            delta = 2.0 * y[wrong].astype(np.float64) - 1.0
            self.weights[wrong] += delta[:, None] * x[None, :]
            self.bias[wrong] += delta


@dataclass(frozen=True)
class QueryStrategy:
    """When to ask the simulated user for labels."""

    kind: Literal["always", "never", "margin"] = "always"
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in ("always", "never", "margin"):
            raise ValueError(f"unknown query strategy {self.kind!r}")
        if self.kind == "margin" and not 0 <= self.tau < math.inf:
            raise ValueError(f"margin tau must be a finite number >= 0, not {self.tau!r}")
        if self.kind != "margin" and self.tau != 0:
            raise ValueError(f"only a margin strategy takes a tau, not {self.kind!r}")

    @classmethod
    def parse(cls, spec: str) -> "QueryStrategy":
        """Parse 'always', 'never', or 'margin:<tau>'."""
        if ":" in spec:
            kind, _, tau = spec.partition(":")
            return cls(kind=kind.strip(), tau=float(tau))  # type: ignore[arg-type]
        return cls(kind=spec.strip())  # type: ignore[arg-type]

    def wants_labels(self, s: np.ndarray) -> np.ndarray:
        """One bool per row of the (m, nodes) scores `s`: True when the
        learner should acquire labels for that window. Only "margin" reads
        the scores: it asks when any score of the row is within tau of 0."""
        if self.kind == "margin":
            return (np.abs(s) <= self.tau).any(axis=1)
        return np.full(len(s), self.kind == "always")


def require_consistent(h: Hierarchy, y: LabelVector) -> None:
    """Raise InconsistentLabelError, naming the first violated edge, unless
    every set bit of `y` has its parents set."""
    violations = check_consistency(h, y)
    if violations:
        v = violations[0]
        raise InconsistentLabelError(
            f"label vector sets {v.child} without its parent {v.parent}"
        )


def labels_from_scores(h: Hierarchy, s: np.ndarray) -> np.ndarray:
    """The (m, nodes) uint8 predictions of the (m, nodes) scores `s`: each
    row thresholded at 0 and repaired downward, so each is consistent. Rows
    with the same raw bits are repaired once: a stable model gives every
    window of a segment the same raw bits."""
    raw = np.asarray(s) > 0.0
    first: dict[bytes, int] = {}
    which = [first.setdefault(key.tobytes(), i) for i, key in enumerate(np.packbits(raw, axis=1))]
    out = np.empty(raw.shape, dtype=np.uint8)
    for i in first.values():
        out[i] = repair_downward(h, raw[i])
    return out[which]
