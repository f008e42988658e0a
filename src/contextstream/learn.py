"""Per-concept online linear classifiers with hierarchy-consistent output.

The baseline learner keeps one binary perceptron per concept node; raw
decisions threshold at score > 0 (a zero score counts negative for
determinism) and predictions are made consistent by downward repair.

The API is five calls, in the order a streaming loop makes them: check a
label vector once with `require_consistent`; score a window once with
`OnlinePerceptron.scores`; hand those scores to `labels_from_scores` for the
prediction, to `QueryStrategy.wants_labels` for the query decision and, when
queried, to `OnlinePerceptron.update`.
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

    def scores(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ np.asarray(x, dtype=np.float64) + self.bias

    def update(self, x: np.ndarray, y: LabelVector, s: np.ndarray) -> None:
        """One online update on the contiguous float64 `x` and the consistent
        uint8 labels `y`, given `s = self.scores(x)`. Every node whose score
        sided against its target moves by +-x (bias +-1) toward it; a zero
        score counts negative."""
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

    def wants_labels(self, s: np.ndarray) -> bool:
        """True when the learner should acquire labels for an instance with
        scores `s`; only "margin" reads them."""
        if self.kind == "margin":
            return bool((np.abs(s) <= self.tau).any())
        return self.kind == "always"


def require_consistent(h: Hierarchy, y: LabelVector) -> None:
    """Raise InconsistentLabelError, naming the first violated edge, unless
    every set bit of `y` has its parents set."""
    violations = check_consistency(h, y)
    if violations:
        v = violations[0]
        raise InconsistentLabelError(
            f"label vector sets {v.child} without its parent {v.parent}"
        )


def labels_from_scores(h: Hierarchy, s: np.ndarray) -> LabelVector:
    """Threshold raw scores at 0 and repair downward; always consistent."""
    return repair_downward(h, (s > 0.0).astype(np.uint8))
