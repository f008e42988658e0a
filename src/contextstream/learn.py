"""Per-concept online linear classifiers with hierarchy-consistent output.

The baseline learner keeps one binary perceptron per concept node; raw
decisions threshold at score > 0 (a zero score counts negative for
determinism) and predictions are made consistent by downward repair.
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

    @classmethod
    def parse(cls, spec: str) -> "QueryStrategy":
        """Parse 'always', 'never', or 'margin:<tau>'."""
        if ":" in spec:
            kind, _, tau = spec.partition(":")
            return cls(kind=kind.strip(), tau=float(tau))  # type: ignore[arg-type]
        return cls(kind=spec.strip())  # type: ignore[arg-type]


def decide_query(strategy: QueryStrategy, x: np.ndarray, model: OnlinePerceptron) -> bool:
    """True when the learner should acquire labels for this instance."""
    if strategy.kind == "always":
        return True
    if strategy.kind == "never":
        return False
    margins = np.abs(model.scores(x))
    return bool((margins <= strategy.tau).any())


def train_step(
    model: OnlinePerceptron, x: np.ndarray, y: LabelVector, h: Hierarchy
) -> OnlinePerceptron:
    """One online update on (x, y), in place; y must be hierarchy-consistent.
    Every node whose prediction was wrong moves by +-x (bias +-1) toward its
    target; a zero score counts negative."""
    violations = check_consistency(h, y)
    if violations:
        v = violations[0]
        raise InconsistentLabelError(
            f"label vector sets {v.child} without its parent {v.parent}"
        )
    x64 = np.ascontiguousarray(x, dtype=np.float64)
    y8 = np.ascontiguousarray(y, dtype=np.uint8)
    wrong = (model.scores(x64) > 0.0) != y8.astype(bool)
    if wrong.any():
        delta = 2.0 * y8[wrong].astype(np.float64) - 1.0
        model.weights[wrong] += delta[:, None] * x64[None, :]
        model.bias[wrong] += delta
    return model


def predict(model: OnlinePerceptron, x: np.ndarray, h: Hierarchy) -> LabelVector:
    """Threshold raw scores at 0 and repair downward; always consistent."""
    raw = (model.scores(x) > 0.0).astype(np.uint8)
    return repair_downward(h, raw)
