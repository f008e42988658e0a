from __future__ import annotations

import numpy as np
import pytest

from contextstream.errors import InconsistentLabelError
from contextstream.labels import check_consistency, repair_upward, zeros
from contextstream.learn import (
    OnlinePerceptron,
    QueryStrategy,
    labels_from_scores,
    require_consistent,
)


@pytest.fixture
def model(travel_hierarchy):
    return OnlinePerceptron.zeros(len(travel_hierarchy), 4)


def consistent_label(h, leaf_ids):
    y = zeros(h)
    for nid in leaf_ids:
        y[h.index_of(nid)] = 1
    return repair_upward(h, y)


def test_always_strategy(model):
    s = model.scores(np.ones((3, 4)))
    assert QueryStrategy("always").wants_labels(s).tolist() == [True] * 3


def test_never_strategy(model):
    s = model.scores(np.ones((3, 4)))
    assert QueryStrategy("never").wants_labels(s).tolist() == [False] * 3


def test_margin_zero_queries_only_boundary(model):
    def asks(tau, xs):
        return QueryStrategy("margin", tau=tau).wants_labels(model.scores(xs)).tolist()

    # zero model: every score is exactly 0 -> on the boundary
    assert asks(0.0, np.ones((1, 4))) == [True]
    model.bias[:] = 5.0
    assert asks(0.0, np.ones((1, 4))) == [False]
    assert asks(5.0, np.zeros((1, 4))) == [True]
    # one bool per row: only the row whose score for node 0 sits at 0 asks
    model.weights[0, 0] = -5.0
    assert asks(0.0, np.array([[1.0, 0, 0, 0], [0.5, 0, 0, 0]])) == [True, False]


def test_strategy_parsing():
    assert QueryStrategy.parse("always") == QueryStrategy("always")
    assert QueryStrategy.parse("margin:0.25") == QueryStrategy("margin", 0.25)
    with pytest.raises(ValueError):
        QueryStrategy.parse("sometimes")
    with pytest.raises(ValueError):
        QueryStrategy("margin", tau=-1.0)
    assert QueryStrategy.parse("never:0") == QueryStrategy("never")
    for spec in ("always:3", "never:0.5", "always:nan"):
        with pytest.raises(ValueError, match="only a margin strategy takes a tau"):
            QueryStrategy.parse(spec)
    with pytest.raises(ValueError, match="only a margin strategy takes a tau"):
        QueryStrategy("always", tau=0.5)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_margin_rejects_a_tau_that_is_not_finite(tau):
    """A NaN tau fails every margin comparison, so it would never query."""
    with pytest.raises(ValueError, match="margin tau must be a finite number"):
        QueryStrategy("margin", tau=tau)
    with pytest.raises(ValueError, match="margin tau"):
        QueryStrategy.parse(f"margin:{tau}")


def test_require_consistent_names_the_set_child_and_its_unset_parent(travel_hierarchy):
    h = travel_hierarchy
    y = zeros(h)
    y[h.index_of("entity:walk")] = 1  # its one parent, etype:event, unset
    with pytest.raises(InconsistentLabelError,
                       match="sets entity:walk without its parent etype:event$"):
        require_consistent(h, y)
    require_consistent(h, repair_upward(h, y))


def test_repeated_example_mistakes_non_increasing(travel_hierarchy, model):
    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    y = consistent_label(travel_hierarchy, ["entity:walk", "entity:roads_2"])
    mistakes = []
    for _ in range(20):
        before = model.scores([x])[0] > 0
        mistakes.append(int((before != y.astype(bool)).sum()))
        require_consistent(travel_hierarchy, y)
        model.update(x, y, model.scores([x])[0])
    assert all(a >= b for a, b in zip(mistakes, mistakes[1:]))
    assert mistakes[-1] == 0


def test_zero_feature_example_updates_bias_only(travel_hierarchy, model):
    y = consistent_label(travel_hierarchy, ["entity:walk"])
    require_consistent(travel_hierarchy, y)
    model.update(np.zeros(4), y, model.scores(np.zeros((1, 4)))[0])
    assert not model.weights.any()
    assert model.bias[travel_hierarchy.index_of("entity:walk")] == 1.0
    assert model.bias[travel_hierarchy.index_of("root")] == 1.0


def test_untrained_model_predicts_all_zeros(travel_hierarchy, model):
    # zero scores count negative, so nothing is asserted
    pred = labels_from_scores(travel_hierarchy, model.scores(np.ones((2, 4))))
    assert pred.shape == (2, len(travel_hierarchy)) and not pred.any()


def test_prediction_repair_suppresses_unsupported_child(travel_hierarchy, model):
    i_child = travel_hierarchy.index_of("entity:walk")
    model.bias[i_child] = 1.0  # raw output: child on, every parent off
    pred = labels_from_scores(travel_hierarchy, model.scores(np.zeros((1, 4))))[0]
    assert pred[i_child] == 0
    assert not pred.any()


def test_prediction_always_consistent_random(travel_hierarchy):
    rng = np.random.default_rng(17)
    model = OnlinePerceptron.zeros(len(travel_hierarchy), 4)
    model.weights[:] = rng.normal(size=model.weights.shape)
    model.bias[:] = rng.normal(size=model.bias.shape)
    for pred in labels_from_scores(travel_hierarchy, model.scores(rng.normal(size=(100, 4)))):
        assert check_consistency(travel_hierarchy, pred) == []


def test_training_deterministic(travel_hierarchy):
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(50, 4))
    y = consistent_label(travel_hierarchy, ["entity:walk"])
    models = []
    for _ in range(2):
        m = OnlinePerceptron.zeros(len(travel_hierarchy), 4)
        for x in xs:
            require_consistent(travel_hierarchy, y)
            m.update(x, y, m.scores([x])[0])
        models.append(m)
    assert np.array_equal(models[0].weights, models[1].weights)
    assert np.array_equal(models[0].bias, models[1].bias)


def test_separable_two_regime_training(travel_hierarchy):
    rng = np.random.default_rng(41)
    h = travel_hierarchy
    y_a = consistent_label(h, ["entity:train_1", "entity:sitting", "entity:take_train"])
    y_b = consistent_label(h, ["entity:roads_2", "entity:walking", "entity:walk"])
    model = OnlinePerceptron.zeros(len(h), 4)
    examples = []
    for i in range(300):
        regime = i % 2
        center = np.array([1.0, 8.0, 15.0, 1.0]) if regime == 0 else np.array([9.0, 2.0, 1.5, 1.0])
        x = center + rng.normal(0, 0.05, size=4)
        y = y_a if regime == 0 else y_b
        examples.append((x, y))
        require_consistent(h, y)
        model.update(x, y, model.scores([x])[0])
    correct = np.zeros(len(h))
    for x, y in examples:
        correct += (labels_from_scores(h, model.scores([x]))[0] == y)
    accuracy = correct / len(examples)
    active = (np.stack([y for _, y in examples]).any(axis=0)).nonzero()[0]
    assert (accuracy[active] >= 0.95).all()
