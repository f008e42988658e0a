from __future__ import annotations

import numpy as np
import pytest

from contextstream.errors import InconsistentLabelError
from contextstream.labels import repair_upward, zeros
from contextstream.learn import (
    OnlinePerceptron,
    QueryStrategy,
    decide_query,
    predict,
    train_step,
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
    assert decide_query(QueryStrategy("always"), np.ones(4), model)


def test_never_strategy(model):
    assert not decide_query(QueryStrategy("never"), np.ones(4), model)


def test_margin_zero_queries_only_boundary(model):
    # zero model: every score is exactly 0 -> on the boundary
    assert decide_query(QueryStrategy("margin", tau=0.0), np.ones(4), model)
    model.bias[:] = 5.0
    assert not decide_query(QueryStrategy("margin", tau=0.0), np.ones(4), model)
    assert decide_query(QueryStrategy("margin", tau=5.0), np.zeros(4), model)


def test_strategy_parsing():
    assert QueryStrategy.parse("always") == QueryStrategy("always")
    assert QueryStrategy.parse("margin:0.25") == QueryStrategy("margin", 0.25)
    with pytest.raises(ValueError):
        QueryStrategy.parse("sometimes")
    with pytest.raises(ValueError):
        QueryStrategy("margin", tau=-1.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_margin_rejects_a_tau_that_is_not_finite(tau):
    """A NaN tau fails every margin comparison, so it would never query."""
    with pytest.raises(ValueError, match="margin tau must be a finite number"):
        QueryStrategy("margin", tau=tau)
    with pytest.raises(ValueError, match="margin tau"):
        QueryStrategy.parse(f"margin:{tau}")


def test_train_step_rejects_inconsistent_labels(travel_hierarchy, model):
    y = zeros(travel_hierarchy)
    y[travel_hierarchy.index_of("entity:walk")] = 1  # parent unset
    with pytest.raises(InconsistentLabelError):
        train_step(model, np.ones(4), y, travel_hierarchy)


def test_repeated_example_mistakes_non_increasing(travel_hierarchy, model):
    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    y = consistent_label(travel_hierarchy, ["entity:walk", "entity:roads_2"])
    mistakes = []
    for _ in range(20):
        before = model.scores(x) > 0
        mistakes.append(int((before != y.astype(bool)).sum()))
        train_step(model, x, y, travel_hierarchy)
    assert all(a >= b for a, b in zip(mistakes, mistakes[1:]))
    assert mistakes[-1] == 0


def test_zero_feature_example_updates_bias_only(travel_hierarchy, model):
    y = consistent_label(travel_hierarchy, ["entity:walk"])
    train_step(model, np.zeros(4), y, travel_hierarchy)
    assert not model.weights.any()
    assert model.bias[travel_hierarchy.index_of("entity:walk")] == 1.0
    assert model.bias[travel_hierarchy.index_of("root")] == 1.0


def test_untrained_model_predicts_all_zeros(travel_hierarchy, model):
    # zero scores count negative, so nothing is asserted
    pred = predict(model, np.ones(4), travel_hierarchy)
    assert not pred.any()


def test_prediction_repair_suppresses_unsupported_child(travel_hierarchy, model):
    i_child = travel_hierarchy.index_of("entity:walk")
    model.bias[i_child] = 1.0  # raw output: child on, every parent off
    pred = predict(model, np.zeros(4), travel_hierarchy)
    assert pred[i_child] == 0
    assert not pred.any()


def test_prediction_always_consistent_random(travel_hierarchy):
    from contextstream.labels import check_consistency

    rng = np.random.default_rng(17)
    model = OnlinePerceptron.zeros(len(travel_hierarchy), 4)
    model.weights[:] = rng.normal(size=model.weights.shape)
    model.bias[:] = rng.normal(size=model.bias.shape)
    for _ in range(100):
        pred = predict(model, rng.normal(size=4), travel_hierarchy)
        assert check_consistency(travel_hierarchy, pred) == []


def test_training_deterministic(travel_hierarchy):
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(50, 4))
    y = consistent_label(travel_hierarchy, ["entity:walk"])
    models = []
    for _ in range(2):
        m = OnlinePerceptron.zeros(len(travel_hierarchy), 4)
        for x in xs:
            train_step(m, x, y, travel_hierarchy)
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
        examples.append((x, y_a if regime == 0 else y_b))
        train_step(model, x, y_a if regime == 0 else y_b, h)
    correct = np.zeros(len(h))
    for x, y in examples:
        correct += (predict(model, x, h) == y)
    accuracy = correct / len(examples)
    active = (np.stack([y for _, y in examples]).any(axis=0)).nonzero()[0]
    assert (accuracy[active] >= 0.95).all()
