from __future__ import annotations

import numpy as np
import pytest

from contextstream.metrics import MetricsAccumulator, evaluate

from conftest import per_node_accuracy, reference_evaluate


def test_identical_predictions_score_one():
    y = np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
    m = evaluate(y, y, node_ids=["a", "b", "root"])
    assert m["hierarchical_precision"] == 1.0
    assert m["hierarchical_recall"] == 1.0
    assert m["hierarchical_f1"] == 1.0
    assert m["exact_match"] == 1.0
    assert m["hamming_accuracy"] == 1.0


def test_all_zero_predictions_have_zero_recall():
    truth = np.array([[1, 1, 1], [0, 1, 1]], dtype=np.uint8)
    preds = np.zeros_like(truth)
    m = evaluate(preds, truth)
    assert m["hierarchical_recall"] == 0.0
    assert m["hierarchical_f1"] == 0.0


# hand computation for a three-example chain a -> b -> root:
#   (pred, truth) pairs: ([1,1,1],[1,1,1]), ([0,1,1],[1,1,1]), ([0,0,0],[0,1,1])
#   intersections 3+2+0=5, predicted 3+2+0=5, true 3+3+2=8
#   hP = 1.0, hR = 5/8 = 0.625, hF1 = 10/13, exact = 1/3, hamming = 6/9
HAND_PREDS = np.array([[1, 1, 1], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
HAND_TRUTH = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]], dtype=np.uint8)


def test_hand_computed_three_example_fixture():
    m = evaluate(HAND_PREDS, HAND_TRUTH, node_ids=["a", "b", "root"])
    assert m["hierarchical_precision"] == pytest.approx(1.0)
    assert m["hierarchical_recall"] == pytest.approx(0.625)
    assert m["hierarchical_f1"] == pytest.approx(10 / 13)
    assert m["exact_match"] == pytest.approx(1 / 3)
    assert m["hamming_accuracy"] == pytest.approx(6 / 9)
    assert m["per_node"]["a"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 1}
    assert m["per_node"]["b"] == {"tp": 2, "fp": 0, "fn": 1, "tn": 0}
    assert m["per_node"]["root"] == {"tp": 2, "fp": 0, "fn": 1, "tn": 0}
    assert m["n_examples"] == 3


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate(HAND_PREDS, HAND_TRUTH[:2])
    with pytest.raises(ValueError):
        evaluate(np.zeros(3), np.zeros(3))  # not matrices
    for names in (["a", "b"], ["a", "b", "root", "extra"]):
        with pytest.raises(ValueError, match="node ids for 3 columns"):
            evaluate(HAND_PREDS, HAND_TRUTH, node_ids=names)


def test_empty_against_empty_is_vacuously_perfect():
    empty = np.zeros((2, 3), dtype=np.uint8)
    m = evaluate(empty, empty)
    assert m["hierarchical_precision"] == 1.0
    assert m["hierarchical_recall"] == 1.0
    assert m["hamming_accuracy"] == 1.0


def test_per_node_accuracy_window():
    acc = per_node_accuracy(HAND_PREDS, HAND_TRUTH)
    assert acc.tolist() == pytest.approx([2 / 3, 2 / 3, 2 / 3])
    acc_last = per_node_accuracy(HAND_PREDS, HAND_TRUTH, last=1)
    assert acc_last.tolist() == pytest.approx([1.0, 0.0, 0.0])


@pytest.mark.parametrize("rows, cols", [(0, 4), (5, 0), (0, 0), (1, 1), (7, 3), (40, 25)])
def test_evaluate_matches_the_cell_by_cell_oracle(rows, cols):
    """Every count and ratio, and the dict's repr, equal a loop over the
    cells, at sparse, dense and mixed densities, empty shapes included."""
    rng = np.random.default_rng(rows * 100 + cols)
    names = [f"n{j}" for j in range(cols)]
    for p_density, t_density in ((0.1, 0.1), (0.9, 0.5), (0.0, 0.3), (0.5, 0.0), (0.0, 0.0)):
        preds = (rng.random((rows, cols)) < p_density).astype(np.uint8)
        truths = (rng.random((rows, cols)) < t_density).astype(np.uint8)
        truths[: rows // 2] = preds[: rows // 2]  # some rows match exactly
        got, expected = evaluate(preds, truths, node_ids=names), reference_evaluate(
            preds, truths, names)
        assert got == expected
        assert repr(got) == repr(expected)


def _split(rng, rows: int) -> list[int]:
    """Random cut points of `rows` rows into blocks, empty blocks included."""
    return sorted(rng.integers(0, rows + 1, size=rng.integers(0, 6)).tolist())


@pytest.mark.parametrize("rows, cols", [(0, 4), (5, 0), (0, 0), (1, 1), (7, 3), (40, 25),
                                        (33, 8), (64, 1)])
def test_the_accumulator_fed_blocks_matches_the_cell_by_cell_oracle(rows, cols):
    """Random matrices cut into random blocks, some sharing one truth row,
    count to the oracle's dict by `==` and by `repr`; the queries and rows
    add up too."""
    rng = np.random.default_rng(rows * 1000 + cols + 1)
    names = [f"n{j}" for j in range(cols)]
    for p_density, t_density in ((0.1, 0.1), (0.9, 0.5), (0.0, 0.3), (0.5, 0.0), (0.0, 0.0)):
        preds = (rng.random((rows, cols)) < p_density).astype(np.uint8)
        truths = (rng.random((rows, cols)) < t_density).astype(np.uint8)
        truths[: rows // 2] = preds[: rows // 2]
        cuts = [0, *_split(rng, rows), rows]
        counts = MetricsAccumulator(cols)
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1 and rng.random() < 0.5:
                truths[a:b] = truths[a]  # a block whose windows share one truth
                counts.add(preds[a:b], truths[a], queries=(b - a) // 2)
            else:
                counts.add(preds[a:b], truths[a:b], queries=(b - a) // 2)
        expected = reference_evaluate(preds, truths, names)
        got = counts.result(names)
        assert got == expected
        assert repr(got) == repr(expected)
        assert counts.session_result(names) == {
            **expected, "n_windows": rows,
            "n_queries": sum((b - a) // 2 for a, b in zip(cuts, cuts[1:]))}


def test_the_accumulator_refuses_rows_of_another_width():
    counts = MetricsAccumulator(3)
    for preds, truth in ((np.zeros((2, 4)), np.zeros(4)), (np.zeros(3), np.zeros(3)),
                         (np.zeros((2, 3)), np.zeros(2))):
        with pytest.raises(ValueError):
            counts.add(preds, truth)
    assert counts.rows == 0
