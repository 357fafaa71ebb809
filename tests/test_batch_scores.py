"""Batch scores of every family against row-by-row oracles, bit for bit."""

import numpy as np
import pytest

from bsmguard.ml import CartNode, cart_scores, fit_family, rf_fit, rf_scores

import reference


@pytest.mark.parametrize("family", sorted(reference.MODEL_PARAMS))
def test_batch_scores_equal_row_oracle(family):
    X, y = reference.model_data()
    model = fit_family(family, reference.MODEL_PARAMS[family], X, y, seed=3)
    Q = np.random.default_rng(9).normal(0, 1.5, size=(200, 2))
    scores = model.predict_scores(Q)
    assert scores.shape == (200,)
    assert scores.tolist() == [float(v) for v in reference.row_scores(model, Q)]


# ---------------------------------------------------------------------------
# Tree descent edge cases, against the row walk byte for byte
# ---------------------------------------------------------------------------


def tree_oracles(trees, Q):
    """The one-tree and forest scores of ``Q`` by the row walk, as float arrays."""
    cart = np.array([reference.walk(trees[0], q) for q in Q], dtype=float)
    forest = np.array([reference.forest_score(trees, q) for q in Q], dtype=float)
    return cart, forest


def assert_descent_matches_walk(trees, Q):
    cart, forest = tree_oracles(trees, Q)
    assert cart_scores(trees[0], Q).tobytes() == cart.tobytes()
    assert rf_scores(trees, Q).tobytes() == forest.tobytes()


def leaf(p1):
    return CartNode(impurity=0.0, counts=(1.0 - p1, p1), n_samples=1, probs=(1.0 - p1, p1))


def test_one_leaf_tree():
    Q = np.random.default_rng(1).normal(0, 1, size=(30, 2))
    assert_descent_matches_walk([leaf(0.25), leaf(1.0), leaf(0.0)], Q)
    assert cart_scores(leaf(0.25), Q).tolist() == [0.25] * 30


def test_rows_on_a_threshold_go_left():
    stump = CartNode(impurity=0.5, counts=(1.0, 1.0), n_samples=2, feature=1, threshold=0.5,
                     left=leaf(0.0), right=leaf(1.0))
    Q = np.array([[9.0, 0.5], [9.0, np.nextafter(0.5, 1.0)], [-9.0, np.nextafter(0.5, 0.0)]])
    assert cart_scores(stump, Q).tolist() == [0.0, 1.0, 0.0]
    # Every split of fitted trees, probed exactly at its threshold.
    X, y = reference.model_data()
    trees = rf_fit(X, y, n_trees=5, max_depth=6, min_split=2, min_leaf=1, seed=2)
    rows, todo = [], list(trees)
    while todo:
        node = todo.pop()
        if not node.is_leaf:
            for other in X[:3]:
                row = other.copy()
                row[node.feature] = node.threshold
                rows.append(row)
            todo += (node.left, node.right)
    assert_descent_matches_walk(trees, np.array(rows))


def test_zero_rows():
    X, y = reference.model_data()
    trees = rf_fit(X, y, n_trees=4, max_depth=4, seed=1)
    Q = np.empty((0, 2))
    assert cart_scores(trees[0], Q).shape == (0,)
    assert rf_scores(trees, Q).shape == (0,)
    assert_descent_matches_walk(trees, Q)


def test_forty_deep_trees_on_overlapping_classes():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, size=(400, 2))
    y = (X[:, 0] + rng.normal(0, 2.0, 400) > 0).astype(int)  # heavily overlapping
    trees = rf_fit(X, y, n_trees=40, max_depth=90, min_split=2, min_leaf=1, seed=6)
    Q = np.concatenate([X[:100], rng.normal(0, 1.5, size=(200, 2))])
    assert max(reference.tree_depth(t) for t in trees) > 10
    assert_descent_matches_walk(trees, Q)
