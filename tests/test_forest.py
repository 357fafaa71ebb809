"""Random forest: seeds, the mean of member trees, limits."""

import numpy as np
import pytest

from bsmguard.ml import cart_scores, rf_fit, rf_scores


def make_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 2))
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.4, n)) > 0).astype(int)
    return X, y


def test_seed_reproducibility():
    X, y = make_data(5)
    rng = np.random.default_rng(6)
    queries = rng.normal(0, 1, size=(25, 2))
    a = rf_fit(X, y, n_trees=15, max_depth=4, min_split=4, min_leaf=2, seed=42)
    b = rf_fit(X, y, n_trees=15, max_depth=4, min_split=4, min_leaf=2, seed=42)
    assert rf_scores(a, queries).tolist() == rf_scores(b, queries).tolist()


def test_different_seeds_differ_somewhere():
    X, y = make_data(5)
    a = rf_fit(X, y, n_trees=15, max_depth=4, min_split=4, min_leaf=2, seed=1)
    b = rf_fit(X, y, n_trees=15, max_depth=4, min_split=4, min_leaf=2, seed=2)
    rng = np.random.default_rng(8)
    queries = rng.normal(0, 1, size=(50, 2))
    assert np.any(rf_scores(a, queries) != rf_scores(b, queries))


def test_prediction_is_mean_of_member_probabilities():
    X, y = make_data(9)
    forest = rf_fit(X, y, n_trees=7, max_depth=3, min_split=2, min_leaf=1, seed=0)
    q = [(0.3, -0.2)]
    member = [cart_scores(t, q)[0] for t in forest]
    assert rf_scores(forest, q)[0] == pytest.approx(float(np.mean(member)))


def test_n_trees_validated():
    X, y = make_data(0)
    with pytest.raises(ValueError):
        rf_fit(X, y, n_trees=0)


def test_depth_cap_beyond_data_is_harmless():
    # A 90-deep cap on a small sample cannot be reached; the fit just stops
    # at purity.
    X, y = make_data(2, n=50)
    forest = rf_fit(X, y, n_trees=3, max_depth=90, min_split=2, min_leaf=1, seed=3)
    assert len(forest) == 3
