"""Random forest: seeds, the mean of member trees, limits, and the oracle
that every tree grown in a block is the tree ``cart_fit`` grows alone."""

import tracemalloc

import numpy as np
import pytest

from bsmguard import ml
from bsmguard.ml import cart_fit, cart_scores, class_weights, rf_fit, rf_scores

from test_model_io import _tree_to_dict


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


def test_unknown_criterion_rejected():
    X, y = make_data(0)
    with pytest.raises(ValueError, match="unknown criterion 'Gini'"):
        rf_fit(X, y, n_trees=2, criterion="Gini")


def test_depth_cap_beyond_data_is_harmless():
    # A 90-deep cap on a small sample cannot be reached; the fit just stops
    # at purity.
    X, y = make_data(2, n=50)
    forest = rf_fit(X, y, n_trees=3, max_depth=90, min_split=2, min_leaf=1, seed=3)
    assert len(forest) == 3


def bootstraps(n, n_trees, seed):
    """The row indices ``rf_fit`` draws for each tree."""
    children = np.random.SeedSequence(seed).spawn(n_trees)
    return [np.random.default_rng(ss).integers(0, n, size=n) for ss in children]


def assert_trees_match_cart(X, y, n_trees, seed, weights, **params):
    forest = rf_fit(X, y, n_trees=n_trees, seed=seed, weights=weights, **params)
    assert len(forest) == n_trees
    for tree, idx in zip(forest, bootstraps(len(y), n_trees, seed)):
        alone = cart_fit(X[idx], y[idx], weights=weights, **params)
        assert repr(_tree_to_dict(tree)) == repr(_tree_to_dict(alone))


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("max_depth", [0, 1, 90])
@pytest.mark.parametrize("min_leaf", [1, 4])
def test_every_tree_is_cart_on_its_bootstrap(criterion, weighted, max_depth, min_leaf):
    X, y = make_data(11, n=80)
    X = np.round(X, 1)  # ties inside nodes
    weights = class_weights(y) if weighted else None
    # 80 rows: every tree of the forest shares one block.
    assert ml.RF_BLOCK_ROWS // 80 >= 9
    assert_trees_match_cart(X, y, 9, 4, weights, criterion=criterion,
                            max_depth=max_depth, min_split=2, min_leaf=min_leaf)


@pytest.mark.parametrize("weighted", [False, True])
def test_bootstrap_without_the_minority_class(weighted):
    X, y = make_data(3, n=40)
    y[:] = 0
    y[7] = 1  # one attack row, which some bootstraps miss
    missing = [not y[idx].any() for idx in bootstraps(40, 12, 5)]
    assert any(missing) and not all(missing)
    weights = class_weights(y) if weighted else None
    assert_trees_match_cart(X, y, 12, 5, weights, criterion="gini", max_depth=90,
                            min_split=2, min_leaf=1)


def test_trees_not_a_multiple_of_the_block():
    n = ml.RF_BLOCK_ROWS // 3 + 1  # two trees per block
    assert ml.RF_BLOCK_ROWS // n == 2
    X, y = make_data(6, n=n)
    assert_trees_match_cart(X, y, 5, 8, class_weights(y), criterion="gini",
                            max_depth=6, min_split=12, min_leaf=5)


def test_more_rows_than_the_block_holds():
    n = ml.RF_BLOCK_ROWS + 1  # one tree per block
    X, y = make_data(7, n=n)
    assert_trees_match_cart(X, y, 2, 9, class_weights(y), criterion="entropy",
                            max_depth=4, min_split=2, min_leaf=3)


def test_forest_heap_peak_stays_bounded():
    # A 40-tree forest on 800 rows holds about 2.1 MiB when grown (its trees
    # and the cached class totals; growing each tree alone peaked at 2.5
    # MiB), and one block of RF_BLOCK_ROWS rows adds about 1.3 MiB of
    # level-pass temporaries: 3.5 MiB. Growing all 40 trees in one block
    # (32,000 rows) peaks near 12 MiB.
    X, y = make_data(0, n=800)
    tracemalloc.start()
    try:
        rf_fit(X, y, n_trees=40, max_depth=90, min_split=12, min_leaf=5,
               weights=class_weights(y))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"rf_fit peaked at {peak / 2**20:.2f} MiB"
