"""CART: impurity fixtures, split-scan oracle, structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.ml import (
    LABEL_CUT,
    CartNode,
    _impurity_vec,
    cart_fit,
    cart_scores,
    class_weights,
)

import reference


class TestImpurity:
    def test_pure_node_is_zero(self):
        assert reference.impurity((7, 0), "gini") == 0.0
        assert reference.impurity((7, 0), "entropy") == 0.0

    def test_even_split(self):
        assert reference.impurity((5, 5), "gini") == pytest.approx(0.5)
        assert reference.impurity((5, 5), "entropy") == pytest.approx(1.0)

    def test_three_one(self):
        assert reference.impurity((3, 1), "gini") == pytest.approx(0.375)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            reference.impurity((0, 0), "gini")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            reference.impurity((1, 1), "misc")


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@pytest.mark.parametrize("counts", [(7, 0), (0, 7), (5, 5), (3, 1), (1, 3)])
def test_impurity_vec_equals_the_fixtures_oracle(counts, criterion):
    got = _impurity_vec(np.array([float(counts[0])]), np.array([float(counts[1])]), criterion)
    assert got.shape == (1,)
    assert float(got[0]) == reference.impurity(counts, criterion)


def test_impurity_vec_gives_zero_for_an_empty_node():
    # The oracle rejects all-zero counts; the vector form defines them as 0.
    for criterion in ("gini", "entropy"):
        assert _impurity_vec(np.zeros(1), np.zeros(1), criterion).tolist() == [0.0]


def test_cart_fit_rejects_an_unknown_criterion():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="unknown criterion 'misc'"):
        cart_fit(X, y, criterion="misc")


def iter_nodes(node: CartNode):
    yield node
    if not node.is_leaf:
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)


def test_linearly_separable_single_feature_depth_one():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = cart_fit(X, y, criterion="gini")
    assert reference.tree_depth(tree) == 1
    assert ((cart_scores(tree, X) > LABEL_CUT) == y).all()


def test_xor_needs_depth_two_and_fits_exactly():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = cart_fit(X, y, criterion="gini", min_split=2, min_leaf=1)
    assert reference.tree_depth(tree) == 2
    assert ((cart_scores(tree, X) > LABEL_CUT) == y).all()


def test_root_split_gain_matches_brute_enumeration():
    rng = np.random.default_rng(13)
    for criterion in ("gini", "entropy"):
        for _ in range(20):
            X = rng.normal(0, 1, size=(30, 2))
            y = rng.integers(0, 2, size=30)
            if len(set(y.tolist())) < 2:
                continue
            w = np.ones(30)
            tree = cart_fit(X, y, criterion=criterion, max_depth=1)
            if tree.is_leaf:
                assert reference.brute_best_root_gain(X, y, w, criterion) <= 1e-12
                continue
            got = reference.root_gain(X, y, w, criterion, tree)
            want = reference.brute_best_root_gain(X, y, w, criterion)
            assert got == pytest.approx(want, abs=1e-12)


def test_class_weights_affect_split_counts():
    y = np.array([0] * 9 + [1])
    w = class_weights(y)
    assert w[1] == pytest.approx(9 * w[0])


def test_leaf_probabilities_sum_to_one_and_counts_compose():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(80, 2))
    y = (X[:, 0] + rng.normal(0, 0.3, 80) > 0).astype(int)
    tree = cart_fit(X, y, criterion="entropy", weights=class_weights(y))
    for node in iter_nodes(tree):
        if node.is_leaf:
            assert sum(node.probs) == pytest.approx(1.0)
        else:
            assert node.left.n_samples + node.right.n_samples == node.n_samples


def test_min_leaf_respected():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(50, 2))
    y = rng.integers(0, 2, size=50)
    tree = cart_fit(X, y, min_leaf=8)
    for node in iter_nodes(tree):
        if node.is_leaf:
            assert node.n_samples >= 8 or node.n_samples == 50


def test_labels_other_than_zero_and_one_rejected():
    with pytest.raises(ValueError, match="0 or 1"):
        cart_fit(np.zeros((3, 1)), np.array([0, 1, 2]))


def test_input_without_feature_columns_rejected():
    with pytest.raises(ValueError, match="feature column"):
        cart_fit(np.zeros((3, 0)), np.array([0, 1, 0]))


def test_stops_when_no_gain():
    # identical features with mixed labels: no split can help
    X = np.zeros((6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    tree = cart_fit(X, y)
    assert tree.is_leaf
    assert tree.probs == pytest.approx((0.5, 0.5))


def test_duplicated_training_set_scores_as_the_original():
    # Doubling every sample doubles every count, which leaves every split
    # decision and every leaf probability unchanged.
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, size=(40, 2))
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 0.4, 40)) > 0).astype(int)
    tree = cart_fit(X, y, criterion="gini", max_depth=4, min_split=2, min_leaf=1)
    doubled = cart_fit(np.vstack([X, X]), np.concatenate([y, y]),
                       criterion="gini", max_depth=4, min_split=2, min_leaf=1)
    Q = np.random.default_rng(4).normal(0, 1.5, size=(40, 2))
    assert cart_scores(doubled, Q).tolist() == cart_scores(tree, Q).tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 9999))
def test_deeper_trees_never_increase_training_error(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(60, 2))
    y = ((X[:, 0] * X[:, 1] + rng.normal(0, 0.5, 60)) > 0).astype(int)
    if len(set(y.tolist())) < 2:
        return
    errors = []
    for depth in (1, 2, 4, 8):
        tree = cart_fit(X, y, criterion="gini", max_depth=depth)
        errors.append(int(np.sum((cart_scores(tree, X) > LABEL_CUT) != y)))
    assert all(a >= b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# Per-node reference (reference.reference_cart_fit): each node re-sorts its
# own rows and scans every candidate in (feature, threshold) order. cart_fit
# must build the same trees, bit for bit.
# ---------------------------------------------------------------------------


def oracle_case(seed):
    """Seeded fit arguments; the seed's residues pick what the case covers."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 160))
    X = rng.normal(0.0, 1.0, size=(n, 1 + seed % 3))
    if seed % 4 < 2:  # ties and plateaus of equal gains
        X = np.round(X, int(rng.integers(0, 2)))
    y = (X[:, 0] + rng.normal(0.0, 1.0, n) > 0.5).astype(int)
    weighting = seed // 3 % 3
    if weighting == 2:  # a forest's bootstrap: duplicated rows
        idx = rng.integers(0, n, size=n)
        X, y = X[idx], y[idx]
    special = seed % 10
    if special == 7:
        y = np.full(n, seed // 10 % 2)
    kwargs = dict(
        criterion=("gini", "entropy")[seed % 2],
        max_depth=0 if special == 8 else int(rng.choice([1, 3, 8, 90])),
        min_split=int(rng.integers(1, 13)),
        min_leaf=n // 2 + 1 if special == 9 else int(rng.integers(1, 6)),
        weights=None if weighting == 0 else class_weights(y),
    )
    return X, y, kwargs


def test_trees_equal_the_per_node_reference_bit_for_bit():
    differ = []
    for seed in range(320):
        X, y, kwargs = oracle_case(seed)
        got = repr(reference.tree_to_dict(cart_fit(X, y, **kwargs)))
        if got != repr(reference.tree_to_dict(reference.reference_cart_fit(X, y, **kwargs))):
            differ.append(seed)
    assert differ == []


def test_near_tie_keeps_the_first_candidate():
    # Both outer splits isolate one pure row, so their gains are equal in
    # exact arithmetic; in floating point the later one is 5.6e-17 higher.
    X = np.arange(8.0)[:, None]
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    gains = [c[0] for c in reference.reference_split_gains(X, y, np.ones(8), "gini", 1)]
    assert 0.0 < gains[-1] - gains[0] < 1e-15
    assert max(gains) == gains[-1]
    tree = cart_fit(X, y, criterion="gini", max_depth=1)
    assert tree.threshold == 0.5
    assert repr(reference.tree_to_dict(tree)) == repr(
        reference.tree_to_dict(reference.reference_cart_fit(X, y, "gini", 1, 2, 1, None))
    )
