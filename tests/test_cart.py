"""CART: impurity fixtures, split-scan oracle, structural invariants."""

import math
from collections.abc import Sequence

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

from test_model_io import _tree_to_dict


def impurity(counts: Sequence[float], criterion: str = "gini") -> float:
    """Node impurity from (possibly weighted) per-class counts, the scalar
    reference for ``ml._impurity_vec``.

    gini is sum_{c1 != c2} p(c1) p(c2); entropy is the usual -sum p log2 p.
    All-zero counts are rejected.
    """
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("impurity needs at least one counted sample")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    p = [float(c) / total for c in counts]
    if criterion == "gini":
        value = 0.0
        for c1 in range(len(p)):
            for c2 in range(len(p)):
                if c1 == c2:
                    continue
                value += p[c1] * p[c2]
        return value
    if criterion == "entropy":
        return -sum(pi * math.log2(pi) for pi in p if pi > 0.0)
    raise ValueError(f"unknown criterion {criterion!r}")


class TestImpurity:
    def test_pure_node_is_zero(self):
        assert impurity((7, 0), "gini") == 0.0
        assert impurity((7, 0), "entropy") == 0.0

    def test_even_split(self):
        assert impurity((5, 5), "gini") == pytest.approx(0.5)
        assert impurity((5, 5), "entropy") == pytest.approx(1.0)

    def test_three_one(self):
        assert impurity((3, 1), "gini") == pytest.approx(0.375)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            impurity((0, 0), "gini")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            impurity((1, 1), "misc")


def test_cart_fit_rejects_an_unknown_criterion():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match="unknown criterion 'misc'"):
        cart_fit(X, y, criterion="misc")


def tree_depth(node: CartNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def iter_nodes(node: CartNode):
    yield node
    if not node.is_leaf:
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)


def brute_best_root_gain(X, y, w, criterion):
    """Exhaustive oracle: enumerate every midpoint of every feature and
    compute the weighted impurity decrease directly."""

    def imp(idx):
        w0 = sum(w[i] for i in idx if y[i] == 0)
        w1 = sum(w[i] for i in idx if y[i] == 1)
        if w0 + w1 == 0:
            return 0.0, 0.0
        return impurity((w0, w1), criterion), w0 + w1

    all_idx = list(range(len(y)))
    parent, total = imp(all_idx)
    best = 0.0
    for j in range(X.shape[1]):
        values = sorted(set(X[:, j]))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2
            left = [i for i in all_idx if X[i, j] <= thr]
            right = [i for i in all_idx if X[i, j] > thr]
            il, wl = imp(left)
            ir, wr = imp(right)
            gain = parent - (wl / total) * il - (wr / total) * ir
            best = max(best, gain)
    return best


def root_gain(X, y, w, criterion, tree):
    w0 = sum(w[i] for i in range(len(y)) if y[i] == 0)
    w1 = sum(w[i] for i in range(len(y)) if y[i] == 1)
    total = w0 + w1
    parent = impurity((w0, w1), criterion)
    left = [i for i in range(len(y)) if X[i, tree.feature] <= tree.threshold]
    right = [i for i in range(len(y)) if X[i, tree.feature] > tree.threshold]

    def imp(idx):
        a = sum(w[i] for i in idx if y[i] == 0)
        b = sum(w[i] for i in idx if y[i] == 1)
        return impurity((a, b), criterion), a + b

    il, wl = imp(left)
    ir, wr = imp(right)
    return parent - (wl / total) * il - (wr / total) * ir


def test_linearly_separable_single_feature_depth_one():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = cart_fit(X, y, criterion="gini")
    assert tree_depth(tree) == 1
    assert ((cart_scores(tree, X) > LABEL_CUT) == y).all()


def test_xor_needs_depth_two_and_fits_exactly():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = cart_fit(X, y, criterion="gini", min_split=2, min_leaf=1)
    assert tree_depth(tree) == 2
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
                assert brute_best_root_gain(X, y, w, criterion) <= 1e-12
                continue
            got = root_gain(X, y, w, criterion, tree)
            want = brute_best_root_gain(X, y, w, criterion)
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
# Per-node reference: each node re-sorts its own rows and scans every
# candidate in (feature, threshold) order. cart_fit must build the same
# trees, bit for bit.
# ---------------------------------------------------------------------------


def reference_split_gains(X, y, w, criterion, min_leaf):
    """Every candidate of one node as (gain, feature, threshold, left_rows)."""
    n = len(y)
    w0_total = float(np.sum(w[y == 0]))
    w1_total = float(np.sum(w[y == 1]))
    total = w0_total + w1_total
    parent = float(_impurity_vec(np.array([w0_total]), np.array([w1_total]), criterion)[0])
    out = []
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        ws = w[order]
        cum0 = np.cumsum(np.where(ys == 0, ws, 0.0))
        cum1 = np.cumsum(np.where(ys == 1, ws, 0.0))
        boundary = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        boundary = boundary[(boundary >= min_leaf) & (boundary <= n - min_leaf)]
        left0 = cum0[boundary - 1]
        left1 = cum1[boundary - 1]
        right0 = w0_total - left0
        right1 = w1_total - left1
        wl = (left0 + left1) / total
        wr = (right0 + right1) / total
        gains = (
            parent
            - wl * _impurity_vec(left0, left1, criterion)
            - wr * _impurity_vec(right0, right1, criterion)
        )
        for pos, gain in zip(boundary, gains):
            out.append((gain, j, float((xs[pos - 1] + xs[pos]) / 2.0), order[:pos]))
    return out


def reference_cart_fit(X, y, criterion, max_depth, min_split, min_leaf, weights):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.array([1.0 if weights is None else float(weights[int(c)]) for c in y])

    def build(idx, depth):
        ys, ws = y[idx], w[idx]
        w0 = float(np.sum(ws[ys == 0]))
        w1 = float(np.sum(ws[ys == 1]))
        total = w0 + w1
        node = CartNode(
            impurity=float(_impurity_vec(np.array([w0]), np.array([w1]), criterion)[0]),
            counts=(w0, w1),
            n_samples=len(idx),
        )
        best = None
        if depth < max_depth and len(idx) >= min_split and w0 != 0.0 and w1 != 0.0:
            for cand in reference_split_gains(X[idx], ys, ws, criterion, min_leaf):
                if best is None or cand[0] > best[0] + 1e-15:
                    best = (float(cand[0]),) + cand[1:]
        if best is None:
            node.probs = (w0 / total, w1 / total)
            return node
        _, node.feature, node.threshold, left_rows = best
        left_mask = np.zeros(len(idx), dtype=bool)
        left_mask[left_rows] = True
        node.left = build(idx[left_mask], depth + 1)
        node.right = build(idx[~left_mask], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


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
        got = repr(_tree_to_dict(cart_fit(X, y, **kwargs)))
        if got != repr(_tree_to_dict(reference_cart_fit(X, y, **kwargs))):
            differ.append(seed)
    assert differ == []


def test_near_tie_keeps_the_first_candidate():
    # Both outer splits isolate one pure row, so their gains are equal in
    # exact arithmetic; in floating point the later one is 5.6e-17 higher.
    X = np.arange(8.0)[:, None]
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    gains = [c[0] for c in reference_split_gains(X, y, np.ones(8), "gini", 1)]
    assert 0.0 < gains[-1] - gains[0] < 1e-15
    assert max(gains) == gains[-1]
    tree = cart_fit(X, y, criterion="gini", max_depth=1)
    assert tree.threshold == 0.5
    assert repr(_tree_to_dict(tree)) == repr(
        _tree_to_dict(reference_cart_fit(X, y, "gini", 1, 2, 1, None))
    )
