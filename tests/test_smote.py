"""Class balancing: interpolation geometry and count contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard import ml
from bsmguard.ml import smote_balance

import reference


def test_balanced_input_passes_through():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0, 0, 1, 1])
    Xb, yb = smote_balance(X, y, k=1, seed=0)
    assert np.array_equal(Xb, X)
    assert np.array_equal(yb, y)


def test_two_point_minority_synthetics_on_segment():
    X = np.array([[0.0, 0.0], [1.0, 1.0]] + [[10.0 + i, -5.0] for i in range(10)])
    y = np.array([1, 1] + [0] * 10)
    Xb, yb = smote_balance(X, y, k=1, seed=3)
    synth = Xb[len(Xb) - (sum(yb == 1) - 2) :][yb[len(yb) - (sum(yb == 1) - 2) :] == 1]
    new_points = Xb[np.flatnonzero(yb == 1)][2:]
    assert len(new_points) > 0
    for p in new_points:
        # On the segment between (0,0) and (1,1): both coords equal, in [0,1].
        assert p[0] == pytest.approx(p[1])
        assert 0.0 <= p[0] <= 1.0


def test_nine_to_one_becomes_balanced():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, size=(100, 2))
    y = np.array([0] * 90 + [1] * 10)
    Xb, yb = smote_balance(X, y, k=3, seed=1)
    n0 = int(np.sum(yb == 0))
    n1 = int(np.sum(yb == 1))
    assert abs(n0 - n1) <= 1
    assert n0 == 50 and n1 == 50


def test_single_class_rejected():
    with pytest.raises(ValueError):
        smote_balance(np.zeros((4, 2)), np.array([1, 1, 1, 1]), k=1, seed=0)


def test_tiny_minority_rejected():
    X = np.zeros((5, 2))
    y = np.array([0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="at least 2"):
        smote_balance(X, y, k=1, seed=0)


def test_deterministic_per_seed():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, size=(60, 2))
    y = np.array([0] * 50 + [1] * 10)
    a = smote_balance(X, y, k=2, seed=9)
    b = smote_balance(X, y, k=2, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(2, 12), st.integers(0, 9999))
def test_no_synthetic_majority_and_balance_property(n_major, n_minor, seed):
    if n_minor >= n_major:
        n_major = n_minor + 1
    rng = np.random.default_rng(seed)
    X_maj = rng.normal(0, 1, size=(n_major, 2))
    X_min = rng.normal(50, 1, size=(n_minor, 2))  # far cluster
    X = np.vstack([X_maj, X_min])
    y = np.array([0] * n_major + [1] * n_minor)
    Xb, yb = smote_balance(X, y, k=3, seed=seed)
    n0 = int(np.sum(yb == 0))
    n1 = int(np.sum(yb == 1))
    assert abs(n0 - n1) <= 1
    # Every majority row existed in the input: no synthetic majority points.
    original = {tuple(row) for row in X_maj}
    for row in Xb[yb == 0]:
        assert tuple(row) in original
    # Minority synthetics stay in the minority cluster's convex range.
    assert np.all(Xb[yb == 1][:, 0] > 10)


def assert_same_as_full_sort(X, y, k, seed):
    got = smote_balance(X, y, k=k, seed=seed)
    want = reference.smote_balance(X, y, k=k, seed=seed)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equals_the_full_sort_on_tied_minorities(d):
    # Integer-valued features with duplicated rows: most neighbour lists
    # cut through a run of equal distances.
    rng = np.random.default_rng(300 + d)
    for case in range(120):
        n_min = int(rng.integers(2, 25))
        n_maj = n_min + int(rng.integers(1, 40))
        X = rng.integers(-2, 3, size=(n_min + n_maj, d)).astype(float)
        X[rng.integers(0, len(X), size=len(X) // 4)] = X[-1]
        y = rng.permutation(np.array([1] * n_min + [0] * n_maj))
        # n_min + 3: more neighbours asked for than the minority holds.
        for k in {1, n_min - 1, n_min + 3, int(rng.integers(1, 8))}:
            assert_same_as_full_sort(X, y, k, seed=case)


def test_equals_the_full_sort_on_continuous_features():
    rng = np.random.default_rng(11)
    X = rng.normal(0, 1, size=(260, 2))
    y = np.array([0] * 200 + [1] * 60)
    for k in (1, 5, 59, 100):
        assert_same_as_full_sort(X, y, k, seed=k)


def test_equals_the_full_sort_when_distances_overflow():
    # Squares of 1e200 overflow to inf and tie with the excluded diagonal.
    X = np.array([[0.0, 0.0], [1e200, 0.0], [-1e200, 0.0], [1.0, 1.0]] + [[5.0, 5.0]] * 9)
    y = np.array([1, 1, 1, 1] + [0] * 9)
    with np.errstate(over="ignore"):
        for k in (1, 2, 3):
            assert_same_as_full_sort(X, y, k, seed=k)


def test_one_more_majority_row_adds_no_synthetics():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 0, 1, 1])
    Xb, yb = smote_balance(X, y, k=1, seed=0)
    assert yb.tolist() == [0, 0, 1, 1]
    assert_same_as_full_sort(X, y, 1, seed=0)


@pytest.mark.parametrize("block_rows", [1, 2, 7, 25])
def test_equals_the_full_sort_in_row_blocks(monkeypatch, block_rows):
    # 25 minority rows: blocks of one row, of two, of seven with a short
    # last block, and one block. Duplicated rows put a zero distance right
    # beside each row's own excluded one.
    n_min = 25
    monkeypatch.setattr(ml, "KNN_BLOCK_CELLS", block_rows * n_min + n_min - 1)
    rng = np.random.default_rng(block_rows)
    for case in range(20):
        X = rng.integers(-2, 3, size=(n_min + 40, 2)).astype(float)
        X[rng.integers(0, len(X), size=len(X) // 4)] = X[-1]
        y = rng.permutation(np.array([1] * n_min + [0] * 40))
        for k in (1, 4, n_min - 1):
            assert_same_as_full_sort(X, y, k, seed=case)


def test_memory_stays_far_below_the_minority_distance_matrix():
    # 4,000 minority rows: their full distance matrix alone is 128 MB.
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, size=(8400, 2))
    y = np.array([1] * 4000 + [0] * 4400)
    tracemalloc.start()
    try:
        smote_balance(X, y, k=5, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
