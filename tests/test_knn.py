"""KNN against the exhaustive distance-sort oracle, ``reference.knn_scores``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard import ml
from bsmguard.ml import _nearest, knn_predict, knn_scores

import reference


def test_k1_on_training_point():
    X = np.array([[0.0, 0.0], [5.0, 5.0]])
    y = np.array([1, 0])
    label, score = knn_predict(X, y, (0.0, 0.0), k=1)
    assert label == 1 and score == 1.0


def test_k_equals_n_gives_global_majority():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [50.0, 50.0]])
    y = np.array([0, 0, 0, 1, 1])
    label, score = knn_predict(X, y, (100.0, 100.0), k=5)
    assert label == 0
    assert score == pytest.approx(2 / 5)


def test_distance_tie_broken_by_index():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    y = np.array([1, 0, 0])
    # both (1,0) and (-1,0) are at distance 1; index 0 wins the single slot
    label, score = knn_predict(X, y, (0.0, 0.0), k=1)
    assert label == 1 and score == 1.0


def test_matches_brute_oracle_on_query_grid():
    rng = np.random.default_rng(77)
    for _ in range(5):
        X = rng.normal(0, 1, size=(40, 2))
        y = rng.integers(0, 2, size=40)
        for _ in range(50):
            q = tuple(rng.normal(0, 1.5, 2))
            assert knn_predict(X, y, q, k=19) == reference.knn_predict(X, y, q, 19)


def test_empty_train_rejected():
    with pytest.raises(ValueError):
        knn_predict(np.zeros((0, 2)), np.zeros(0, dtype=int), (0.0, 0.0), k=1)


def test_k_out_of_range():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    with pytest.raises(ValueError):
        knn_predict(X, y, (0.0, 0.0), k=4)
    with pytest.raises(ValueError):
        knn_predict(X, y, (0.0, 0.0), k=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.integers(0, 9999))
def test_score_quantized_and_permutation_invariant(k, seed):
    rng = np.random.default_rng(seed)
    n = 15
    X = rng.normal(0, 1, size=(n, 2))  # continuous draws: ties improbable
    y = rng.integers(0, 2, size=n)
    q = tuple(rng.normal(0, 1, 2))
    label, score = knn_predict(X, y, q, k=k)
    assert any(abs(score - i / k) < 1e-12 for i in range(k + 1))
    perm = rng.permutation(n)
    label_p, score_p = knn_predict(X[perm], y[perm], q, k=k)
    assert (label_p, score_p) == (label, score)


def tie_heavy_case(rng, n, d):
    """Integer-valued features on a small grid with duplicated rows, so most
    distance rows hold runs of equal values across the kth place."""
    X = rng.integers(-2, 3, size=(n, d)).astype(float)
    X[rng.integers(0, n, size=n // 3)] = X[0]
    y = rng.integers(0, 2, size=n)
    Q = rng.integers(-3, 4, size=(int(rng.integers(1, 30)), d)).astype(float)
    return X, y, Q


def test_knn_scores_by_hand_with_ties():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [3.0, 3.0]])
    y = np.array([0, 1, 1, 1, 1])
    Q = np.array([[0.0, 0.0], [3.0, 3.0]])
    # (0, 0): four rows tie at distance 1 and the lowest indices fill the places.
    assert knn_scores(X, y, Q, 1).tolist() == [0.0, 1.0]
    assert knn_scores(X, y, Q, 2).tolist() == [0.5, 0.5]
    assert knn_scores(X, y, Q, 3).tolist() == [2 / 3, 2 / 3]
    assert knn_scores(X, y, Q, 5).tolist() == [0.8, 0.8]


def test_knn_scores_match_knn_predict_row_by_row():
    rng = np.random.default_rng(3)
    X, y, Q = tie_heavy_case(rng, 30, 2)
    scores = knn_scores(X, y, Q, 7)
    assert [knn_predict(X, y, q, 7) for q in Q] == [(int(s > 0.5), float(s)) for s in scores]


def test_knn_scores_k_out_of_range():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    for k in (0, 4):
        with pytest.raises(ValueError, match=r"k must be in \[1, 3\]"):
            knn_scores(X, y, np.zeros((2, 2)), k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_scores_equal_the_full_sort_on_ties(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(150):
        n = int(rng.integers(1, 40))
        X, y, Q = tie_heavy_case(rng, n, d)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            assert np.array_equal(knn_scores(X, y, Q, k), reference.knn_scores(X, y, Q, k))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_scores_equal_the_full_sort_across_blocks(d):
    rng = np.random.default_rng(200 + d)
    n = 700
    X = np.round(rng.normal(0, 1, size=(n, d)), 1)  # rounded: ties at every k
    y = rng.integers(0, 2, size=n)
    Q = np.round(rng.normal(0, 1.2, size=(150, d)), 1)
    assert ml.KNN_BLOCK_CELLS // n < len(Q) / 5  # more than five query blocks
    for k in (1, 5, 19, n):
        assert np.array_equal(knn_scores(X, y, Q, k), reference.knn_scores(X, y, Q, k))


def test_nearest_is_the_head_of_a_stable_argsort():
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 25))
        d2 = rng.integers(0, 4, size=(rows, cols)).astype(float)
        d2[rng.random(d2.shape) < 0.1] = np.inf  # overflowed distances tie too
        k = int(rng.integers(1, cols + 1))
        expected = np.zeros(d2.shape, dtype=bool)
        np.put_along_axis(expected, np.argsort(d2, axis=1, kind="stable")[:, :k], True, axis=1)
        assert np.array_equal(_nearest(d2, k), expected)
