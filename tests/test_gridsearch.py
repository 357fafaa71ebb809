"""Grid search: selection oracle, fold hygiene, leakage poisoning."""

import numpy as np
import pytest

from bsmguard.ml import (
    expand_grid,
    fit_family,
    grid_search,
    knn_predict,
    smote_balance,
    stratified_folds,
)


def blob_data(seed=0, n=200, imbalance=0.5):
    rng = np.random.default_rng(seed)
    n1 = int(n * imbalance)
    n0 = n - n1
    X = np.vstack(
        [rng.normal(-1.0, 0.8, size=(n0, 2)), rng.normal(1.0, 0.8, size=(n1, 2))]
    )
    y = np.array([0] * n0 + [1] * n1)
    return X, y


def test_expand_grid_order():
    cells = expand_grid({"a": [1, 2], "b": ["x", "y"]})
    assert cells == [
        {"a": 1, "b": "x"},
        {"a": 1, "b": "y"},
        {"a": 2, "b": "x"},
        {"a": 2, "b": "y"},
    ]


def test_stratified_folds_cover_and_balance():
    y = np.array([0] * 40 + [1] * 10)
    folds = stratified_folds(y, 5, seed=1)
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(50))
    for f in folds:
        assert np.sum(y[f] == 1) == 2  # 10 minority over 5 folds


def test_infeasible_stratification_rejected():
    y = np.array([0] * 20 + [1] * 3)
    with pytest.raises(ValueError, match="infeasible"):
        stratified_folds(y, 5, seed=0)


def test_single_cell_returns_it():
    X, y = blob_data(2)
    result = grid_search("knn", ({"k": 5},), X, y, seed=0)
    assert result.best_params == {"k": 5}
    assert 0.0 <= result.best_accuracy <= 1.0
    assert len(result.cells) == 1
    assert len(result.cells[0].fold_accuracies) == 5


def test_degenerate_cell_loses():
    X, y = blob_data(3)
    # k = len(train fold) makes KNN a constant majority-class classifier;
    # on balanced data it scores ~0.5 and the real cell wins.
    result = grid_search("knn", ({"k": 160}, {"k": 5}), X, y, seed=0)
    assert result.best_params == {"k": 5}


def test_matches_hand_rolled_cv_loop():
    X, y = blob_data(4)
    folds = stratified_folds(y, 5, seed=9)
    result = grid_search("knn", ({"k": 1}, {"k": 19}), X, y, seed=9, folds_idx=folds)

    # Independent CV loop sharing only the deterministic fold assignment and
    # per-fold sub-seed derivation.
    all_idx = np.arange(len(y))
    means = []
    for c_i, k in enumerate((1, 19)):
        accs = []
        for f_i, val_idx in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, val_idx)
            sub_seed = int(np.random.SeedSequence((9, c_i, f_i)).generate_state(1)[0])
            Xb, yb = smote_balance(X[train_idx], y[train_idx], k=5, seed=sub_seed)
            preds = [knn_predict(Xb, yb, q, k)[0] for q in X[val_idx]]
            accs.append(float(np.mean(np.array(preds) == y[val_idx])))
        means.append(float(np.mean(accs)))
        cell = result.cells[c_i]
        assert cell.fold_accuracies == pytest.approx(accs)
    want_best = {"k": (1, 19)[int(np.argmax(means))]}
    assert result.best_params == want_best


def test_tie_breaks_to_earlier_cell():
    X, y = blob_data(5)
    result = grid_search("knn", ({"k": 7}, {"k": 7}), X, y, seed=1)
    assert result.cells[0].mean_accuracy == result.cells[1].mean_accuracy
    assert result.best_params is result.cells[0].params


@pytest.mark.parametrize("family,cell", [("cart", {"max_depth": 3}), ("knn", {"k": 5})])
def test_validation_labels_never_reach_fitting(family, cell):
    # Poison one validation fold's labels at a time, with fold assignment
    # pinned. The model evaluated on that fold trains only on the other
    # folds, so its predictions there must be bit-identical: fitting and
    # balancing never read validation labels.
    X, y = blob_data(6, imbalance=0.3)
    folds = stratified_folds(y, 5, seed=3)
    clean = grid_search(family, (cell,), X, y, seed=3, folds_idx=folds)

    rng = np.random.default_rng(0)
    for f_i, val_idx in enumerate(folds):
        y_poisoned = y.copy()
        y_poisoned[val_idx] = rng.integers(0, 2, size=len(val_idx))
        poisoned = grid_search(family, (cell,), X, y_poisoned, seed=3, folds_idx=folds)
        assert np.array_equal(
            clean.cells[0].fold_predictions[f_i],
            poisoned.cells[0].fold_predictions[f_i],
        )


def test_unknown_family_rejected():
    X, y = blob_data(0)
    with pytest.raises(ValueError):
        fit_family("svm", {}, X, y, seed=0)
