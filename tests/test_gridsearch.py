"""Grid search: selection oracle, fold hygiene, leakage poisoning."""

import numpy as np
import pytest

from bsmguard import ml
from bsmguard.cli import main
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


@pytest.mark.parametrize(
    "family,cell", [("cart", {"max_depth": 3}), ("knn", {"k": 5}), ("nn", {"epochs": 2})]
)
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


def test_nn_cells_train_their_folds_together_as_fit_family_fits_each_fold():
    # 101 clean and 52 attack rows: the first stratified fold holds one more
    # row of each class, so its balanced training set is 2 rows shorter than
    # the other four's. Moved to the middle, it trains alone between the two
    # halves of the block of four.
    X, y = blob_data(7, n=153, imbalance=52 / 153)
    folds = stratified_folds(y, 5, seed=4)
    folds = folds[1:3] + folds[:1] + folds[3:]
    all_idx = np.arange(len(y))
    cells = ({"epochs": 3, "n_hidden": 4}, {"epochs": 2, "lr": 0.05, "batch_size": 16})
    result = grid_search("nn", cells, X, y, seed=4, folds_idx=folds)

    sizes = []
    for c_i, cell in enumerate(cells):
        preds, accs = [], []
        for f_i, val_idx in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, val_idx)
            sub_seed = int(np.random.SeedSequence((4, c_i, f_i)).generate_state(1)[0])
            model = fit_family("nn", cell, X[train_idx], y[train_idx], sub_seed)
            preds.append(model.predict_labels(X[val_idx]))
            accs.append(float(np.mean(preds[-1] == y[val_idx])))
            sizes.append(len(smote_balance(X[train_idx], y[train_idx], seed=sub_seed)[1]))
        got = result.cells[c_i]
        assert got.params == cell
        assert got.fold_accuracies == accs
        assert all(np.array_equal(a, b) for a, b in zip(got.fold_predictions, preds))
    assert sizes[:5] == [122, 122, 120, 122, 122]
    means = [float(np.mean(cell.fold_accuracies)) for cell in result.cells]
    assert result.best_params == cells[int(np.argmax(means))]


def test_unknown_family_rejected():
    X, y = blob_data(0)
    with pytest.raises(ValueError):
        fit_family("svm", {}, X, y, seed=0)


def test_every_nn_fit_goes_through_the_module_attribute(tmp_path, monkeypatch):
    # One nn_train call per grid cell, with its five folds, then one for the
    # final fit: a wrapper on the module attribute sees all 2 * 5 + 1 sets.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("duration_s = 30.0\nseed = 7\nattack.windows = 10.0:15.0\n")
    csv_path = tmp_path / "bsm.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(csv_path)]) == 0
    calls = []
    train = ml.nn_train

    def counted(sets, **params):
        calls.append(len(sets))
        return train(sets, **params)

    monkeypatch.setattr(ml, "nn_train", counted)
    assert main(["train", str(csv_path), "--model", "nn", "--grid",
                 '{"epochs": [2], "n_hidden": [3, 5]}', "--out", str(tmp_path / "nn.json")]) == 0
    assert calls == [5, 5, 1]
