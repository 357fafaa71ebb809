"""Neural baseline: forward algebra, gradient check, training sanity."""

import numpy as np
import pytest

from bsmguard.ml import NN_INIT_RANGE, NnModel, nn_forward, nn_init, nn_loss_and_grads, nn_train


def zero_model(n_features=2, n_hidden=10):
    return NnModel(
        w_hidden=np.zeros((n_features, n_hidden)),
        b_hidden=np.zeros(n_hidden),
        w_out=np.zeros(n_hidden),
        b_out=0.0,
    )


def test_all_zero_weights_output_half():
    model = zero_model()
    X = np.random.default_rng(0).normal(0, 3, size=(20, 2))
    assert nn_forward(model, X) == pytest.approx([0.5] * 20)


def test_forward_matrix_matches_rowwise():
    model = nn_init(2, 10, seed=3)
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, size=(15, 2))
    batch = nn_forward(model, X)
    rows = [nn_forward(model, x[None, :])[0] for x in X]
    assert batch == pytest.approx(rows)


def flatten_params(model):
    return [
        ("w_hidden", model.w_hidden),
        ("b_hidden", model.b_hidden),
        ("w_out", model.w_out),
    ]


def test_gradients_match_central_finite_differences():
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(123)
    for trial in range(20):
        model = nn_init(2, 10, seed=trial)
        X = rng.normal(0, 1, size=(12, 2))
        y = rng.integers(0, 2, size=12)
        _, grads = nn_loss_and_grads(model, X, y)

        def loss_at():
            return nn_loss_and_grads(model, X, y)[0]

        for name, arr in flatten_params(model):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss_at()
                arr[idx] = keep - h
                down = loss_at()
                arr[idx] = keep
                numeric = (up - down) / (2 * h)
                analytic = grads[name][idx]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, rel)
        keep = model.b_out
        model.b_out = keep + h
        up = loss_at()
        model.b_out = keep - h
        down = loss_at()
        model.b_out = keep
        numeric = (up - down) / (2 * h)
        rel = abs(grads["b_out"] - numeric) / max(abs(grads["b_out"]), abs(numeric), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-4


def separable_blobs(seed, n=120):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [rng.normal(-1.5, 0.5, size=(half, 2)), rng.normal(1.5, 0.5, size=(half, 2))]
    )
    y = np.array([0] * half + [1] * half)
    # standardize, as the training contract expects
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    return X, y


def test_training_reaches_95_percent_on_separable_blobs():
    for seed in range(5):
        X, y = separable_blobs(seed)
        model = nn_train(X, y, epochs=100, batch_size=50, lr=0.2, seed=seed)
        preds = (nn_forward(model, X) > 0.5).astype(int)
        assert np.mean(preds == y) >= 0.95


def test_first_epoch_loss_decreases_at_small_lr():
    X, y = separable_blobs(7)
    before = nn_loss_and_grads(nn_train(X, y, epochs=0, seed=7), X, y)[0]
    after = nn_loss_and_grads(nn_train(X, y, epochs=1, lr=1e-2, seed=7), X, y)[0]
    assert after < before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_diagnostic():
    # The logit-based loss only goes non-finite once the weights overflow;
    # astronomically scaled inputs plus a huge step get there immediately.
    X = np.full((4, 2), 1e308)
    y = np.array([0, 1, 0, 1])
    with pytest.raises(RuntimeError, match="learning rate"):
        nn_train(X, y, epochs=50, lr=1e9, seed=0)


def test_deterministic_per_seed():
    X, y = separable_blobs(1)
    a = nn_train(X, y, epochs=5, seed=9)
    b = nn_train(X, y, epochs=5, seed=9)
    assert np.array_equal(a.w_hidden, b.w_hidden)
    assert np.array_equal(a.w_out, b.w_out)
    assert a.b_out == b.b_out


def test_uniform_init_range():
    model = nn_init(2, 400, seed=0)
    for arr in (model.w_hidden, model.b_hidden, model.w_out):
        assert np.all(np.abs(arr) <= NN_INIT_RANGE)
    assert abs(model.b_out) <= NN_INIT_RANGE
