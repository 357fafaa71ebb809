"""Neural baseline: forward algebra, gradient check, training sanity."""

import math

import numpy as np
import pytest

from bsmguard.ml import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NN_INIT_RANGE,
    NnModel,
    nn_forward,
    nn_init,
    nn_loss_and_grads,
    nn_train,
)


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
    assert np.array_equal(a.b_hidden, b.b_hidden)
    assert np.array_equal(a.w_out, b.w_out)
    assert a.b_out == b.b_out


def _reference_loss_and_grads(model, X, y):
    """The per-array loss and gradients training used before the flat step."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    hidden = np.maximum(X @ model.w_hidden + model.b_hidden, 0.0)
    logits = hidden @ model.w_out + model.b_out
    loss = float(np.mean(np.maximum(logits, 0.0) - y * logits + np.log1p(np.exp(-np.abs(logits)))))
    probs = 1.0 / (1.0 + np.exp(-logits))
    dlogits = (probs - y) / n
    grads = {"w_out": hidden.T @ dlogits, "b_out": float(np.sum(dlogits))}
    dhidden = np.outer(dlogits, model.w_out)
    dhidden[hidden <= 0.0] = 0.0
    grads["w_hidden"] = X.T @ dhidden
    grads["b_hidden"] = np.sum(dhidden, axis=0)
    return loss, grads


def _reference_nn_train(X, y, epochs, batch_size, lr, seed, n_hidden):
    """The per-array Adam loop training used before the flat step."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    model = nn_init(X.shape[1], n_hidden, seed=int(rng.integers(2**32)))
    m = {k: 0.0 for k in ("w_hidden", "b_hidden", "w_out", "b_out")}
    v = {k: 0.0 for k in m}
    params = {"w_hidden": model.w_hidden, "b_hidden": model.b_hidden, "w_out": model.w_out}
    step = 0
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads = _reference_loss_and_grads(model, X[batch], y[batch])
            assert math.isfinite(loss)
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for key in ("w_hidden", "b_hidden", "w_out"):
                g = grads[key]
                m[key] = ADAM_BETA1 * m[key] + (1 - ADAM_BETA1) * g
                v[key] = ADAM_BETA2 * v[key] + (1 - ADAM_BETA2) * g * g
                params[key] -= lr * (m[key] / corr1) / (np.sqrt(v[key] / corr2) + ADAM_EPS)
            g = grads["b_out"]
            m["b_out"] = ADAM_BETA1 * m["b_out"] + (1 - ADAM_BETA1) * g
            v["b_out"] = ADAM_BETA2 * v["b_out"] + (1 - ADAM_BETA2) * g * g
            model.b_out -= lr * (m["b_out"] / corr1) / (math.sqrt(v["b_out"] / corr2) + ADAM_EPS)
    return model


# (n, features, hidden, batch_size, epochs, lr): the default cell, a batch
# larger than n, a last partial batch, one hidden unit, three features, no
# epochs, a one-row batch and a large step.
BIT_CASES = [
    (120, 2, 10, 50, 4, 0.2),
    (30, 2, 10, 80, 5, 0.2),
    (101, 2, 6, 25, 3, 0.05),
    (64, 2, 1, 16, 4, 0.2),
    (90, 3, 7, 40, 3, 0.2),
    (50, 2, 10, 50, 0, 0.2),
    (9, 1, 3, 1, 2, 0.5),
    (200, 3, 15, 33, 2, 2.0),
]


@pytest.mark.parametrize("n,features,hidden,batch_size,epochs,lr", BIT_CASES)
def test_training_matches_the_per_array_reference_bit_for_bit(n, features, hidden, batch_size,
                                                              epochs, lr):
    rng = np.random.default_rng(n * 31 + features * 7 + hidden)
    X = rng.normal(0, 1.5, size=(n, features))
    y = rng.integers(0, 2, size=n)
    seed = int(rng.integers(1000))
    got = nn_train(X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed, n_hidden=hidden)
    want = _reference_nn_train(X, y, epochs, batch_size, lr, seed, hidden)
    assert np.array_equal(got.w_hidden, want.w_hidden)
    assert np.array_equal(got.b_hidden, want.b_hidden)
    assert np.array_equal(got.w_out, want.w_out)
    assert got.b_out == want.b_out


def test_loss_and_grads_match_the_per_array_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for trial in range(10):
        model = nn_init(3, 8, seed=trial)
        X = rng.normal(0, 2, size=(17, 3))
        y = rng.integers(0, 2, size=17)
        loss, grads = nn_loss_and_grads(model, X, y)
        want_loss, want = _reference_loss_and_grads(model, X, y)
        assert loss == want_loss
        for key in ("w_hidden", "b_hidden", "w_out"):
            assert np.array_equal(grads[key], want[key]), key
        assert grads["b_out"] == want["b_out"]


def test_uniform_init_range():
    model = nn_init(2, 400, seed=0)
    for arr in (model.w_hidden, model.b_hidden, model.w_out):
        assert np.all(np.abs(arr) <= NN_INIT_RANGE)
    assert abs(model.b_out) <= NN_INIT_RANGE
