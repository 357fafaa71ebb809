"""Neural baseline: forward algebra, gradient check, training sanity."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bsmguard
from bsmguard.ml import (
    NN_INIT_RANGE,
    NnDivergedError,
    NnModel,
    nn_forward,
    nn_init,
    nn_train,
)

import reference
from product_calls import nn_loss_and_grads, nn_train_one


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
        model = nn_train_one(X, y, epochs=100, batch_size=50, lr=0.2, seed=seed)
        preds = (nn_forward(model, X) > 0.5).astype(int)
        assert np.mean(preds == y) >= 0.95


def test_first_epoch_loss_decreases_at_small_lr():
    X, y = separable_blobs(7)
    before = nn_loss_and_grads(nn_train_one(X, y, epochs=0, seed=7), X, y)[0]
    after = nn_loss_and_grads(nn_train_one(X, y, epochs=1, lr=1e-2, seed=7), X, y)[0]
    assert after < before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_diagnostic():
    # The logit-based loss only goes non-finite once the weights overflow;
    # astronomically scaled inputs plus a huge step get there immediately.
    X = np.full((4, 2), 1e308)
    y = np.array([0, 1, 0, 1])
    with pytest.raises(RuntimeError, match="learning rate"):
        nn_train_one(X, y, epochs=50, lr=1e9, seed=0)


def test_deterministic_per_seed():
    X, y = separable_blobs(1)
    a = nn_train_one(X, y, epochs=5, seed=9)
    b = nn_train_one(X, y, epochs=5, seed=9)
    assert np.array_equal(a.w_hidden, b.w_hidden)
    assert np.array_equal(a.b_hidden, b.b_hidden)
    assert np.array_equal(a.w_out, b.w_out)
    assert a.b_out == b.b_out


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
    got = nn_train_one(X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                       n_hidden=hidden)
    want = reference.nn_train(X, y, epochs, batch_size, lr, seed, hidden)
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
        want_loss, want = reference.nn_loss_and_grads(model, X, y)
        assert loss == want_loss
        for key in ("w_hidden", "b_hidden", "w_out"):
            assert np.array_equal(grads[key], want[key]), key
        assert grads["b_out"] == want["b_out"]


def test_uniform_init_range():
    model = nn_init(2, 400, seed=0)
    for arr in (model.w_hidden, model.b_hidden, model.w_out):
        assert np.all(np.abs(arr) <= NN_INIT_RANGE)
    assert abs(model.b_out) <= NN_INIT_RANGE


def assert_same_model(got, want):
    assert np.array_equal(got.w_hidden, want.w_hidden)
    assert np.array_equal(got.b_hidden, want.b_hidden)
    assert np.array_equal(got.w_out, want.w_out)
    assert got.b_out == want.b_out


@pytest.mark.parametrize("case", range(40))
def test_block_matches_one_network_at_a_time_bit_for_bit(case):
    # 1-5 networks, 1-3 features, 1-15 hidden units, batches from one row
    # to more than n (so often a partial last batch), 0-3 epochs, and some
    # training sets Fortran-ordered.
    rng = np.random.default_rng(1000 + case)
    k, features, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 16))
    n = int(rng.integers(1, 70))
    batch_size = int(rng.integers(1, n + 10))
    epochs = int(rng.integers(0, 4))
    lr = float(rng.choice([0.01, 0.2, 1.0]))
    sets = []
    for _ in range(k):
        X = rng.normal(0, 1.5, size=(n, features))
        if rng.random() < 0.4:
            X = np.asfortranarray(X)
        sets.append((X, rng.integers(0, 2, size=n), int(rng.integers(1000))))
    block = nn_train(sets, epochs=epochs, batch_size=batch_size, lr=lr, n_hidden=hidden)
    assert len(block) == k
    for got, (X, y, seed) in zip(block, sets):
        want = nn_train_one(X, y, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                            n_hidden=hidden)
        assert_same_model(got, want)


def test_block_of_the_default_cell_matches_one_network_at_a_time():
    # The grid search's shape: five 640-row folds, 100 epochs of 50-row batches.
    rng = np.random.default_rng(11)
    sets = [(rng.normal(0, 1, size=(640, 2)), rng.integers(0, 2, size=640), seed)
            for seed in range(5)]
    for got, (X, y, seed) in zip(nn_train(sets), sets):
        assert_same_model(got, nn_train_one(X, y, seed=seed))


def test_block_raises_when_one_network_diverges():
    # At this step size the two blob sets still train to finite losses; the
    # middle set's astronomically scaled inputs diverge at once.
    X, y = separable_blobs(3, n=40)
    bad = np.full((40, 2), 1e308)
    for X_one in (X, X[::-1]):
        nn_train_one(X_one, y, epochs=3, lr=1e9, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NnDivergedError) as exc:
            nn_train([(X, y, 1), (bad, y, 2), (X[::-1], y, 3)], epochs=3, lr=1e9)
    assert str(exc.value) == (
        "training diverged to a non-finite loss; the learning rate 1000000000.0 is likely "
        "too high for this data"
    )


#: Run in a fresh process: block-versus-alone mismatches over random blocks
#: and the grid search's default shape, printed as one count.
BLOCK_CHECK = """
import numpy as np
from bsmguard.ml import nn_train
from product_calls import nn_train_one

rng = np.random.default_rng(7)
# (networks, n, features, hidden, batch_size, epochs): the grid search's
# shape, then one hidden unit and one feature with odd row counts, where
# OpenBLAS's SSE3 kernels take a dot product whose sum order follows the
# alignment of its operands.
cases = [(5, 640, 2, 10, 50, 3), (3, 43, 2, 1, 33, 2), (4, 29, 1, 1, 9, 2)]
for _ in range(30):
    n = int(rng.integers(1, 60))
    cases.append((int(rng.integers(1, 6)), n, int(rng.integers(1, 4)), int(rng.integers(1, 16)),
                  int(rng.integers(1, n + 10)), int(rng.integers(0, 4))))
bad = 0
for k, n, features, hidden, batch_size, epochs in cases:
    sets = [(rng.normal(0, 1.5, size=(n, features)), rng.integers(0, 2, size=n),
             int(rng.integers(1000))) for _ in range(k)]
    sets = [(np.asfortranarray(X) if i % 2 else X, y, s) for i, (X, y, s) in enumerate(sets)]
    block = nn_train(sets, epochs=epochs, batch_size=batch_size, n_hidden=hidden)
    for got, (X, y, seed) in zip(block, sets):
        want = nn_train_one(X, y, epochs=epochs, batch_size=batch_size, seed=seed, n_hidden=hidden)
        bad += not all(np.array_equal(getattr(got, f), getattr(want, f))
                       for f in ("w_hidden", "b_hidden", "w_out", "b_out"))
print(bad)
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_block_matches_one_network_at_a_time_on_other_blas_kernels(coretype):
    # OPENBLAS_CORETYPE picks the BLAS kernels of another CPU for this one
    # child process. The weights may differ from the default kernel's, but
    # stacking must add no CPU dependence of its own.
    # The child imports the product from src and its helper from this directory.
    paths = (str(Path(bsmguard.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH"))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", BLOCK_CHECK], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["0"]
