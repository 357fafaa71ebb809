"""Thin calls into the shipped code that more than one test module runs.

These are not oracles: each one drives a product kernel with a test-friendly
signature, so that the tests that use it check the code that ships. The
oracles they are compared against live in ``reference.py``.
"""

import numpy as np

from bsmguard.detectors import SIGMA_FLOOR, _e_step, _em_from
from bsmguard.ml import _nn_kernel, _nn_pack, _nn_split, nn_train


def fit_two_component_gmm(points, mu1, s1, mu2, s2, pi2):
    """EM for a two-component Gaussian mixture on a small point set, as
    ``EmDetector`` runs it from its anchors' theta.

    Runs until the largest parameter change drops below EM_TOL, an M-step
    returns the previous M-step's theta exactly, or for EM_MAX_ITER
    iterations. Returns the fitted (mu1, s1, mu2, s2, pi2) and the
    log-likelihood after each M-step. A stop at that exact fixed point
    repeats the last entry, just as a further E-step would.
    """
    theta = (mu1, max(s1, SIGMA_FLOOR), mu2, max(s2, SIGMA_FLOOR), pi2)
    resp, _ = _e_step(points, *theta)
    theta, ll_history, _ = _em_from(points, resp, theta)
    return theta, ll_history


def nn_train_one(X, y, seed=0, **kw):
    """One network trained in a block of one: ``nn_train`` on one set."""
    return nn_train([(X, y, seed)], **kw)[0]


def nn_loss_and_grads(model, X, y):
    """Mean binary cross-entropy and its gradients for one batch.

    Runs the training kernel on a packed copy of ``model``, as a block of one
    network; the gradients are views into the kernel's gradient buffer.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = model.w_hidden.shape
    theta = _nn_pack(model)[None]
    grad = np.empty_like(theta)
    loss = float(_nn_kernel(theta, grad, *shape)(X[None], y[None, :, None])[0]) / len(y)
    gW, gbh, gwo = _nn_split(grad, *shape)
    return loss, {"w_hidden": gW[0], "b_hidden": gbh[0], "w_out": gwo[0],
                  "b_out": float(grad[0, -1])}
