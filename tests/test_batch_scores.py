"""Batch scores of every family against row-by-row oracles, bit for bit."""

import numpy as np
import pytest

from bsmguard.ml import fit_family

from test_knn import brute_knn
from test_model_io import PARAMS, data


def walk(node, x):
    """Recursive single-row descent to a leaf's attack probability."""
    if node.is_leaf:
        return node.probs[1]
    return walk(node.left if x[node.feature] <= node.threshold else node.right, x)


def row_oracle(model, Q):
    if model.family == "knn":
        X, y = model.state
        return [brute_knn(X, y, q, model.params["k"])[1] for q in Q]
    if model.family == "cart":
        return [walk(model.state, q) for q in Q]
    if model.family == "rf":
        return [float(np.mean([walk(t, q) for t in model.state])) for q in Q]
    # The network is one matrix forward in any case; this is it written out.
    nn = model.state
    hidden = np.maximum(Q @ nn.w_hidden + nn.b_hidden, 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ nn.w_out + nn.b_out)))


@pytest.mark.parametrize("family", sorted(PARAMS))
def test_batch_scores_equal_row_oracle(family):
    X, y = data()
    model = fit_family(family, PARAMS[family], X, y, seed=3)
    Q = np.random.default_rng(9).normal(0, 1.5, size=(200, 2))
    scores = model.predict_scores(Q)
    assert scores.shape == (200,)
    assert scores.tolist() == [float(v) for v in row_oracle(model, Q)]

