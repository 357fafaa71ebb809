"""From-scratch supervised baselines on (avg_speed, avg_accel) features.

Binary classifiers only: KNN, CART decision trees, bootstrap-aggregated
forests, and a one-hidden-layer network trained with Adam, plus SMOTE-style
class balancing and a stratified k-fold grid search. Labels are 0 (clean)
and 1 (attack). Each family scores a batch of rows at once, and
``FAMILIES`` is the one table the rest of the package dispatches on. The only
one-row call left is ``knn_predict``: the benchmark's tracer
(``perfbench/tracer.py``) patches it by name, so it goes together with that
tracer hook.

CART (``cart_fit``, which every forest tree also goes through) argsorts each
feature once per tree and grows the tree one depth at a time: the open nodes
of a depth own contiguous segments of every feature's sorted rows, and all of
them are scored with whole-array operations. A node's candidate thresholds
are the midpoints between distinct consecutive values that leave at least
``min_leaf`` rows on each side; zero-gain candidates are eligible; the first
candidate in (feature, threshold) order wins unless a later one gains more
by over ``SPLIT_GAIN_TOL`` (1e-15). Class weights are one constant per class,
so every weighted count is a function of integer class counts and is
computed with the same floating-point operations as summing the rows: the
trees are bit for bit those of a node-by-node search.

The NN (``nn_train``) steps on flat, preallocated buffers: one parameter
vector laid out ``w_hidden | b_hidden | w_out | b_out``, which the
loss-and-gradient kernel reads through views, a gradient vector of the same
layout, and the two Adam moments as the rows of one array, so a step is a
few dozen whole-array operations. ``nn_loss_and_grads`` runs the same kernel.
Each step keeps the floating-point order of the per-array update it
replaced: m = B1*m + (1-B1)*g, v = B2*v + ((1-B2)*g)*g, the step
(lr*(m/corr1)) / (sqrt(v/corr2)+eps), the loss (max(l,0) - y*l) +
log1p(exp(-|l|)) averaged as sum/n, and +0.0 gradient where a relu is off.
That order is what keeps the trained weights, and so the model files, byte
for byte the same; ``tests/test_nn.py`` keeps the per-array loop as an oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from bsmguard.bsm import DataError
from bsmguard.config import ConfigError

#: Every family labels a row attack when its score is above this cut.
LABEL_CUT = 0.5

#: Distances KNN holds at once: 128 KiB of float64 per block of query rows.
KNN_BLOCK_CELLS = 1 << 14

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

#: Half-width of the uniform weight initialization interval.
NN_INIT_RANGE = 0.5


# ---------------------------------------------------------------------------
# Splitting and balancing
# ---------------------------------------------------------------------------


def stratified_split(
    y: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class split. Returns (train_idx, test_idx), both sorted."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = rng.permutation(idx)
        n_test = int(round(len(idx) * test_fraction))
        n_test = min(max(n_test, 1), len(idx) - 1)
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified partition into ``folds`` validation index arrays."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    counts = np.bincount(y, minlength=2)
    if np.any(counts[np.unique(y)] < folds):
        raise DataError(
            f"infeasible stratification: every class needs >= {folds} samples, "
            f"got counts {counts.tolist()}"
        )
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(folds)]
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        for pos, i in enumerate(idx):
            buckets[pos % folds].append(int(i))
    return [np.sort(np.array(b, dtype=int)) for b in buckets]


def class_weights(y: np.ndarray) -> dict[int, float]:
    """Weights inversely proportional to class frequency, mean-normalized to 1."""
    classes, counts = np.unique(y, return_counts=True)
    n = len(y)
    k = len(classes)
    return {int(c): n / (k * int(cnt)) for c, cnt in zip(classes, counts)}


def smote_balance(
    X: np.ndarray, y: np.ndarray, k: int = 5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Balance classes by majority under-sampling plus minority interpolation.

    Synthetic minority points lie on the segment between a minority point and
    one of its k minority-class nearest neighbors (uniform interpolation
    coefficient). Both classes end at the midpoint count, so the result is
    balanced within one sample. Already balanced input passes through.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise DataError("balancing needs both classes present")
    minority = int(classes[np.argmin(counts)])
    majority = int(classes[np.argmax(counts)])
    n_min, n_maj = int(counts.min()), int(counts.max())
    if n_min == n_maj:
        return X.copy(), y.copy()
    if n_min < 2:
        raise DataError("minority class needs at least 2 samples for interpolation")

    rng = np.random.default_rng(seed)
    target = (n_min + n_maj) // 2
    maj_idx = np.flatnonzero(y == majority)
    min_idx = np.flatnonzero(y == minority)
    keep_maj = rng.choice(maj_idx, size=target, replace=False)

    X_min = X[min_idx]
    d2 = np.sum((X_min[:, None, :] - X_min[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    k_eff = min(k, n_min - 1)
    neighbor_idx = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]

    n_new = target - n_min
    synth = np.empty((n_new, X.shape[1]))
    for s in range(n_new):
        i = int(rng.integers(0, n_min))
        j = int(neighbor_idx[i, int(rng.integers(0, k_eff))])
        frac = rng.uniform()
        synth[s] = X_min[i] + frac * (X_min[j] - X_min[i])

    X_out = np.concatenate([X[keep_maj], X_min, synth])
    y_out = np.concatenate(
        [
            np.full(target, majority, dtype=int),
            np.full(n_min + n_new, minority, dtype=int),
        ]
    )
    return X_out, y_out


# ---------------------------------------------------------------------------
# K-nearest neighbors
# ---------------------------------------------------------------------------


def knn_scores(
    X_train: np.ndarray, y_train: np.ndarray, Q: np.ndarray, k: int
) -> np.ndarray:
    """Attack fraction among each query row's k nearest training points.

    Euclidean distance; ties break by training-set index order. Distances
    add up one feature column at a time, so no (queries, train, features)
    temporary is built, and query rows go in blocks of at most
    ``KNN_BLOCK_CELLS`` distances, so peak memory stays that of a few rows.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if k < 1 or k > len(X_train):
        raise DataError(f"k must be in [1, {len(X_train)}], got {k}")
    out = np.empty(len(Q))
    step = max(1, KNN_BLOCK_CELLS // len(X_train))
    for start in range(0, len(Q), step):
        block = Q[start : start + step]
        d2 = np.zeros((len(block), len(X_train)))
        for j in range(X_train.shape[1]):
            d2 += (X_train[:, j] - block[:, j, None]) ** 2
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start : start + step] = np.mean(y_train[order] == 1, axis=1)
    return out


def knn_predict(
    X_train: np.ndarray, y_train: np.ndarray, query: Sequence[float], k: int
) -> tuple[int, float]:
    """Majority vote among the k nearest training points (Euclidean).

    The score is the attack fraction among the neighbors; the label is
    attack only on a strict majority.
    """
    score = float(knn_scores(X_train, y_train, [query], k)[0])
    return (int(score > LABEL_CUT), score)


# ---------------------------------------------------------------------------
# CART decision trees
# ---------------------------------------------------------------------------


def impurity(counts: Sequence[float], criterion: str = "gini") -> float:
    """Node impurity from (possibly weighted) per-class counts.

    gini is sum_{c1 != c2} p(c1) p(c2); entropy is the usual -sum p log2 p.
    All-zero counts are rejected. The scalar reference for ``_impurity_vec``.
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


def _impurity_vec(w0: np.ndarray, w1: np.ndarray, criterion: str) -> np.ndarray:
    total = w0 + w1
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0, w1 / total, 0.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] -= p[mask] * np.log2(p[mask])
    mask = q > 0
    out[mask] -= q[mask] * np.log2(q[mask])
    return out


@dataclass
class CartNode:
    """One node of a fitted tree. Leaves carry class probabilities."""

    impurity: float
    counts: tuple[float, float]  # weighted class counts (clean, attack)
    n_samples: int
    feature: int | None = None
    threshold: float | None = None
    left: "CartNode | None" = None
    right: "CartNode | None" = None
    probs: tuple[float, float] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@functools.lru_cache(maxsize=1 << 12)
def _class_total(w: float, k: int) -> float:
    """``np.sum`` of ``k`` copies of the class weight ``w``.

    A node's weighted class count is that sum over its rows. numpy sums
    pairwise, so its bits depend on ``k`` and not on ``k * w`` alone; summing
    the copies reproduces them. Cached, since the trees of a forest share
    their class weights.
    """
    return float(np.sum(np.full(k, w)))


#: A later split candidate replaces the best one only when its gain is
#: higher by more than this, so near-equal gains keep the first candidate.
SPLIT_GAIN_TOL = 1e-15


def cart_fit(
    X: np.ndarray,
    y: np.ndarray,
    criterion: str = "entropy",
    max_depth: int = 8,
    min_split: int = 2,
    min_leaf: int = 1,
    weights: Mapping[int, float] | None = None,
) -> CartNode:
    """Greedy axis-aligned tree on midpoint thresholds.

    A node stops splitting when it is pure, hits the depth/size limits, or
    no candidate threshold remains. ``y`` holds 0/1 labels; ``weights`` maps
    class label to sample weight, and weighted counts feed the impurity and
    the leaf probabilities.

    Split rule. A node's candidates sit at the midpoints between distinct
    consecutive values of each feature and leave at least ``min_leaf`` rows
    on each side. The gain is the node's impurity minus the impurities of
    the two sides, each weighted by its share of the node's weighted count.
    Zero-gain candidates are eligible, so an impure node keeps splitting
    while any candidate exists. Candidates are scanned in (feature,
    threshold) order, and a later one replaces the best only if its gain is
    higher by more than ``SPLIT_GAIN_TOL``: near-ties keep the first.

    Growth. Each feature is argsorted once per tree. The tree grows one
    depth at a time: every node of a depth owns a contiguous segment of each
    feature's sorted rows, and all of them are scored with whole-array
    operations. The winners' rows are then stably partitioned into their
    children's segments, which therefore stay sorted.

    Exact weighted sums. Weights are one constant per class. Summing a
    node's sorted row weights class by class adds either the class weight or
    nothing per row, so the weighted count left of a threshold is the
    running sum of that many copies of the class weight, looked up at the
    integer class count. A node total is numpy's (pairwise) sum of that
    many copies (``_class_total``). Both carry the same bits as summing the
    rows themselves, so the trees equal those of a node-by-node search.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) == 0:
        raise ValueError("empty training set")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X needs one row per sample and at least one feature column")
    present = set(np.unique(y).tolist())
    if not present <= {0, 1}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(present)}")
    n, d = X.shape
    # Only the classes present need a weight: an absent one counts no rows.
    wc = [1.0 if weights is None or c not in present else float(weights[c]) for c in (0, 1)]
    # running[c][k]: the weighted count of k rows of class c, summed in row order.
    running = [np.concatenate(([0.0], np.cumsum(np.full(n, w)))) for w in wc]
    columns = np.ascontiguousarray(X.T)
    feature_ix = np.arange(d)[:, None]

    order = np.argsort(columns, axis=1, kind="stable")  # (features, rows of open nodes)
    sizes = np.array([n])  # rows per open node, in segment order
    hang: list[tuple[CartNode, str] | None] = [None]  # where each open node attaches
    root = None
    depth = 0
    while len(sizes):
        k_open, m = len(sizes), order.shape[1]
        starts = np.cumsum(sizes) - sizes
        seg = np.repeat(np.arange(k_open), sizes)  # open node of each position
        pos = np.arange(m) - starts[seg]  # position inside the node's segment
        # ones[j, i]: attack rows among the first i positions of feature j.
        ones = np.zeros((d, m + 1), dtype=int)
        np.cumsum(y[order] == 1, axis=1, out=ones[:, 1:])
        node_ones = ones[0, starts + sizes] - ones[0, starts]
        w0 = np.array([_class_total(wc[0], k) for k in (sizes - node_ones).tolist()])
        w1 = np.array([_class_total(wc[1], k) for k in node_ones.tolist()])
        parent = _impurity_vec(w0, w1, criterion)
        total = w0 + w1
        nodes = []
        for i, (imp, c0, c1, size) in enumerate(
            zip(parent.tolist(), w0.tolist(), w1.tolist(), sizes.tolist())
        ):
            node = CartNode(impurity=imp, counts=(c0, c1), n_samples=size)
            if hang[i] is None:
                root = node
            else:
                setattr(*hang[i], node)
            nodes.append(node)
        grow = (depth < max_depth) & (sizes >= min_split) & (w0 != 0.0) & (w1 != 0.0)

        # Candidate boundary p of feature j: positions < p go left.
        xs = columns[feature_ix, order]
        b = pos[1:]
        allowed = (b >= max(min_leaf, 1)) & (b <= sizes[seg[1:]] - min_leaf) & grow[seg[1:]]
        feat, p = np.nonzero(allowed & (xs[:, 1:] > xs[:, :-1]))
        p += 1
        nd = seg[p]
        left1 = ones[feat, p] - ones[feat, starts[nd]]
        left = (running[0][pos[p] - left1], running[1][left1])
        right = (w0[nd] - left[0], w1[nd] - left[1])
        # One impurity call for both sides: every left side, then every right.
        side = _impurity_vec(np.concatenate((left[0], right[0])),
                             np.concatenate((left[1], right[1])), criterion)
        gains = (
            parent[nd]
            - (left[0] + left[1]) / total[nd] * side[: len(p)]
            - (right[0] + right[1]) / total[nd] * side[len(p) :]
        )
        winner = _first_best(nd, gains, k_open)

        split = winner >= 0
        for i in np.flatnonzero(~split).tolist():
            nodes[i].probs = (w0[i] / total[i]).item(), (w1[i] / total[i]).item()
        if not split.any():
            break
        wf, wp = feat[winner[split]], p[winner[split]]
        thresholds = (xs[wf, wp - 1] + xs[wf, wp]) / 2.0
        hang = []
        for i, f, thr in zip(np.flatnonzero(split).tolist(), wf.tolist(), thresholds.tolist()):
            nodes[i].feature, nodes[i].threshold = f, thr
            hang += [(nodes[i], "left"), (nodes[i], "right")]

        # Each winner's rows move to its children's segments, left then
        # right, in their current order: a stable partition.
        win_feat = np.full(k_open, -1)
        win_feat[split] = wf
        win_b = np.zeros(k_open, dtype=int)
        win_b[split] = pos[wp]
        child = np.full(n, -1)
        child[order[0]] = np.where(split[seg], 2 * (np.cumsum(split) - 1)[seg] + 1, -1)
        child[order[(win_feat[seg] == feature_ix) & (pos < win_b[seg])]] -= 1
        keys = child[order]
        kept = keys[0][keys[0] >= 0]
        order = order[feature_ix, np.argsort(keys, axis=1, kind="stable")[:, m - len(kept) :]]
        sizes = np.bincount(kept, minlength=2 * len(wf))
        depth += 1
    return root


def _first_best(nd: np.ndarray, gains: np.ndarray, k_open: int) -> np.ndarray:
    """Per open node, the index of the candidate the sequential scan keeps.

    ``nd`` and ``gains`` list the candidates in (feature, threshold) order;
    -1 marks a node without candidates. The scan keeps the first candidate
    and replaces it with a later one only when the later gain exceeds it by
    more than ``SPLIT_GAIN_TOL``. When no gain of a node lies within the
    tolerance below the node's maximum, that is the first maximal gain;
    otherwise the node's candidates are scanned one by one.
    """
    best = np.full(k_open, -np.inf)
    np.maximum.at(best, nd, gains)
    top = best[nd]
    hit = np.flatnonzero(gains == top)
    first = np.full(k_open, len(gains))
    np.minimum.at(first, nd[hit], hit)
    winner = np.where(first < len(gains), first, -1)
    near = (gains < top) & (gains + SPLIT_GAIN_TOL >= top)
    if near.any():
        for k in np.unique(nd[near]).tolist():
            idx = np.flatnonzero(nd == k)
            g = gains[idx].tolist()
            keep = 0
            for i in range(1, len(g)):
                if g[i] > g[keep] + SPLIT_GAIN_TOL:
                    keep = i
            winner[k] = idx[keep]
    return winner


def cart_scores(tree: CartNode, X: np.ndarray) -> np.ndarray:
    """Attack probability of the leaf each row reaches.

    One descent for the whole batch: each split partitions the row indices
    that reached it, with the same ``x <= threshold`` test as a single walk.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(len(X))
    todo = [(tree, np.arange(len(X)))]
    while todo:
        node, idx = todo.pop()
        if node.is_leaf:
            out[idx] = node.probs[1]
            continue
        go_left = X[idx, node.feature] <= node.threshold
        for child, rows in ((node.left, idx[go_left]), (node.right, idx[~go_left])):
            if len(rows):
                todo.append((child, rows))
    return out


def _tree_to_dict(node: CartNode) -> dict:
    """The node's set fields, children nested: the model file's tree schema."""
    d = {k: v for k, v in vars(node).items() if v is not None}
    if not node.is_leaf:
        d["left"], d["right"] = _tree_to_dict(node.left), _tree_to_dict(node.right)
    return d


def _tree_from_dict(d: dict) -> CartNode:
    node = CartNode(**d)
    if not node.is_leaf:
        node.left, node.right = _tree_from_dict(d["left"]), _tree_from_dict(d["right"])
    return node


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------


def rf_fit(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 400,
    max_depth: int = 90,
    min_split: int = 12,
    min_leaf: int = 5,
    seed: int = 0,
    criterion: str = "gini",
    weights: Mapping[int, float] | None = None,
) -> list[CartNode]:
    """Bag ``n_trees`` CART trees on bootstrap resamples of the same size.

    Per-tree randomness comes from independently spawned sub-generators of
    the master seed, so refits are reproducible regardless of evaluation
    order.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = len(y)
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in children:
        idx = np.random.default_rng(ss).integers(0, n, size=n)
        trees.append(
            cart_fit(
                X[idx],
                y[idx],
                criterion=criterion,
                max_depth=max_depth,
                min_split=min_split,
                min_leaf=min_leaf,
                weights=weights,
            )
        )
    return trees


def rf_scores(forest: list[CartNode], X: np.ndarray) -> np.ndarray:
    """Mean of the member trees' leaf probabilities, per row.

    The mean runs along the contiguous tree axis of a (rows, trees) array,
    which sums each row exactly as the mean of one row's tree list does.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.stack([cart_scores(t, X) for t in forest], axis=1).mean(axis=1)


# ---------------------------------------------------------------------------
# One-hidden-layer neural network
# ---------------------------------------------------------------------------


@dataclass
class NnModel:
    """relu hidden layer, sigmoid output, binary cross-entropy training."""

    w_hidden: np.ndarray  # (n_features, n_hidden)
    b_hidden: np.ndarray  # (n_hidden,)
    w_out: np.ndarray  # (n_hidden,)
    b_out: float


def nn_init(n_features: int, n_hidden: int, seed: int) -> NnModel:
    rng = np.random.default_rng(seed)
    r = NN_INIT_RANGE
    return NnModel(
        w_hidden=rng.uniform(-r, r, size=(n_features, n_hidden)),
        b_hidden=rng.uniform(-r, r, size=n_hidden),
        w_out=rng.uniform(-r, r, size=n_hidden),
        b_out=float(rng.uniform(-r, r)),
    )


def _nn_logits(model: NnModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden_pre = X @ model.w_hidden + model.b_hidden
    hidden = np.maximum(hidden_pre, 0.0)
    return hidden @ model.w_out + model.b_out, hidden


def nn_forward(model: NnModel, X: np.ndarray) -> np.ndarray:
    """Attack probability per row of a (rows, features) matrix."""
    logits, _ = _nn_logits(model, np.asarray(X, dtype=float))
    return 1.0 / (1.0 + np.exp(-logits))


def _nn_pack(model: NnModel) -> np.ndarray:
    """The parameters as one vector: ``w_hidden | b_hidden | w_out | b_out``."""
    return np.concatenate(
        (model.w_hidden.ravel(), model.b_hidden, model.w_out, (model.b_out,))
    )


def _nn_split(flat: np.ndarray, n_features: int, n_hidden: int):
    """``w_hidden``, ``b_hidden`` and ``w_out`` as views into a packed vector."""
    k = n_features * n_hidden
    return flat[:k].reshape(n_features, n_hidden), flat[k : k + n_hidden], flat[k + n_hidden : -1]


def _nn_kernel(theta: np.ndarray, grad: np.ndarray, n_features: int, n_hidden: int):
    """Bind the loss-and-gradient step to packed parameter and gradient buffers.

    Returns ``step(X, y) -> loss``: the mean binary cross-entropy of one batch
    at ``theta``, with its gradient written into ``grad`` (same layout). The
    loss is computed from logits (softplus form), so it stays finite for any
    weights, and its mean is the sum over n, as ``np.mean`` computes it.
    """
    W, bh, wo = _nn_split(theta, n_features, n_hidden)
    gW, gbh, gwo = _nn_split(grad, n_features, n_hidden)

    def step(X: np.ndarray, y: np.ndarray) -> float:
        n = len(y)
        hidden = X @ W
        hidden += bh
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ wo
        logits += theta[-1]
        # (max(l, 0) - y*l) + log1p(exp(-|l|))
        losses = np.maximum(logits, 0.0)
        losses -= y * logits
        tail = np.abs(logits)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        losses += tail
        # dlogits = (1 / (1 + exp(-l)) - y) / n
        dlogits = np.negative(logits)
        np.exp(dlogits, out=dlogits)
        dlogits += 1.0
        np.divide(1.0, dlogits, out=dlogits)
        dlogits -= y
        dlogits /= n
        np.matmul(hidden.T, dlogits, out=gwo)
        grad[-1] = dlogits.sum()
        dhidden = np.multiply(dlogits[:, None], wo)
        np.copyto(dhidden, 0.0, where=hidden <= 0.0)
        np.matmul(X.T, dhidden, out=gW)
        dhidden.sum(axis=0, out=gbh)
        return float(losses.sum()) / n

    return step


def nn_loss_and_grads(model: NnModel, X: np.ndarray, y: np.ndarray):
    """Mean binary cross-entropy and its gradients for one batch.

    Runs ``nn_train``'s kernel on a packed copy of ``model``; the gradients
    are views into the kernel's gradient buffer. The tests compare them
    against central finite differences.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = model.w_hidden.shape
    theta = _nn_pack(model)
    grad = np.empty_like(theta)
    loss = _nn_kernel(theta, grad, *shape)(X, y)
    gW, gbh, gwo = _nn_split(grad, *shape)
    return loss, {"w_hidden": gW, "b_hidden": gbh, "w_out": gwo, "b_out": float(grad[-1])}


class NnDivergedError(ConfigError, RuntimeError):
    """``nn_train``'s loss went non-finite: a config error, since the cure is
    a lower learning rate."""


def nn_train(
    X: np.ndarray,
    y: np.ndarray,
    epochs: int = 100,
    batch_size: int = 50,
    lr: float = 0.2,
    seed: int = 0,
    n_hidden: int = 10,
) -> NnModel:
    """Mini-batch Adam on binary cross-entropy.

    Raises ``NnDivergedError`` if the loss goes non-finite (lower the
    learning rate). Deterministic per seed: initialization and epoch
    shuffles come from the same generator.

    One step works on flat, preallocated buffers: the parameters are one
    vector ``theta`` (``w_hidden | b_hidden | w_out | b_out``) that the
    kernel reads through views, the gradient fills a vector of the same
    layout, and the Adam moments are the two rows of one array, so the
    update is eleven in-place operations over all parameters at once. Each
    epoch gathers its shuffled rows once and slices the batches from them.
    The floating-point order is that of the per-array update,
    m = B1*m + (1-B1)*g, v = B2*v + ((1-B2)*g)*g and
    theta -= (lr*(m/corr1)) / (sqrt(v/corr2)+eps), which keeps the trained
    weights, and so the model files, bit for bit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int).astype(float)
    rng = np.random.default_rng(seed)
    model = nn_init(X.shape[1], n_hidden, seed=int(rng.integers(2**32)))
    theta = _nn_pack(model)
    grad = np.empty_like(theta)
    loss_and_grad = _nn_kernel(theta, grad, X.shape[1], n_hidden)
    moments = np.zeros((2, len(theta)))
    m, v = moments
    terms = np.empty_like(moments)
    m_hat, v_hat = terms
    decay = np.array([[ADAM_BETA1], [ADAM_BETA2]])
    gain = np.array([[1 - ADAM_BETA1], [1 - ADAM_BETA2]])
    step = 0
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            loss = loss_and_grad(X_epoch[start:stop], y_epoch[start:stop])
            if not math.isfinite(loss):
                raise NnDivergedError(
                    "training diverged to a non-finite loss; the learning rate "
                    f"{lr} is likely too high for this data"
                )
            step += 1
            moments *= decay
            np.multiply(gain, grad, out=terms)
            v_hat *= grad
            moments += terms
            np.divide(m, 1.0 - ADAM_BETA1**step, out=m_hat)
            m_hat *= lr
            np.divide(v, 1.0 - ADAM_BETA2**step, out=v_hat)
            np.sqrt(v_hat, out=v_hat)
            v_hat += ADAM_EPS
            m_hat /= v_hat
            theta -= m_hat
    W, bh, wo = _nn_split(theta, X.shape[1], n_hidden)
    return NnModel(W.copy(), bh.copy(), wo.copy(), float(theta[-1]))


# ---------------------------------------------------------------------------
# Family table, model facade and grid search
# ---------------------------------------------------------------------------


def _at_least(low, kind=int) -> Callable[[object], bool]:
    """A grid-value check: a finite ``kind`` number (never a bool) >= ``low``."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and low <= v < math.inf


_TREE_KEYS = {
    "criterion": lambda v: v in ("gini", "entropy"),
    "max_depth": _at_least(0),
    "min_split": _at_least(1),
    "min_leaf": _at_least(1),
}


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one baseline family.

    ``smote`` is the balancing policy: SMOTE-resample before ``fit`` (its
    ``smote_k`` parameter is consumed there), or else ``fit`` weighs the
    classes with ``class_weights``. ``keys`` maps each parameter a grid may
    set to its value check; a grid must set the ``required`` ones.
    ``fit(params, X, y, seed)`` returns the fitted state, ``scores(state,
    params, X)`` scores a batch of rows, and ``to_payload``/``from_payload``
    convert the state to and from the family's part of the model file.
    """

    smote: bool
    grid: dict[str, list]
    keys: dict[str, Callable[[object], bool]]
    fit: Callable[[dict, np.ndarray, np.ndarray, int], Any]
    scores: Callable[[Any, dict, np.ndarray], np.ndarray]
    to_payload: Callable[[Any], dict]
    from_payload: Callable[[dict], Any]
    required: tuple[str, ...] = ()


# The fit callables look cart_fit, rf_fit and nn_train up as module globals
# at call time, so a wrapper installed on the module attribute sees every fit.
FAMILIES: dict[str, Family] = {
    "knn": Family(
        smote=True,
        grid={"k": [5, 19]},
        keys={"k": _at_least(1), "smote_k": _at_least(1)},
        required=("k",),
        fit=lambda params, X, y, seed: (X, y),
        scores=lambda state, params, X: knn_scores(state[0], state[1], X, params["k"]),
        to_payload=lambda state: {
            "train_features": state[0].tolist(),
            "train_labels": state[1].tolist(),
        },
        from_payload=lambda p: (
            np.array(p["train_features"], dtype=float),
            np.array(p["train_labels"], dtype=int),
        ),
    ),
    "cart": Family(
        smote=False,
        grid={"criterion": ["entropy"], "max_depth": [4, 8]},
        keys=_TREE_KEYS,
        fit=lambda params, X, y, seed: cart_fit(X, y, weights=class_weights(y), **params),
        scores=lambda tree, params, X: cart_scores(tree, X),
        to_payload=lambda tree: {"tree": _tree_to_dict(tree)},
        from_payload=lambda p: _tree_from_dict(p["tree"]),
    ),
    "rf": Family(
        smote=False,
        grid={"n_trees": [400], "max_depth": [90], "min_split": [12], "min_leaf": [5]},
        keys={**_TREE_KEYS, "n_trees": _at_least(1)},
        fit=lambda params, X, y, seed: rf_fit(X, y, seed=seed, weights=class_weights(y), **params),
        scores=lambda forest, params, X: rf_scores(forest, X),
        to_payload=lambda forest: {"trees": [_tree_to_dict(t) for t in forest]},
        from_payload=lambda p: [_tree_from_dict(t) for t in p["trees"]],
    ),
    "nn": Family(
        smote=True,
        grid={"epochs": [100], "batch_size": [50], "lr": [0.2], "n_hidden": [10]},
        keys={
            "epochs": _at_least(1),
            "batch_size": _at_least(1),
            "lr": _at_least(0.0, (int, float)),
            "n_hidden": _at_least(1),
            "smote_k": _at_least(1),
        },
        fit=lambda params, X, y, seed: nn_train(X, y, seed=seed, **params),
        scores=lambda nn, params, X: nn_forward(nn, np.atleast_2d(X)),
        to_payload=lambda nn: {
            f.name: np.asarray(getattr(nn, f.name)).tolist() for f in fields(nn)
        },
        from_payload=lambda p: NnModel(
            np.array(p["w_hidden"], dtype=float),
            np.array(p["b_hidden"], dtype=float),
            np.array(p["w_out"], dtype=float),
            float(p["b_out"]),
        ),
    ),
}

MODEL_FAMILIES = tuple(FAMILIES)


@dataclass
class FittedModel:
    """A fitted baseline: its family, selected params and the family's state."""

    family: str
    params: dict
    state: Any

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Attack score per row, in one batch call to the family's scorer."""
        return FAMILIES[self.family].scores(self.state, self.params, X)

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_scores(X) > LABEL_CUT).astype(int)


def fit_family(
    family: str, params: Mapping[str, object], X: np.ndarray, y: np.ndarray, seed: int
) -> FittedModel:
    """Balance (per family policy) and fit one model. Deterministic per seed."""
    entry = FAMILIES.get(family)
    if entry is None:
        raise ValueError(f"unknown model family {family!r}; expected {MODEL_FAMILIES}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    params = dict(params)
    if entry.smote:
        X, y = smote_balance(X, y, k=params.pop("smote_k", 5), seed=seed)
    return FittedModel(family, params, entry.fit(params, X, y, seed))


def expand_grid(grid: Mapping[str, Sequence[object]]) -> list[dict]:
    """Cartesian product of a {param: values} grid, in insertion order."""
    keys = list(grid.keys())
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


@dataclass
class GridCell:
    params: dict
    fold_accuracies: list[float]
    fold_predictions: list[np.ndarray]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))


@dataclass
class GridSearchResult:
    best_params: dict
    best_accuracy: float
    cells: list[GridCell]


def grid_search(
    family: str,
    cells: Sequence[Mapping[str, object]],
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    folds: int = 5,
    folds_idx: list[np.ndarray] | None = None,
) -> GridSearchResult:
    """Stratified k-fold selection of one of ``family``'s parameter ``cells``
    by mean validation accuracy.

    Class balancing happens inside each training fold only; validation folds
    are never resampled, and their labels are read only to score. Ties keep
    the earliest cell in grid order. ``folds_idx`` overrides the seeded fold
    assignment (used by tests).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if folds_idx is None:
        folds_idx = stratified_folds(y, folds, seed)
    all_idx = np.arange(len(y))
    results: list[GridCell] = []
    for c_i, params in enumerate(cells):
        accs: list[float] = []
        preds: list[np.ndarray] = []
        for f_i, val_idx in enumerate(folds_idx):
            train_idx = np.setdiff1d(all_idx, val_idx)
            sub_seed = int(
                np.random.SeedSequence((seed, c_i, f_i)).generate_state(1)[0]
            )
            model = fit_family(family, params, X[train_idx], y[train_idx], sub_seed)
            pred = model.predict_labels(X[val_idx])
            preds.append(pred)
            accs.append(float(np.mean(pred == y[val_idx])))
        results.append(GridCell(params=dict(params), fold_accuracies=accs, fold_predictions=preds))
    best = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return GridSearchResult(
        best_params=results[best].params,
        best_accuracy=results[best].mean_accuracy,
        cells=results,
    )
