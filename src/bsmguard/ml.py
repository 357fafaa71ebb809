"""From-scratch supervised baselines on (avg_speed, avg_accel) features.

Binary classifiers only: KNN, CART decision trees, bootstrap-aggregated
forests, and a one-hidden-layer network trained with Adam, plus SMOTE-style
class balancing and a stratified k-fold grid search. Labels are 0 (clean)
and 1 (attack). Each family scores a batch of rows at once, and
``FAMILIES`` is the one table the rest of the package dispatches on. The only
one-row call left is ``knn_predict``: the benchmark's tracer
(``perfbench/tracer.py``) patches it by name, so it goes together with that
tracer hook.

KNN scoring (``knn_scores``) and SMOTE (``smote_balance``) need only each
row's k nearest neighbours, so ``_nearest`` finds them by partition instead
of a full stable sort: every distance below a row's kth value, then the
columns equal to it in column order. That is exactly the head of the stable
argsort, so the neighbours, scores, synthetic rows and model bytes are the
same; ``tests/reference.py`` keeps the full-sort versions as oracles.

CART (``cart_fit``) and the forest (``rf_fit``) share one grower
(``_grow``), which argsorts each feature once per tree and grows a block of
trees one depth at a time: the open nodes of every tree in the block own
contiguous segments of every feature's sorted rows, and all of them are
scored with whole-array operations. ``cart_fit`` is the one-tree block; a
forest's trees go in blocks of at most ``RF_BLOCK_ROWS`` bootstrap rows,
and each tree comes out as ``cart_fit`` grows it alone, so the model bytes
are the same. A node's candidate thresholds are the midpoints between
distinct consecutive values that leave at least ``min_leaf`` rows on each
side; zero-gain candidates are eligible; the first candidate in (feature,
threshold) order wins unless a later one gains more by over
``SPLIT_GAIN_TOL`` (1e-15). Class weights are one constant per class,
so every weighted count is a function of integer class counts and is
computed with the same floating-point operations as summing the rows: the
trees are bit for bit those of a node-by-node search.

Trees are scored in one descent (``_leaf_probs``). Each call flattens its
trees in pre-order into arrays, so a split's left child is the next node,
and every (row, tree) pair then steps down at once with a single walk's
``x <= threshold`` test until all pairs sit on leaves. ``rf_scores`` is the
mean along the contiguous tree axis of that (rows, trees) array, the same
bits as the mean of each row's tree list; ``cart_scores`` is its one column.
The tree families' ``to_payload`` hands its ``CartNode``s to ``model_io``,
whose writer puts each node out as the dict of its set fields;
``tests/reference.py`` keeps that dict form (``tree_to_dict``) as its oracle.

The NN trainer (``nn_train``) trains the networks whose ``(X, y, seed)``
sets have one row count as a block (``_nn_block``), in one stacked Adam
step: the parameters are one (networks, n_params) array, each row laid out
``w_hidden | b_hidden | w_out | b_out``, which the loss-and-gradient kernel
reads through views; the gradient has the same layout, and the two Adam
moments are the planes of one array, so a step is a few dozen whole-array
operations for the whole block. Each network keeps its own generator,
initialization and epoch permutation, and its slice of every operation is
the one it would run in a block of one, so it comes out bit for bit the
same. A grid cell's folds train in one call, the final fit in another;
``tests/test_nn.py`` runs the same kernel for its gradient check. Each step
keeps the floating-point order of the per-array update it replaced: m =
B1*m + (1-B1)*g, v = B2*v + ((1-B2)*g)*g, the step (lr*(m/corr1)) /
(sqrt(v/corr2)+eps), the loss (max(l,0) - y*l) + log1p(exp(-|l|)) averaged
as sum/n, and +0.0 gradient where a relu is off. That order is what keeps
the trained weights, and so the model files, byte for byte the same;
``tests/reference.py`` keeps the per-array loop as an oracle, and
``tests/test_nn.py`` checks blocks of k against blocks of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from bsmguard.bsm import DataError
from bsmguard.config import ConfigError, reject_unknown_keys

#: Every family labels a row attack when its score is above this cut.
LABEL_CUT = 0.5

#: Distances KNN and SMOTE hold at once: 128 KiB of float64 per block of rows.
KNN_BLOCK_CELLS = 1 << 14

#: The tree split criteria.
CRITERIA = ("gini", "entropy")

#: Bootstrap rows a forest grows at once. A level pass's temporaries come to
#: about 1.3 MiB for a full block of two-feature rows; growing 40 trees of
#: 800 rows at once would take about 8.5 MiB more.
RF_BLOCK_ROWS = 1 << 12

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
    is_test = np.zeros(len(y), dtype=bool)
    for cls in np.unique(y):
        perm = rng.permutation(np.flatnonzero(y == cls))
        n_test = min(max(int(round(len(perm) * test_fraction)), 1), len(perm) - 1)
        is_test[perm[:n_test]] = True
    return np.flatnonzero(~is_test), np.flatnonzero(is_test)


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified partition into ``folds`` sorted validation index
    arrays: fold f holds ``perm[f::folds]`` of each class's permutation."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    counts = np.bincount(y, minlength=2)
    if np.any(counts[np.unique(y)] < folds):
        raise DataError(
            f"infeasible stratification: every class needs >= {folds} samples, "
            f"got counts {counts.tolist()}"
        )
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        perm = rng.permutation(np.flatnonzero(y == cls))
        fold_of[perm] = np.arange(len(perm)) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


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

    Neighbours rank by distance, ties by minority row order. The loop makes
    the generator's draws in their fixed order and records them; neighbours
    are then found only for the minority rows it drew, in blocks of at most
    ``KNN_BLOCK_CELLS`` distances, as in ``knn_scores``, so no (minority,
    minority) matrix is built. ``_nearest`` selects each row's
    ``min(k, minority - 1)`` nearest without sorting the whole distance
    row, and only those are stably sorted by distance: the same neighbours
    in the same order as a full stable sort. The synthetic rows are
    interpolated in one array operation with the same arithmetic per
    element, so the output is the same bit for bit.
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
    k_eff = min(k, n_min - 1)
    n_new = target - n_min
    rows, slots, fracs = [], [], []
    for _ in range(n_new):
        rows.append(int(rng.integers(0, n_min)))
        slots.append(int(rng.integers(0, k_eff)))
        fracs.append(rng.random())

    # Only the drawn rows' neighbours are used, so only they are found.
    drawn = np.unique(np.array(rows, dtype=np.intp))
    neighbors = np.empty((len(drawn), k_eff), dtype=np.intp)
    step = max(1, KNN_BLOCK_CELLS // n_min)
    for start in range(0, len(drawn), step):
        block = drawn[start : start + step]
        d2 = _sq_dists(X_min[block], X_min)
        d2[np.arange(len(block)), block] = np.inf
        # Each row's k_eff nearest, in column order, then stably by distance:
        # the first k_eff columns of the row's stable argsort.
        near = np.nonzero(_nearest(d2, k_eff))[1].reshape(len(d2), k_eff)
        rank = np.argsort(np.take_along_axis(d2, near, axis=1), axis=1, kind="stable")
        neighbors[start : start + step] = np.take_along_axis(near, rank, axis=1)
    picks = neighbors[np.searchsorted(drawn, rows), slots]
    base = X_min[rows]
    synth = base + np.array(fracs)[:, None] * (X_min[picks] - base)

    X_out = np.concatenate([X[keep_maj], X_min, synth])
    return X_out, np.repeat([majority, minority], [target, n_min + n_new])


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
    ``_nearest`` selects the neighbours by partition, not a full sort; the
    score is their exact integer attack count over ``k``, the same double
    as the mean of their labels.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if k < 1 or k > len(X_train):
        raise DataError(f"k must be in [1, {len(X_train)}], got {k}")
    attack = y_train == 1
    out = np.empty(len(Q))
    step = max(1, KNN_BLOCK_CELLS // len(X_train))
    for start in range(0, len(Q), step):
        near = _nearest(_sq_dists(Q[start : start + step], X_train), k)
        out[start : start + step] = np.count_nonzero(near & attack, axis=1) / k
    return out


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (rows of A, rows of B).

    The squares add up one feature column at a time, in column order. For
    fewer than eight features that is the order in which ``np.sum`` adds
    them along the last axis of an (A, B, features) difference array, and
    no such array is built.
    """
    d2 = np.zeros((len(A), len(B)))
    for j in range(B.shape[1]):
        d2 += (B[:, j] - A[:, j, None]) ** 2
    return d2


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's ``k`` smallest entries, ties taken in column order.

    These are the first ``k`` columns of the row's stable argsort, found
    without sorting: ``np.partition`` gives the row's kth value, every column
    below it is in, and the columns equal to it fill the remaining places
    from the left. Only rows with more such columns than places need the
    running count. ``d2`` must hold no NaN: NaN compares false both ways,
    so a row whose kth value is NaN would come out short.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    near = d2 < kth
    tied = d2 == kth
    places = k - np.count_nonzero(near, axis=1)
    over = np.flatnonzero(np.count_nonzero(tied, axis=1) > places)
    if len(over):
        tied[over] &= np.cumsum(tied[over], axis=1) <= places[over, None]
    return near | tied


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


def _impurity_vec(w0: np.ndarray, w1: np.ndarray, criterion: str) -> np.ndarray:
    """Node impurity per element from two-class (possibly weighted) counts
    ``w0`` and ``w1``: gini 2 p (1 - p), or entropy -p log2 p - q log2 q,
    with p = w1 / (w0 + w1) and q = 1 - p. An all-zero pair gives 0.
    ``criterion`` is one of CRITERIA: ``_tree_inputs`` checks it.
    """
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


#: Model input columns, (avg_speed, avg_accel), as pipeline.model_dataset builds.
N_FEATURES = 2


@dataclass(slots=True)
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

    Growth. The tree is the one-tree case of the level-wise grower that
    ``rf_fit`` runs on blocks of trees (``_grow``): each feature is argsorted
    once, and the tree grows one depth at a time, every node of a depth
    owning a contiguous segment of each feature's sorted rows and all of
    them scored with whole-array operations. The winners' rows are then
    stably partitioned into their children's segments, which therefore stay
    sorted.

    Exact weighted sums. Weights are one constant per class. Summing a
    node's sorted row weights class by class adds either the class weight or
    nothing per row, so the weighted count left of a threshold is the
    running sum of that many copies of the class weight, looked up at the
    integer class count. A node total is numpy's (pairwise) sum of that
    many copies (``_class_total``). Both carry the same bits as summing the
    rows themselves, so the trees equal those of a node-by-node search.
    """
    X, y, wc = _tree_inputs(X, y, criterion, weights)
    rows = np.arange(len(y))[None, :]
    return _grow(X, y, rows, wc, criterion, max_depth, min_split, min_leaf)[0]


def _tree_inputs(
    X: np.ndarray, y: np.ndarray, criterion: str, weights: Mapping[int, float] | None
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Checked float features and 0/1 labels, and the (clean, attack) weights."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) == 0:
        raise ValueError("empty training set")
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("X needs one row per sample and at least one feature column")
    present = set(np.unique(y).tolist())
    if not present <= {0, 1}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(present)}")
    # Only the classes present need a weight: an absent one counts no rows.
    wc = [1.0 if weights is None or c not in present else float(weights[c]) for c in (0, 1)]
    return X, y, wc


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    wc: list[float],
    criterion: str,
    max_depth: int,
    min_split: int,
    min_leaf: int,
) -> list[CartNode]:
    """Grow one tree on each row of ``rows`` (indices into ``X``), together.

    The trees' rows are stacked tree after tree, and each feature is sorted
    by (tree, value), so every root owns one contiguous segment. From there
    each level pass scores, splits and partitions every open node of every
    tree at once, exactly as for one tree: a segment never mixes trees, and
    all roots start at depth 0. A class a tree's rows lack adds only zero
    counts, whose weighted sums are 0.0 for any weight, so one weight pair
    serves every tree.
    """
    n_trees, n = rows.shape
    d = X.shape[1]
    columns = np.ascontiguousarray(X.T[:, rows])  # (features, trees, rows)
    # order[j]: stacked positions by (tree, value of feature j).
    order = np.argsort(columns, axis=2, kind="stable") + n * np.arange(n_trees)[:, None]
    order = order.reshape(d, n_trees * n)
    columns = columns.reshape(d, n_trees * n)
    y = y[rows.ravel()]
    # running[c][k]: the weighted count of k rows of class c, summed in row order.
    running = [np.concatenate(([0.0], np.cumsum(np.full(n, w)))) for w in wc]
    feature_ix = np.arange(d)[:, None]

    sizes = np.full(n_trees, n)  # rows per open node, in segment order
    hang: list[tuple[CartNode, str] | None] = [None] * n_trees  # where each open node attaches
    roots: list[CartNode] = []
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
                roots.append(node)
            else:
                setattr(*hang[i], node)
            nodes.append(node)
        grow = (depth < max_depth) & (sizes >= min_split) & (w0 != 0.0) & (w1 != 0.0)

        # Candidate boundary p of feature j: positions < p go left. A
        # segment's first position is never one, so no candidate spans nodes.
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
        probs = list(zip((w0 / total).tolist(), (w1 / total).tolist()))
        for i in np.flatnonzero(~split).tolist():
            nodes[i].probs = probs[i]
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
        child = np.full(len(y), -1)
        child[order[0]] = np.where(split[seg], 2 * (np.cumsum(split) - 1)[seg] + 1, -1)
        child[order[(win_feat[seg] == feature_ix) & (pos < win_b[seg])]] -= 1
        keys = child[order]
        kept = keys[0][keys[0] >= 0]
        order = order[feature_ix, np.argsort(keys, axis=1, kind="stable")[:, m - len(kept) :]]
        sizes = np.bincount(kept, minlength=2 * len(wf))
        depth += 1
    return roots


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
    """Attack probability of the leaf each row reaches: the one-tree column
    of ``_leaf_probs``."""
    return _leaf_probs([tree], X)[:, 0]


def _flatten(trees: Sequence[CartNode]) -> tuple[np.ndarray, ...]:
    """The trees' nodes in pre-order as arrays, so a split's left child is the
    next node: (feature, threshold, right, p1, roots). A leaf has feature -1
    and its attack probability in ``p1``; ``roots`` indexes each tree's root."""
    feature, threshold, right, p1, roots = [], [], [], [], []
    for tree in trees:
        roots.append(len(feature))
        todo = [(tree, -1)]  # (node, the split whose right child it is)
        while todo:
            node, parent = todo.pop()
            if parent >= 0:
                right[parent] = len(feature)
            right.append(-1)
            if node.feature is None:
                feature.append(-1)
                threshold.append(0.0)
                p1.append(node.probs[1])
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                p1.append(math.nan)
                todo += ((node.right, len(feature) - 1), (node.left, -1))
    return (np.array(feature, dtype=int), np.array(threshold, dtype=float),
            np.array(right, dtype=int), np.array(p1, dtype=float), np.array(roots, dtype=int))


def _leaf_probs(trees: Sequence[CartNode], X: np.ndarray) -> np.ndarray:
    """Each tree's leaf attack probability per row, as a C-ordered (rows, trees) array.

    One descent for every (row, tree) pair at once: the trees are flattened
    (``_flatten``), and each step moves every pair not yet on a leaf to a
    child with the same ``x <= threshold`` test as a single walk.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    feature, threshold, right, p1, roots = _flatten(trees)
    n, k, d = len(X), len(roots), X.shape[1]
    if n and feature.max() >= d:
        raise IndexError(f"a tree splits on feature {feature.max()}, but rows have {d}")
    values = X.ravel()
    at = np.tile(roots, n)  # the node of pair row * k + tree
    todo = np.flatnonzero(feature[at] >= 0)
    first = todo // k * d  # where the pair's row starts in ``values``
    while len(todo):
        node = at[todo]
        go_left = values[first + feature[node]] <= threshold[node]
        node = np.where(go_left, node + 1, right[node])
        at[todo] = node
        inner = feature[node] >= 0
        todo, first = todo[inner], first[inner]
    return p1[at].reshape(n, k)


def _tree_from_dict(d: dict) -> CartNode:
    """The tree a model file holds; a node that cannot score, or that
    ``cart_fit`` could not have grown, is a ValueError."""
    node = CartNode(**d)
    counts = node.counts
    numbers = (*counts, node.impurity, *(node.probs if node.is_leaf else [node.threshold]))
    if not set(map(type, numbers)) <= {int, float}:
        raise ValueError(f"tree node numbers {numbers!r} must be JSON numbers")
    if len(counts) != 2 or not (0.0 <= counts[0] < math.inf and 0.0 <= counts[1] < math.inf):
        raise ValueError(f"tree node counts {counts!r} are not two finite numbers of at least 0")
    if type(node.n_samples) is not int or node.n_samples < 1:
        raise ValueError(f"tree node n_samples {node.n_samples!r} is not a positive int")
    if not 0.0 <= node.impurity < math.inf:
        raise ValueError(f"tree node impurity {node.impurity!r} is not finite and at least 0")
    if node.is_leaf:
        # In range means finite too: the attack probability is the row's score.
        probs = node.probs
        if len(probs) != 2 or not (0.0 <= probs[0] <= 1.0 and 0.0 <= probs[1] <= 1.0):
            raise ValueError(f"tree leaf probabilities {probs!r} are not two numbers in [0, 1]")
    else:
        if type(node.feature) is not int or not 0 <= node.feature < N_FEATURES:
            raise ValueError(f"tree node feature {node.feature!r} is not in [0, {N_FEATURES})")
        if not math.isfinite(node.threshold):
            raise ValueError(f"tree node threshold {node.threshold!r} is not finite")
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
    order. The trees grow together in blocks of at most ``RF_BLOCK_ROWS``
    bootstrap rows (at least one tree per block): one level pass of the
    grower that ``cart_fit`` also uses splits every open node of every tree
    in the block, so numpy's per-call overhead is paid once per block, not
    once per tree. Each tree, and so the model file, is exactly what
    ``cart_fit`` gives on that tree's bootstrap rows.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    X, y, wc = _tree_inputs(X, y, criterion, weights)
    n = len(y)
    children = np.random.SeedSequence(seed).spawn(n_trees)
    per_block = max(1, RF_BLOCK_ROWS // n)
    trees = []
    for start in range(0, n_trees, per_block):
        rows = np.array([np.random.default_rng(ss).integers(0, n, size=n)
                         for ss in children[start : start + per_block]])
        trees += _grow(X, y, rows, wc, criterion, max_depth, min_split, min_leaf)
    return trees


def rf_scores(forest: list[CartNode], X: np.ndarray) -> np.ndarray:
    """Mean of the member trees' leaf probabilities, per row.

    The mean runs along the contiguous tree axis of ``_leaf_probs``'s (rows,
    trees) array, which sums each row exactly as the mean of one row's tree
    list does.
    """
    if not forest:
        raise ValueError("a forest needs at least one tree")
    return _leaf_probs(forest, X).mean(axis=1)


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


def nn_forward(model: NnModel, X: np.ndarray) -> np.ndarray:
    """Attack probability per row of a (rows, features) matrix."""
    hidden = np.maximum(np.asarray(X, dtype=float) @ model.w_hidden + model.b_hidden, 0.0)
    logits = hidden @ model.w_out + model.b_out
    return 1.0 / (1.0 + np.exp(-logits))


def _nn_pack(model: NnModel) -> np.ndarray:
    """The parameters as one vector: ``w_hidden | b_hidden | w_out | b_out``."""
    return np.concatenate(
        (model.w_hidden.ravel(), model.b_hidden, model.w_out, (model.b_out,))
    )


def _nn_split(flat: np.ndarray, n_features: int, n_hidden: int):
    """``w_hidden``, ``b_hidden`` and ``w_out`` of every packed row of ``flat``, as views."""
    k = n_features * n_hidden
    return (
        flat[:, :k].reshape(len(flat), n_features, n_hidden),
        flat[:, k : k + n_hidden],
        flat[:, k + n_hidden : -1],
    )


def _stacked(k: int, *shape: int) -> np.ndarray:
    """An empty (k, *shape) float array whose k slices start a whole number of
    16-byte units apart.

    numpy allocates each array 16-byte aligned, so each slice has the
    alignment the array would have on its own. That matters to the bits:
    some BLAS kernels (OpenBLAS's SSE3 dot product, for one) add in an order
    that depends on it.
    """
    size = math.prod(shape)
    return np.empty((k, size + size % 2))[:, :size].reshape(k, *shape)


def _nn_kernel(theta: np.ndarray, grad: np.ndarray, n_features: int, n_hidden: int):
    """Bind the loss-and-gradient step of a block of networks to its buffers.

    ``theta`` and ``grad`` hold one packed parameter vector per network, as
    the rows of a (networks, n_params) array. Returns ``step(X, y) ->
    losses``: for a (networks, batch, features) stack ``X`` and its
    (networks, batch, 1) labels ``y``, each network's binary cross-entropy
    summed over the batch at its ``theta`` row, with the gradient of its
    mean written into its ``grad`` row. Each operation runs once over the
    whole stack. A network's
    slice of it has the strides, and (with ``_stacked`` buffers) the
    alignment, it would have alone, so the matrix products make the same
    BLAS call per network and the reductions add in the same order. The
    loss is computed from logits (softplus form), so it stays finite for any
    weights; its mean is the sum over n, as ``np.mean`` computes it, and is
    finite exactly when the sum is.
    """
    W, bh, wo = _nn_split(theta, n_features, n_hidden)
    gW, gbh, gwo = _nn_split(grad, n_features, n_hidden)
    bh, wo_col, wo_row, b_out = bh[:, None], wo[:, :, None], wo[:, None], theta[:, -1:, None]
    gwo, gb_out = gwo[:, :, None], grad[:, -1:]
    k = len(theta)
    temps: dict[int, tuple] = {}  # batch rows -> the step's temporaries

    def step(X: np.ndarray, y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        if n not in temps:
            temps[n] = (_stacked(k, n, n_hidden), _stacked(k, n, n_hidden),
                        *(_stacked(k, n, 1) for _ in range(4)))
        hidden, dhidden, logits, losses, tail, dlogits = temps[n]
        np.matmul(X, W, out=hidden)
        hidden += bh
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden, wo_col, out=logits)
        logits += b_out
        # (max(l, 0) - y*l) + log1p(exp(-|l|))
        np.maximum(logits, 0.0, out=losses)
        np.multiply(y, logits, out=tail)
        losses -= tail
        np.abs(logits, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        losses += tail
        # dlogits = (1 / (1 + exp(-l)) - y) / n
        np.negative(logits, out=dlogits)
        np.exp(dlogits, out=dlogits)
        dlogits += 1.0
        np.divide(1.0, dlogits, out=dlogits)
        dlogits -= y
        dlogits /= n
        np.matmul(hidden.transpose(0, 2, 1), dlogits, out=gwo)
        dlogits.sum(axis=1, out=gb_out)
        np.multiply(dlogits, wo_row, out=dhidden)
        np.copyto(dhidden, 0.0, where=hidden <= 0.0)
        np.matmul(X.transpose(0, 2, 1), dhidden, out=gW)
        dhidden.sum(axis=1, out=gbh)
        return losses.sum(axis=(1, 2))

    return step


class NnDivergedError(ConfigError, RuntimeError):
    """``nn_train``'s loss went non-finite: a config error, since the cure is
    a lower learning rate."""


def nn_train(
    sets: Sequence[tuple[np.ndarray, np.ndarray, int]],
    epochs: int = 100,
    batch_size: int = 50,
    lr: float = 0.2,
    n_hidden: int = 10,
) -> list[NnModel]:
    """Mini-batch Adam on binary cross-entropy: one network per ``(X, y,
    seed)`` set, in order, each deterministic per seed. The sets of one row
    count train as one block (``_nn_block`` says how a step works). Raises
    ``NnDivergedError`` if any network's loss goes non-finite (lower the
    learning rate)."""
    by_rows: dict[int, list[int]] = {}
    for i, (_, y, _) in enumerate(sets):
        by_rows.setdefault(len(y), []).append(i)
    models: list[NnModel] = [None] * len(sets)
    for group in by_rows.values():
        trained = _nn_block([sets[i] for i in group], epochs, batch_size, lr, n_hidden)
        for i, model in zip(group, trained):
            models[i] = model
    return models


def _nn_block(sets: Sequence[tuple[np.ndarray, np.ndarray, int]], epochs: int, batch_size: int,
              lr: float, n_hidden: int) -> list[NnModel]:
    """Train one network per ``(X, y, seed)`` set, all in one stacked Adam step.

    Every set needs the same row and feature counts, so all networks take
    the same steps. Each network's generator draws its initialization and
    then its epoch permutations, as it would in a block of one, and each
    comes out bit for bit as it trains there. If any network's loss goes
    non-finite, the block raises ``NnDivergedError``.

    The parameters are the rows of one (networks, n_params) ``theta``, the
    gradient has the same layout, and the Adam moments are the two planes
    of one array, so the update is eleven in-place operations over every
    parameter of every network, in the per-array order m = B1*m + (1-B1)*g,
    v = B2*v + ((1-B2)*g)*g, theta -= (lr*(m/corr1)) / (sqrt(v/corr2)+eps).
    Each epoch gathers every network's shuffled rows once and slices the
    batches from that stack. Every array a matrix product reads or writes is
    ``_stacked``, so each network's slice has the layout and alignment of
    its own array.
    """
    X = np.stack([np.asarray(X, dtype=float) for X, _, _ in sets])
    y = np.stack([np.asarray(y, dtype=int).astype(float) for _, y, _ in sets])[:, :, None]
    rngs = [np.random.default_rng(seed) for _, _, seed in sets]
    k, n, n_features = X.shape
    packed = np.array([_nn_pack(nn_init(n_features, n_hidden, seed=int(rng.integers(2**32))))
                       for rng in rngs])
    theta, grad = _stacked(*packed.shape), _stacked(*packed.shape)
    theta[...] = packed
    loss_and_grad = _nn_kernel(theta, grad, n_features, n_hidden)
    moments = np.zeros((2, *theta.shape))
    m, v = moments
    terms = np.empty_like(moments)
    m_hat, v_hat = terms
    decay = np.array([ADAM_BETA1, ADAM_BETA2])[:, None, None]
    gain = np.array([1 - ADAM_BETA1, 1 - ADAM_BETA2])[:, None, None]
    nets = np.arange(k)[:, None]
    # Each epoch's shuffled rows overwrite one stack, so the batch views are
    # cut once. Its slices are C-ordered and aligned as a fresh gather's rows
    # would be: a batch's memory layout selects the BLAS path, and so the
    # bits of its products.
    X_epoch, y_epoch = _stacked(k, n, n_features), np.empty(y.shape)
    batches = [(X_epoch[:, start : start + batch_size], y_epoch[:, start : start + batch_size])
               for start in range(0, n, batch_size)]
    step = 0
    # A diverging run overflows on its way to the non-finite loss the check
    # below reports; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            X_epoch[...], y_epoch[...] = X[nets, order], y[nets, order]
            for X_batch, y_batch in batches:
                loss_sums = loss_and_grad(X_batch, y_batch)
                if not all(map(math.isfinite, loss_sums.tolist())):
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
    W, bh, wo = _nn_split(theta, n_features, n_hidden)
    return [NnModel(W[i].copy(), bh[i].copy(), wo[i].copy(), float(theta[i, -1]))
            for i in range(k)]


# ---------------------------------------------------------------------------
# Family table, model facade and grid search
# ---------------------------------------------------------------------------


def _at_least(low, kind=int) -> Callable[[object], bool]:
    """A grid-value check: a finite ``kind`` number (never a bool) >= ``low``."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and low <= v < math.inf


_TREE_KEYS = {
    "criterion": lambda v: v in CRITERIA,
    "max_depth": _at_least(0),
    "min_split": _at_least(1),
    "min_leaf": _at_least(1),
}


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one baseline family.

    ``smote`` is the balancing policy: SMOTE-resample before ``fit`` (its
    ``smote_k`` parameter is consumed there), or else ``fit`` weighs the
    classes with ``class_weights``. ``keys`` maps each parameter a grid or a
    model file may set to its value check; both must set the ``required``
    ones (``check_params``).
    ``fit(params, sets)`` yields one fitted state per ``(X, y, seed)``
    training set, in order: the NN trains all the sets in one ``nn_train``
    call, and the trees fit one set per ``next``, so a grid search scores
    each forest before it grows the next. ``scores(state, params, X)``
    scores a batch of rows, and ``to_payload``/``from_payload(params,
    payload)`` convert the state to and from the family's part of the model
    file; ``to_payload`` may hold ``CartNode``s, which ``model_io`` writes as
    dicts of their set fields.
    """

    smote: bool
    grid: dict[str, list]
    keys: dict[str, Callable[[object], bool]]
    fit: Callable[[dict, Sequence[tuple[np.ndarray, np.ndarray, int]]], Iterable]
    scores: Callable[[Any, dict, np.ndarray], np.ndarray]
    to_payload: Callable[[Any], dict]
    from_payload: Callable[[dict, dict], Any]
    required: tuple[str, ...] = ()


def finite_array(doc: Mapping, key: str) -> np.ndarray:
    """The float array a model file holds at ``doc[key]``. A string or a bool,
    which ``float()`` would take, is a ValueError naming ``key``, and so is a
    literal like 1e999, which json reads as inf."""
    values = np.array(doc[key], dtype=object)
    if not set(map(type, values.flat)) <= {int, float}:
        raise ValueError(f"{key} must hold JSON numbers only")
    a = values.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite number in the model file's {key}")
    return a


def _label_array(values) -> np.ndarray:
    """A model file's class labels: each must be the integer 0 or 1 (not a bool)."""
    if not all(type(v) is int and v in (0, 1) for v in values):
        raise ValueError("training labels must be the integers 0 or 1")
    return np.array(values, dtype=int)


def _knn_from_payload(p: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """The training set a KNN file holds: ``train_features`` (n, N_FEATURES)
    and ``train_labels`` (n,)."""
    X, y = finite_array(p, "train_features"), _label_array(p["train_labels"])
    if X.ndim != 2 or X.shape[1] != N_FEATURES or y.shape != X.shape[:1]:
        raise ValueError(f"knn train_features {X.shape} and train_labels {y.shape} "
                         f"are not (n, {N_FEATURES}) and (n,)")
    return X, y


def _nn_from_payload(params: Mapping, p: Mapping) -> NnModel:
    """The network an NN file holds, each array in the shape ``nn_train``
    gives it: ``w_hidden`` (N_FEATURES, n_hidden), ``b_hidden`` and ``w_out``
    (n_hidden,), ``b_out`` one number. ``n_hidden`` is the file's parameter,
    or else ``nn_train``'s default, the width ``w_hidden`` then has."""
    keys = ("w_hidden", "b_hidden", "w_out", "b_out")
    w_hidden, b_hidden, w_out, b_out = arrays = [finite_array(p, key) for key in keys]
    n_hidden = params.get("n_hidden", w_hidden.shape[1] if w_hidden.ndim == 2 else 0)
    shapes = ((N_FEATURES, n_hidden), (n_hidden,), (n_hidden,), ())
    for key, a, shape in zip(keys, arrays, shapes):
        if a.shape != shape:
            raise ValueError(f"nn {key} has shape {a.shape}, not {shape}")
    return NnModel(w_hidden, b_hidden, w_out, b_out.item())


# The fit callables look cart_fit, rf_fit and nn_train up as module globals
# at call time, so a wrapper installed on the module attribute sees every
# fit: for the NN, one call per grid cell and one for the final fit.
FAMILIES: dict[str, Family] = {
    "knn": Family(
        smote=True,
        grid={"k": [5, 19]},
        keys={"k": _at_least(1), "smote_k": _at_least(1)},
        required=("k",),
        fit=lambda params, sets: ((X, y) for X, y, _ in sets),
        scores=lambda state, params, X: knn_scores(state[0], state[1], X, params["k"]),
        to_payload=lambda state: {
            "train_features": state[0].tolist(),
            "train_labels": state[1].tolist(),
        },
        from_payload=lambda params, p: _knn_from_payload(p),
    ),
    "cart": Family(
        smote=False,
        grid={"criterion": ["entropy"], "max_depth": [4, 8]},
        keys=_TREE_KEYS,
        fit=lambda params, sets: (
            cart_fit(X, y, weights=class_weights(y), **params) for X, y, _ in sets
        ),
        scores=lambda tree, params, X: cart_scores(tree, X),
        to_payload=lambda tree: {"tree": tree},
        from_payload=lambda params, p: _tree_from_dict(p["tree"]),
    ),
    "rf": Family(
        smote=False,
        grid={"n_trees": [400], "max_depth": [90], "min_split": [12], "min_leaf": [5]},
        keys={**_TREE_KEYS, "n_trees": _at_least(1)},
        fit=lambda params, sets: (
            rf_fit(X, y, seed=seed, weights=class_weights(y), **params) for X, y, seed in sets
        ),
        scores=lambda forest, params, X: rf_scores(forest, X),
        to_payload=lambda forest: {"trees": forest},
        from_payload=lambda params, p: [_tree_from_dict(t) for t in p["trees"]],
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
        fit=lambda params, sets: nn_train(sets, **params),
        scores=lambda nn, params, X: nn_forward(nn, np.atleast_2d(X)),
        to_payload=lambda nn: {
            f.name: np.asarray(getattr(nn, f.name)).tolist() for f in fields(nn)
        },
        from_payload=_nn_from_payload,
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


def _family(family: str) -> Family:
    entry = FAMILIES.get(family)
    if entry is None:
        raise ValueError(f"unknown model family {family!r}; expected {MODEL_FAMILIES}")
    return entry


def check_params(family: str, grid: Mapping[str, Iterable]) -> None:
    """Raise ValueError naming the first parameter of ``grid`` (each with a list
    of values) that ``family`` does not take (a ConfigError with the nearest
    known name as a hint), or else whose value fails its ``keys`` check, or a
    ``required`` parameter that ``grid`` lacks."""
    entry = _family(family)
    reject_unknown_keys(grid, entry.keys, f"unknown {family} parameter")
    for key, values in grid.items():
        for value in values:
            if not entry.keys[key](value):
                raise ValueError(f"{family} parameter {key!r}: {value!r} is out of range")
    for key in entry.required:
        if key not in grid:
            raise ValueError(f"{family} needs parameter {key!r}")


def _training_set(
    entry: Family, params: Mapping[str, object], X: np.ndarray, y: np.ndarray, seed: int
) -> tuple[dict, tuple[np.ndarray, np.ndarray, int]]:
    """The fit parameters and the ``(X, y, seed)`` set the family fits: SMOTE-
    balanced for a SMOTE family, which consumes its ``smote_k`` parameter."""
    params = dict(params)
    if entry.smote:
        X, y = smote_balance(X, y, k=params.pop("smote_k", 5), seed=seed)
    return params, (X, y, seed)


def fit_family(
    family: str, params: Mapping[str, object], X: np.ndarray, y: np.ndarray, seed: int
) -> FittedModel:
    """Balance (per family policy) and fit one model. Deterministic per seed."""
    entry = _family(family)
    params, train = _training_set(
        entry, params, np.asarray(X, dtype=float), np.asarray(y, dtype=int), seed
    )
    (state,) = entry.fit(params, [train])
    return FittedModel(family, params, state)


def expand_grid(grid: Mapping[str, Sequence[object]]) -> list[dict]:
    """Cartesian product of a {param: values} grid, in insertion order."""
    return [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]


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

    A cell's folds are balanced one by one and then fitted in one call to
    the family's ``fit``, so the NN trains them together (``nn_train``); each
    fold's model is the one ``fit_family`` gives on that fold and sub-seed.
    """
    entry = _family(family)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if folds_idx is None:
        folds_idx = stratified_folds(y, folds, seed)
    results: list[GridCell] = []
    for c_i, cell in enumerate(cells):
        sets = []
        for f_i, val_idx in enumerate(folds_idx):
            sub_seed = int(
                np.random.SeedSequence((seed, c_i, f_i)).generate_state(1)[0]
            )
            params, train = _training_set(entry, cell, np.delete(X, val_idx, axis=0),
                                          np.delete(y, val_idx), sub_seed)
            sets.append(train)
        preds = [
            FittedModel(family, params, state).predict_labels(X[val_idx])
            for state, val_idx in zip(entry.fit(params, sets), folds_idx)
        ]
        accs = [float(np.mean(pred == y[val_idx])) for pred, val_idx in zip(preds, folds_idx)]
        results.append(GridCell(params=dict(cell), fold_accuracies=accs, fold_predictions=preds))
    best = max(range(len(results)), key=lambda i: (results[i].mean_accuracy, -i))
    return GridSearchResult(
        best_params=results[best].params,
        best_accuracy=results[best].mean_accuracy,
        cells=results,
    )
