"""Thin calls into the shipped code that more than one test module runs.

These are not oracles: each one drives a product kernel with a test-friendly
signature, so that the tests that use it check the code that ships. The
oracles they are compared against live in ``reference.py``.
"""

from itertools import chain
from unittest import mock

import numpy as np

from bsmguard import bsm
from bsmguard.bsm import (
    BSM_PERIOD_S,
    READ_BLOCK_LINES,
    BsmRecord,
    SampleBlock,
    aggregate,
    read_bsm_csv,
    record_blocks,
)
from bsmguard.detectors import SIGMA_FLOOR, DetectorDecision, _e_step, _em_from
from bsmguard.ml import _nn_kernel, _nn_pack, _nn_split, nn_train
from bsmguard.pipeline import (
    detector_report,
    model_dataset,
    read_decisions_csv,
    run_detection,
    scored_decisions,
)

from reference import AggregatedSample


def at_every_block_size(read, sizes=(1, 2, 3, 512)):
    """``read()`` at each patched READ_BLOCK_LINES in ``sizes``."""
    outcomes = []
    for size in sizes:
        with mock.patch.object(bsm, "READ_BLOCK_LINES", size):
            outcomes.append(read())
    return outcomes


def read_records(path):
    """The records ``read_bsm_csv`` reads from ``path``, one BsmRecord each,
    as its blocks arrive; its error, if any, comes after them."""
    for block in read_bsm_csv(path):
        yield from map(BsmRecord._make, zip(*block))


def aggregate_records(records, window=BSM_PERIOD_S):
    """The samples ``aggregate`` makes of ``records`` (in READ_BLOCK_LINES
    blocks), one AggregatedSample each, as its blocks arrive."""
    for block in aggregate(record_blocks(records), window):
        yield from map(AggregatedSample._make, zip(*block))


def sample_block(samples):
    """``samples``, rows of (t, avg_speed, avg_accel, label), as one SampleBlock."""
    if not samples:
        return SampleBlock([], [], [], [])
    return SampleBlock(*map(list, zip(*samples)))


def sample_rows(block):
    """The samples of a SampleBlock, one AggregatedSample row each."""
    return list(map(AggregatedSample._make, zip(*block)))


def sample_blocks(samples):
    """``samples`` as SampleBlocks of up to READ_BLOCK_LINES samples."""
    samples = list(samples)
    for i in range(0, len(samples), READ_BLOCK_LINES):
        yield sample_block(samples[i:i + READ_BLOCK_LINES])


def decision_columns(decisions):
    """The ``(attack, score, warmed_up)`` columns of DetectorDecisions, as
    ``read_decisions_csv`` returns a file's."""
    if not decisions:
        return [], [], []
    return tuple(map(list, zip(*decisions)))


def read_decision_pairs(path, samples):
    """``(sample, decision)`` for each row ``read_decisions_csv`` joins to
    ``samples``, a list of rows: one DetectorDecision each."""
    attack, score, warmed_up = read_decisions_csv(path, sample_block(samples))
    return list(zip(samples, map(DetectorDecision, attack, score, warmed_up)))


def pairs_report(name, pairs, windows=(), exclude_warmup=False):
    """``detector_report`` on ``(sample, decision)`` pairs, selected as ``report`` selects."""
    samples, decisions = zip(*pairs)
    block, columns = sample_block(samples), decision_columns(decisions)
    scored = scored_decisions(name, block.label, columns, exclude_warmup)
    return detector_report(name, block.t, columns[0], scored, windows, exclude_warmup)


def model_dataset_of_rows(samples, seed, test_fraction, std=None):
    """``model_dataset`` of ``samples``, a list of rows."""
    return model_dataset(sample_block(samples), seed, test_fraction, std)


def detect_pairs(samples, name, settings):
    """``(sample, decision)`` for each of ``samples``, as ``run_detection``
    decides them from their blocks."""
    samples = list(samples)
    blocks = run_detection(sample_blocks(samples), name, settings)
    return list(zip(samples, chain.from_iterable(decisions for _, decisions in blocks),
                    strict=True))


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
