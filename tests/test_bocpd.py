"""Bayesian online detector: conjugate-update oracle, calibration, jumps."""

import math

import numpy as np
import pytest

from bsmguard.detectors import BocpdConfig, BocpdDetector, student_t_logpdf

import reference


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_table_defaults():
    cfg = BocpdConfig()
    assert cfg.mu0 == 0.0
    assert cfg.kappa == 0.1
    assert cfg.alpha == 1e-5
    assert cfg.beta == 1e-5
    assert cfg.threshold == 0.0002


def test_trajectory_matches_batch_nig_oracle():
    rng = np.random.default_rng(123)
    ys = [float(v) for v in rng.normal(0.3, 1.2, 1000)]
    # threshold 0 keeps every step on the update branch
    det = BocpdDetector(BocpdConfig(threshold=0.0))
    for i, y in enumerate(ys, start=1):
        det.observe(y)
        mu, kappa, alpha, beta = reference.nig_posterior(ys[:i])
        assert close(det.mu, mu)
        assert close(det.kappa, kappa)
        assert close(det.alpha, alpha)
        assert close(det.beta, beta)


def test_calibration_on_clean_noise():
    # Monte-Carlo derived fixture: over seeds 0..99, 94 runs of 500
    # post-warm-up N(0,1) samples flag nothing (the long-run rate is 94.3%
    # measured over 1000 seeds). Guarded at 92 to absorb platform-level
    # float differences without masking a real calibration break.
    clean = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        det = BocpdDetector(BocpdConfig())
        flags = sum(det.observe(float(y)).attack for y in rng.normal(0.0, 1.0, 510))
        clean += flags == 0
    assert clean >= 92


def test_level_jump_flagged_within_three_samples():
    rng = np.random.default_rng(5)
    calm = [float(v) for v in rng.normal(0.0, 0.01, 100)]
    det = BocpdDetector(BocpdConfig())
    for y in calm:
        assert not det.observe(y).attack

    # Brute-force check: the accumulated posterior (closed form) gives the
    # jump value a predictive density below the alarm threshold.
    mu, kappa, alpha, beta = reference.nig_posterior(calm)
    scale = math.sqrt(beta * (kappa + 1) / (alpha * kappa))
    p_jump = math.exp(student_t_logpdf(5.0, df=2 * alpha, mean=mu, scale=scale))
    assert p_jump < 0.0002

    flagged_at = None
    for i in range(3):
        if det.observe(5.0 + float(rng.normal(0.0, 0.01))).attack:
            flagged_at = i
            break
    assert flagged_at is not None and flagged_at == 0


def test_attack_branch_freezes_hyperparameters_and_reanchors():
    det = BocpdDetector(BocpdConfig())
    rng = np.random.default_rng(11)
    for y in rng.normal(0.0, 0.05, 50):
        det.observe(float(y))
    frozen = (det.mu, det.kappa, det.alpha, det.beta)
    d = det.observe(25.0)
    assert d.attack
    assert (det.mu, det.kappa, det.alpha, det.beta) == frozen


def test_warmup_decisions_marked_and_suppressed():
    det = BocpdDetector(BocpdConfig(warmup=5))
    for i in range(5):
        d = det.observe(float(i * 1000.0))  # wild values would alarm if armed
        assert not d.attack
        assert not d.warmed_up
    assert det.observe(0.0).warmed_up


def test_score_is_predictive_density():
    det = BocpdDetector(BocpdConfig(threshold=0.0))
    det.observe(1.0)
    p = math.exp(det.predictive_logpdf(1.5))
    assert det.observe(1.5).score == pytest.approx(p)


def test_non_finite_observation_rejected_state_unchanged():
    det = BocpdDetector(BocpdConfig())
    det.observe(1.0)
    before = (det.mu, det.kappa, det.alpha, det.beta, det.observed)
    with pytest.raises(ValueError):
        det.observe(float("nan"))
    with pytest.raises(ValueError):
        det.observe(float("inf"))
    assert (det.mu, det.kappa, det.alpha, det.beta, det.observed) == before


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(3)
    ys = [float(v) for v in rng.normal(0, 1, 300)]
    runs = []
    for _ in range(2):
        det = BocpdDetector(BocpdConfig())
        runs.append([det.observe(y) for y in ys])
    assert runs[0] == runs[1]


def test_agrees_with_run_length_matrix_oracle_on_change_location():
    rng = np.random.default_rng(21)
    ys = [float(v) for v in rng.normal(0.0, 0.1, 100)]
    ys += [float(v) for v in rng.normal(5.0, 0.1, 30)]

    oracle = reference.RunLengthMatrixBocpd()
    oracle_collapse = None
    for i, y in enumerate(ys):
        map_r = oracle.step(y)
        if i > 50 and map_r <= 2 and oracle_collapse is None:
            oracle_collapse = i

    det = BocpdDetector(BocpdConfig())
    product_flag = None
    for i, y in enumerate(ys):
        if det.observe(y).attack and product_flag is None:
            product_flag = i

    assert oracle_collapse is not None and product_flag is not None
    assert abs(oracle_collapse - 100) <= 3
    assert abs(product_flag - 100) <= 3
    assert abs(oracle_collapse - product_flag) <= 3
