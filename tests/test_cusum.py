"""Adaptive CUSUM: zero-stream exactness, oracle agreement, step bounds,
scale equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.detectors import CusumConfig, CusumDetector

import reference


def run_detector(ys, config=None):
    det = CusumDetector(config or CusumConfig())
    return [det.observe(float(y)) for y in ys]


def test_published_default_parameters():
    cfg = CusumConfig()
    assert cfg.delta == 1.0
    assert cfg.alpha == 0.025
    assert cfg.h_sigma == 5.0


def test_constant_stream_stays_at_zero_forever():
    det = CusumDetector(CusumConfig(warmup=3))
    for _ in range(500):
        d = det.observe(4.2)
        assert not d.attack
    assert det.c_pos == 0.0
    assert det.c_neg == 0.0
    # sigma floored, mu equals the constant, drift identically zero
    assert det.mu == 4.2
    assert det.ewma == 4.2


def test_slack_is_half_delta_sigma():
    det = CusumDetector(CusumConfig(warmup=3))
    for y in (1.0, 2.0, 3.0):
        det.observe(y)
    assert det.k == pytest.approx(det.config.delta * det.sigma / 2.0)


def test_matches_naive_oracle_on_noise_and_steps():
    rng = np.random.default_rng(17)
    for trial in range(30):
        ys = list(rng.normal(0, 1, 200))
        if trial % 2:
            shift = float(rng.uniform(2, 12))
            ys += list(shift + rng.normal(0, 1, 100))
        got = [d.attack for d in run_detector(ys)]
        want = reference.naive_cusum([float(y) for y in ys])
        assert got == want


def test_step_change_alarm_bound_from_simulation_oracle():
    # Pre-built bound: the naive oracle over 1000 seeded streams with a
    # sustained +10 sigma step alarms within 6 samples of the step (max
    # observed; mean 2.7). The product must stay within that bound.
    bound = 6
    oracle_max = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        ys = [float(v) for v in rng.normal(0, 1, 100)]
        ys += [float(10 + v) for v in rng.normal(0, 1, 40)]
        flags = reference.naive_cusum(ys)
        first = next((i - 100 for i in range(100, len(ys)) if flags[i]), None)
        assert first is not None
        oracle_max = max(oracle_max, first)
    assert oracle_max <= bound

    for seed in range(200):
        rng = np.random.default_rng(seed)
        ys = [float(v) for v in rng.normal(0, 1, 100)]
        ys += [float(10 + v) for v in rng.normal(0, 1, 40)]
        decisions = run_detector(ys)
        first = next(
            (i - 100 for i in range(100, len(ys)) if decisions[i].attack), None
        )
        assert first is not None and first <= bound


def test_sustained_shift_flags_every_sample_after_onset():
    rng = np.random.default_rng(40)
    ys = [float(v) for v in rng.normal(0, 1, 100)]
    ys += [float(30 + v) for v in rng.normal(0, 1, 50)]
    decisions = run_detector(ys)
    flags = [d.attack for d in decisions[102:150]]
    assert all(flags)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=60, max_size=120),
    st.floats(0.01, 1000.0),
)
def test_scale_equivariance_of_decisions(ys, c):
    base = [d.attack for d in run_detector(ys)]
    scaled = [d.attack for d in run_detector([c * y for y in ys])]
    assert base == scaled


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=55, max_size=150))
def test_statistics_non_negative_and_reset_after_alarm(ys):
    det = CusumDetector(CusumConfig())
    for y in ys:
        d = det.observe(float(y))
        assert det.c_pos >= 0.0
        assert det.c_neg >= 0.0
        if d.attack:
            assert det.c_pos == 0.0 and det.c_neg == 0.0


def test_warmup_decisions_flagged():
    det = CusumDetector(CusumConfig(warmup=5))
    for i in range(5):
        d = det.observe(float(i))
        assert not d.warmed_up and not d.attack and d.score == 0.0
    assert det.observe(2.0).warmed_up


def test_score_is_max_statistic_before_reset():
    rng = np.random.default_rng(2)
    ys = [float(v) for v in rng.normal(0, 1, 60)] + [50.0] * 10
    det = CusumDetector(CusumConfig())
    alarm_scores = [d.score for y in ys if (d := det.observe(y)).attack]
    assert alarm_scores
    assert all(s > det.config.h_sigma for s in alarm_scores)


def test_non_finite_rejected():
    det = CusumDetector(CusumConfig())
    with pytest.raises(ValueError):
        det.observe(float("inf"))


def test_deterministic_bit_for_bit():
    rng = np.random.default_rng(31)
    ys = [float(v) for v in rng.normal(3, 2, 200)]
    assert run_detector(ys) == run_detector(ys)


def test_overflowing_warmup_leaves_the_buffer_unchanged():
    # The value that completes the warm-up overflows its variance: the
    # observe raises and the value is not buffered, so the next ordinary
    # value completes the warm-up as it would have in its place.
    rng = np.random.default_rng(5)
    ys = [float(v) for v in rng.normal(0, 1, 49)] + [6.0] * 60
    det, fresh = CusumDetector(CusumConfig()), CusumDetector(CusumConfig())
    for y in ys[:49]:
        det.observe(y)
        fresh.observe(y)
    with pytest.raises(OverflowError):
        det.observe(1e200)
    assert len(det._buffer) == 49 and not det.ready
    decisions = [det.observe(y) for y in ys[49:]]
    assert decisions == [fresh.observe(y) for y in ys[49:]]
    assert any(d.attack for d in decisions)
    state = ("mu", "sigma", "k", "ewma", "c_pos", "c_neg", "ready", "_buffer")
    assert [getattr(det, a) for a in state] == [getattr(fresh, a) for a in state]
