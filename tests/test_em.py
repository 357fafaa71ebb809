"""Mixture-responsibility detector: M-step algebra, monotone likelihood,
responsibility thresholds, and seeded determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard import detectors
from bsmguard.bsm import aggregate
from bsmguard.detectors import (
    EM_ATTACK_MEAN,
    EM_ATTACK_STDEV,
    EM_INIT_WEIGHT,
    EM_WARMUP,
    EmConfig,
    EmDetector,
    SIGMA_FLOOR,
    _e_step,
    gmm_m_step,
)
from bsmguard.simulate import AttackSpec, DrivingProfile, Scenario, default_scenario

import reference
from product_calls import fit_two_component_gmm


def attack_responsibility(y, mu1, s1, mu2, s2, pi2):
    """Posterior probability that y came from the attack component (index 2)."""
    return _e_step([y], mu1, s1, mu2, s2, pi2)[0][0]


def test_m_step_hard_assignment_reduces_to_subgroup_means():
    points = [1.0, 3.0, 10.0, 14.0]
    resp = [0.0, 0.0, 1.0, 1.0]
    mu1, s1, mu2, s2, pi2 = gmm_m_step(points, resp)
    assert mu1 == pytest.approx(2.0)
    assert mu2 == pytest.approx(12.0)
    assert pi2 == pytest.approx(0.5)


def test_m_step_floors_degenerate_sigma():
    mu1, s1, mu2, s2, _ = gmm_m_step([5.0, 5.0, 9.0, 9.0], [0.0, 0.0, 1.0, 1.0])
    assert s1 == SIGMA_FLOOR
    assert s2 == SIGMA_FLOOR


def test_responsibility_at_attack_mean_with_far_components():
    # y exactly at the attack component's mean, equal sigmas, means far apart:
    # the attack component dominates regardless of the mixing weight.
    score = attack_responsibility(10.0, mu1=0.0, s1=1.0, mu2=10.0, s2=1.0, pi2=0.3)
    assert score > 0.5


def test_responsibility_extremes():
    assert attack_responsibility(0.0, 0.0, 1.0, 50.0, 1.0, 0.0) == 0.0
    assert attack_responsibility(0.0, 0.0, 1.0, 50.0, 1.0, 1.0) == 1.0


def test_em_loglik_never_decreases_on_random_sets():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        points = list(rng.normal(0, 1, 8)) + list(rng.normal(4, 2, 3))
        _, ll = fit_two_component_gmm(
            points, mu1=0.0, s1=1.0, mu2=3.0, s2=1.5, pi2=0.4
        )
        for a, b in zip(ll, ll[1:]):
            worst = min(worst, b - a)
    assert worst >= -1e-10


def test_em_recovers_separated_components():
    rng = np.random.default_rng(1)
    points = list(rng.normal(0.0, 0.5, 7)) + list(rng.normal(20.0, 0.5, 4))
    (mu1, s1, mu2, s2, pi2), _ = fit_two_component_gmm(
        points, mu1=0.0, s1=0.5, mu2=18.0, s2=1.0, pi2=0.4
    )
    assert mu1 == pytest.approx(np.mean(points[:7]), abs=1e-6)
    assert mu2 == pytest.approx(np.mean(points[7:]), abs=1e-6)
    assert pi2 == pytest.approx(4 / 11, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=12), st.integers(0, 10_000))
def test_em_loglik_monotone_property(values, seed):
    rng = np.random.default_rng(seed)
    points = [v + float(rng.normal(0, 0.01)) for v in values]
    _, ll = fit_two_component_gmm(points, mu1=-1.0, s1=1.0, mu2=1.0, s2=1.0, pi2=0.5)
    for a, b in zip(ll, ll[1:]):
        assert b - a >= -1e-10


class TestDetector:
    def test_warmup_buffers_ten_then_builds_anchors(self):
        det = EmDetector(EmConfig(seed=4))
        rng = np.random.default_rng(0)
        for i in range(10):
            d = det.observe(float(15.6 + rng.normal(0, 0.25)))
            assert not d.warmed_up
            assert not d.attack
            assert d.score == 0.0
        assert det.anchors is not None
        assert len(det.anchors) == 10
        # Three anchors come from the fixed attack component near 0.5; they
        # are far below the cruise-speed cluster.
        low = sorted(det.anchors)[:3]
        assert all(v < 10.0 for v in low)

    def test_clean_speed_scores_below_threshold(self):
        det = EmDetector(EmConfig(seed=4))
        rng = np.random.default_rng(0)
        for _ in range(10):
            det.observe(float(15.6 + rng.normal(0, 0.25)))
        d = det.observe(det.seed_mean)  # y equal to the warm-up mean
        assert d.warmed_up
        assert d.score < 0.01
        assert not d.attack
        # Independent check of the reported responsibility at converged theta.
        mu1, s1, mu2, s2, pi2 = det.theta
        a = pi2 * math.exp(-0.5 * ((det.seed_mean - mu2) / s2) ** 2) / s2
        b = (1 - pi2) * math.exp(-0.5 * ((det.seed_mean - mu1) / s1) ** 2) / s1
        assert d.score == pytest.approx(a / (a + b), abs=1e-12)

    def test_false_stop_speed_flagged(self):
        det = EmDetector(EmConfig(seed=4))
        rng = np.random.default_rng(0)
        for _ in range(10):
            det.observe(float(15.6 + rng.normal(0, 0.25)))
        d = det.observe(0.0)
        assert d.attack
        assert d.score > 0.5

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(8)
        ys = [float(v) for v in 15.6 + rng.normal(0, 0.25, 60)]
        ys[40] = 0.0
        runs = []
        for _ in range(2):
            det = EmDetector(EmConfig(seed=123))
            runs.append([det.observe(y) for y in ys])
        assert runs[0] == runs[1]

    def test_seed_changes_anchors(self):
        streams = []
        for seed in (1, 2):
            det = EmDetector(EmConfig(seed=seed))
            for y in np.linspace(15.0, 16.0, 10):
                det.observe(float(y))
            streams.append(tuple(det.anchors))
        assert streams[0] != streams[1]

    def test_constant_warmup_survives_via_floor(self):
        det = EmDetector(EmConfig(seed=0))
        for _ in range(10):
            det.observe(5.0)
        d = det.observe(5.0)
        assert math.isfinite(d.score)

    def test_monotone_loglik_recorded_per_observation(self):
        det = EmDetector(EmConfig(seed=4))
        rng = np.random.default_rng(2)
        for y in 15.6 + rng.normal(0, 0.25, 30):
            det.observe(float(y))
            for a, b in zip(det.last_ll_history, det.last_ll_history[1:]):
                assert b - a >= -1e-10

    def test_non_finite_rejected(self):
        det = EmDetector(EmConfig())
        with pytest.raises(ValueError):
            det.observe(float("nan"))


# ---------------------------------------------------------------------------
# Bit identity with the straightforward EM loop (reference.em_fit)
# ---------------------------------------------------------------------------


def assert_fit_matches_oracle(points, theta0):
    got = fit_two_component_gmm(points, *theta0)
    want = reference.em_fit(points, *theta0)
    assert repr(got) == repr(want), (points, theta0)
    for y in points:
        assert repr(attack_responsibility(y, *got[0])) == repr(
            reference.responsibility(y, *want[0])
        )


def test_fit_bit_identical_to_oracle_on_random_sets():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 14))
        points = [float(v) for v in rng.normal(rng.normal(0, 5), rng.uniform(1e-3, 3), n)]
        theta0 = (float(rng.normal(0, 3)), float(rng.uniform(1e-3, 3)),
                  float(rng.normal(0, 3)), float(rng.uniform(1e-3, 3)),
                  float(rng.uniform(0.01, 0.99)))
        assert_fit_matches_oracle(points, theta0)


@pytest.mark.parametrize("pi2", [0.0, 1.0])
def test_fit_bit_identical_to_oracle_at_pure_mixing_weights(pi2):
    points = [15.2, 15.6, 15.9, 0.0, 0.4]
    assert_fit_matches_oracle(points, (15.6, 0.25, 0.5, 1.0, pi2))


@pytest.mark.parametrize("value", [1e6, -5.0, 1e-300, 0.0])
def test_fit_bit_identical_to_oracle_on_saturating_values(value):
    points = [15.2, 15.6, 15.9, 15.4, 0.2, 0.9, value]
    assert_fit_matches_oracle(points, (15.5, 0.25, EM_ATTACK_MEAN, EM_ATTACK_STDEV,
                                       EM_INIT_WEIGHT))


def assert_detector_matches_oracle(ys, seed):
    det = EmDetector(EmConfig(seed=seed))
    for y, fit in zip(ys, reference.em_fits(ys, seed)):
        d = det.observe(y)
        assert d.warmed_up == (fit is not None)
        if fit is None:
            continue
        theta, ll, score = fit
        assert repr((det.theta, det.last_ll_history, d.score)) == repr((theta, ll, score))
        assert d.attack == (score > det.config.threshold)


def test_detector_bit_identical_to_oracle_on_constant_warmup():
    assert_detector_matches_oracle([5.0] * 10 + [5.0, 5.0 + 1e-9, 0.0, 1e6, -5.0, 1e-300], 0)


def test_detector_bit_identical_to_oracle_on_saturating_values():
    assert_detector_matches_oracle([15.6, 15.7] * 5 + [1e6, -5.0, 1e-300, 0.0, 15.6], 3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detector_bit_identical_to_oracle_on_false_stop_stream(seed):
    scenario = Scenario(
        profile=DrivingProfile(duration_s=300.0, base_speed=15.6, noise_stdev=0.25),
        attack=AttackSpec(windows=((150.0, 155.0),), mode="constant_replace", magnitude=0.0),
        seed=seed,
    )
    ys = [s.avg_speed for s in aggregate(scenario.run())]
    assert len(ys) == 3000
    assert_detector_matches_oracle(ys, seed)


# ---------------------------------------------------------------------------
# One exp per point, and the stop at the exact fixed point
# ---------------------------------------------------------------------------


def assert_e_step_matches_oracle(points, theta):
    resp, total = _e_step(points, *theta)
    want = [reference.responsibility(x, *theta) for x in points]
    assert repr((resp, total)) == repr((want, reference.loglik(points, *theta))), (points, theta)


@pytest.mark.parametrize("pi2", [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.3])
def test_e_step_matches_two_exp_oracle_at_extreme_mixing_weights(pi2):
    points = [15.6, 0.5, 0.0, -3.0, 1e6, 7.9]
    assert_e_step_matches_oracle(points, (15.6, 0.25, EM_ATTACK_MEAN, EM_ATTACK_STDEV, pi2))


def test_e_step_matches_oracle_on_ties():
    # Mirror-image components at equal weight: la == lb at 0.0 and at every
    # point whose distances to both means are equal.
    theta = (-2.0, 1.5, 2.0, 1.5, 0.5)
    resp, _ = _e_step([0.0], *theta)
    assert resp == [0.5]
    assert_e_step_matches_oracle([0.0, -0.0, 0.0, 1.0, -1.0], theta)


def test_e_step_point_both_components_rule_out():
    # The squared z-scores overflow, so la == lb == -inf: responsibility 0.0
    # and a nan total, as in the two-exp form.
    theta = (0.0, 1.0, 1.0, 1.0, 0.4)
    resp, total = _e_step([1e300], *theta)
    assert resp == [0.0]
    assert math.isnan(total)
    assert_e_step_matches_oracle([1e300, 0.5, -1e300], theta)
    # With pi2 = 0 the attack side is -inf everywhere; a far point rules out
    # the clean side too.
    assert_e_step_matches_oracle([1e200, 3.0], (0.0, SIGMA_FLOOR, 0.5, 1.0, 0.0))


@pytest.mark.parametrize("x", [1e12, -1e12])
def test_e_step_matches_oracle_at_floor_stdevs_and_far_points(x):
    for theta in ((0.0, SIGMA_FLOOR, 0.5, SIGMA_FLOOR, 0.8),
                  (x, SIGMA_FLOOR, 0.0, SIGMA_FLOOR, 0.2),
                  (0.0, SIGMA_FLOOR, x, 1.0, 5e-324)):
        assert_e_step_matches_oracle([x, 0.0, 0.5, x / 2], theta)


def test_e_step_matches_oracle_on_random_parameters():
    rng = np.random.default_rng(15)
    for _ in range(2000):
        scale = 10.0 ** float(rng.uniform(-2, 12))
        points = [float(v) for v in rng.normal(0, scale, 4)]
        stdevs = [SIGMA_FLOOR if rng.random() < 0.2 else 10.0 ** float(rng.uniform(-8, 6))
                  for _ in range(2)]
        pi2 = float(rng.choice([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, rng.uniform(0, 1)]))
        theta = (float(rng.normal(0, scale)), stdevs[0], float(rng.normal(0, scale)),
                 stdevs[1], pi2)
        assert_e_step_matches_oracle(points, theta)


def test_detector_bit_identical_to_oracle_on_the_default_scenario():
    ys = [s.avg_speed for s in aggregate(default_scenario(0).run())]
    assert len(ys) == 2000
    assert_detector_matches_oracle(ys, 0)


@pytest.mark.parametrize("magnitude", [1.0, -1.0])
def test_detector_bit_identical_to_oracle_on_an_offset_stream(magnitude):
    scenario = Scenario(
        profile=DrivingProfile(duration_s=60.0, base_speed=15.6, noise_stdev=0.25),
        attack=AttackSpec(windows=((20.0, 40.0),), mode="offset", magnitude=magnitude),
        seed=5,
    )
    assert_detector_matches_oracle([s.avg_speed for s in aggregate(scenario.run())], 5)


def test_detector_bit_identical_to_oracle_on_signed_zero_speeds():
    ys = [15.6, 15.7] * 5 + [-0.0, 0.0, 15.6, -0.0, 15.65, -0.0]
    assert_detector_matches_oracle(ys, 2)
    assert_detector_matches_oracle([-0.0] * 10 + [-0.0, 0.0, 1.0, -0.0], 1)


def test_warm_observe_stops_at_the_fixed_point_after_one_full_e_step(monkeypatch):
    # Per warmed observe: the new point's part of the first E-step, one full
    # E-step after the first M-step, and a second M-step that returns the
    # first one's theta, so no second E-step.
    calls = []
    e_step = detectors._e_step

    def counting_e_step(points, *theta):
        calls.append(len(points))
        return e_step(points, *theta)

    monkeypatch.setattr(detectors, "_e_step", counting_e_step)
    det = EmDetector(EmConfig(seed=0))
    for sample in aggregate(default_scenario(0).run()):
        calls.clear()
        d = det.observe(sample.avg_speed)
        if d.warmed_up:
            assert calls == [1, 11], sample.t
            assert len(det.last_ll_history) == 2
            assert det.last_ll_history[0] == det.last_ll_history[1]


def test_fit_started_at_its_fixed_point_runs_one_full_iteration():
    det = EmDetector(EmConfig(seed=4))
    rng = np.random.default_rng(0)
    for _ in range(10):
        det.observe(float(15.6 + rng.normal(0, 0.25)))
    det.observe(15.9)
    points, theta = det.anchors + [15.9], det.theta
    # The first M-step returns the start theta itself; with no E-step run
    # yet in the loop, the fit must not stop before its first history entry.
    resp, ll = _e_step(points, *theta)
    assert gmm_m_step(points, resp) == theta
    got = fit_two_component_gmm(points, *theta)
    assert got == (theta, [ll])
    assert repr(got) == repr(reference.em_fit(points, *theta))


def test_fixed_point_stop_returns_the_new_theta_with_its_zero_sign():
    # The broad attack component owns the six points symmetric about 0; the
    # clean one, at the floor stdev, owns the zeros and two tiny points of
    # opposite sign, with an attack responsibility near 1e-8. The attack mean
    # is then a signed zero whose sign depends on how those two tiny
    # products round. The start is off the fixed point only in that mean.
    # Its first M-step lands there with mu2 == -0.0; the second returns a
    # theta == the first, but with mu2 == 0.0, and the fit returns that one
    # as the full loop does.
    points = [1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.0, 0.0, 0.0,
              1.2267798121760505e-300, -1.2267798121760507e-300]
    theta0 = (-3.315618e-317, SIGMA_FLOOR, 0.0004333343008371484, 2.160246894469287,
              0.5454545479795093)
    first = gmm_m_step(points, _e_step(points, *theta0)[0])
    theta, ll = fit_two_component_gmm(points, *theta0)
    assert theta == first and (repr(first[2]), repr(theta[2])) == ("-0.0", "0.0")
    assert len(ll) == 2 and ll[0] == ll[1]
    assert repr((theta, ll)) == repr(reference.em_fit(points, *theta0))


def test_fit_bit_identical_to_oracle_when_more_than_two_iterations_run():
    rng = np.random.default_rng(77)
    long_fits = fixed_point_stops = 0
    for _ in range(80):
        points = list(rng.normal(0, 1, 8)) + list(rng.normal(2.5, 1.5, 4))
        theta0 = (float(rng.normal(0, 1)), float(rng.uniform(0.3, 2)),
                  float(rng.normal(2, 1)), float(rng.uniform(0.3, 2)),
                  float(rng.uniform(0.2, 0.8)))
        theta, ll = fit_two_component_gmm(points, *theta0)
        assert repr((theta, ll)) == repr(reference.em_fit(points, *theta0))
        if len(ll) > 2:
            long_fits += 1
            fixed_point_stops += ll[-1] == ll[-2]
    # Overlapping components: every fit runs many iterations, and about a
    # third of them end at an exact fixed point rather than on EM_TOL.
    assert long_fits == 80
    assert fixed_point_stops >= 10


# ---------------------------------------------------------------------------
# The first M-step from the anchors' term lists, and the clean half reused when unchanged
# ---------------------------------------------------------------------------


def m_step_outcome(step):
    """``step()``'s (theta, clean half) by ``repr``, or the error it raises."""
    try:
        return repr(step())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_first_m_step_matches_m_step_and_overflows_where_it_does():
    # The first M-step appends y's terms to the anchors' term lists and sums
    # them with fsum: the same terms in the same order as _m_step's, so the
    # same doubles, and an OverflowError (from a square or inside fsum) on
    # exactly the inputs where _m_step raises one. One detector sees every y
    # in turn, so the variance terms are both rebuilt and reused.
    rng = np.random.default_rng(32)
    warmups = [[15.6 + 0.25 * float(v) for v in rng.normal(size=EM_WARMUP)],
               [5.0] * EM_WARMUP, [-0.0] * EM_WARMUP, [0.0, -0.0] * (EM_WARMUP // 2),
               [1.3e154 * (1.0 + 1e-3 * float(v)) for v in rng.normal(size=EM_WARMUP)],
               [float(v) for v in rng.normal(0.0, 1e150, EM_WARMUP)]]
    warmups += [[float(v) for v in np.random.default_rng(seed).normal(0.0, 5e153, EM_WARMUP)]
                for seed in (0, 1, 7)]
    kinds = set()
    for seed, warmup in enumerate(warmups):
        det = EmDetector(EmConfig(seed=seed))
        for v in warmup:
            det.observe(v)
        scale = max(abs(v) for v in warmup) or 1.0
        ys = [0.0, -0.0, det.seed_mean, *det.anchors, 0.0, *det.anchors[::-1],
              1.35e154, -1.35e154, 1e155, 1e200, -1e200, 1.7e308, -1.7e308]
        ys += [float(v) for v in rng.normal(0.0, scale, 30)]
        for y in ys:
            points = det.anchors + [y]
            resp = det._anchor_resp + _e_step([y], *det._theta0)[0]
            got = m_step_outcome(lambda: det._first_m_step(points, resp, None))
            want = m_step_outcome(lambda: detectors._m_step(points, resp))
            assert got == want, (warmup, y)
            if isinstance(want, str):
                kinds.add("theta")
            else:
                kinds.add("in fsum" if "fsum" in want[1] else want[0])
    # Both kinds of overflow occur: a square's, and an fsum's partial sum's.
    assert kinds == {"theta", "OverflowError", "in fsum"}


def count_em_work(monkeypatch):
    """Record the point count of each M-step half computed in full (callers
    clear the list per observe), and return it with ``observe(det, y)``,
    which also tells whether that observe rebuilt the anchors' variance
    terms: ``det._var_share`` is then a new object."""
    halves = []
    m_half = detectors._m_half

    def counting_m_half(points, weights, total):
        halves.append(len(points))
        return m_half(points, weights, total)

    def observe(det, y):
        share = getattr(det, "_var_share", None)
        d = det.observe(y)
        return d, getattr(det, "_var_share", None) is not share

    monkeypatch.setattr(detectors, "_m_half", counting_m_half)
    return halves, observe


ATTACK_CASES = [("offset", 1.0), ("offset", -1.0), ("offset", 5.0), ("offset", -5.0),
                ("noise_burst", 3.0), ("constant_replace", 0.0), ("constant_replace", 25.0)]


def test_detector_bit_identical_to_oracle_under_every_attack_mode(monkeypatch):
    halves, observe = count_em_work(monkeypatch)
    half_counts, rebuilds = set(), 0
    for mode, magnitude in ATTACK_CASES:
        scenario = Scenario(
            profile=DrivingProfile(duration_s=60.0, base_speed=15.6, noise_stdev=0.25),
            attack=AttackSpec(windows=((20.0, 40.0),), mode=mode, magnitude=magnitude),
            seed=6,
        )
        ys = [s.avg_speed for s in aggregate(scenario.run())]
        det = EmDetector(EmConfig(seed=6))
        for y, fit in zip(ys, reference.em_fits(ys, 6)):
            halves.clear()
            d, rebuilt = observe(det, y)
            if fit is None:
                continue
            assert repr((det.theta, det.last_ll_history, d.score)) == repr(fit), (mode, y)
            half_counts.add((len(halves), len(det.last_ll_history)))
            rebuilds += rebuilt
    # (halves computed, M-steps) per fit: fits of two M-steps that compute
    # two halves, longer fits that reuse the clean half and that reuse none,
    # and the anchors' variance terms rebuilt as mu2 moves, not only built once.
    assert (2, 2) in half_counts
    assert any(n < 2 * m - 1 for n, m in half_counts if m > 2)
    assert any(n == 2 * m - 1 for n, m in half_counts if m > 2)
    assert rebuilds > len(ATTACK_CASES)


def test_warm_observe_computes_two_halves_and_rarely_rebuilds_the_variance_share(monkeypatch):
    # The first M-step adds y's terms to the anchors' attack sums and computes
    # only the clean half in full; the second finds the clean weights
    # unchanged and computes only the attack half. The anchors' variance
    # terms are built at the first warmed observe and rebuilt only where
    # mu2 moves: into and out of the false-stop window.
    halves, observe = count_em_work(monkeypatch)
    det = EmDetector(EmConfig(seed=0))
    rebuilds = []
    for sample in aggregate(default_scenario(0).run()):
        halves.clear()
        d, rebuilt = observe(det, sample.avg_speed)
        if d.warmed_up:
            assert halves == [11, 11], sample.t
            rebuilds += [sample.t] * rebuilt
    assert rebuilds == [1.1, 100.0, 105.0]


def test_warmed_observe_that_overflows_leaves_the_fit_unchanged():
    ys = [s.avg_speed for s in aggregate(default_scenario(0).run())][:200]
    with pytest.raises(OverflowError):
        reference.em_fits(ys[:50] + [1e200])
    det = EmDetector(EmConfig(seed=0))
    for y in ys[:50]:
        det.observe(y)
    with pytest.raises(OverflowError):
        det.observe(1e200)
    for y, fit in list(zip(ys, reference.em_fits(ys, 0)))[50:]:
        d = det.observe(y)
        assert repr((det.theta, det.last_ll_history, d.score)) == repr(fit)


def test_overflowing_warmup_leaves_the_buffer_unchanged():
    ys = [s.avg_speed for s in aggregate(default_scenario(0).run())][:40]
    det, fresh = EmDetector(EmConfig(seed=0)), EmDetector(EmConfig(seed=0))
    for y in ys[:9]:
        det.observe(y)
    with pytest.raises(OverflowError):
        det.observe(1e200)
    assert len(det._buffer) == 9 and det.anchors is None
    for y in ys[:9]:
        fresh.observe(y)
    for y in ys[9:]:
        assert det.observe(y) == fresh.observe(y)
    assert det.anchors == fresh.anchors
    assert repr((det.theta, det.last_ll_history)) == repr((fresh.theta, fresh.last_ll_history))


def test_poisoned_warmup_raises_once_and_starts_again():
    # A buffered 1e200 makes the warm-up's variance overflow whatever value
    # completes it. That observe raises and drops the buffer, so the next
    # EM_WARMUP values warm the detector up as they would a fresh one.
    ys = [15.0 + 0.1 * (i % 7) for i in range(110)]
    ys[2] = 1e200
    det, fresh = EmDetector(EmConfig(seed=0)), EmDetector(EmConfig(seed=0))
    decisions, raised = [], []
    for i, y in enumerate(ys):
        try:
            decisions.append(det.observe(y))
        except OverflowError:
            raised.append(i)
    assert raised == [EM_WARMUP - 1]
    assert decisions[EM_WARMUP - 1:] == [fresh.observe(y) for y in ys[EM_WARMUP:]]
    assert sum(d.warmed_up for d in decisions) == 110 - 2 * EM_WARMUP
    assert det.anchors == fresh.anchors
    assert repr((det.theta, det.last_ll_history)) == repr((fresh.theta, fresh.last_ll_history))
