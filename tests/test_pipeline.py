"""Detection wiring: streaming contracts, score orientation, reports."""

import math
import tracemalloc

import pytest

from bsmguard.bsm import aggregate, fit_standardizer
from bsmguard.config import DetectorSettings, detector_settings_from_mapping
from bsmguard.detectors import DETECTORS
from bsmguard.pipeline import (
    DecisionRow,
    detect_records,
    detector_report,
    read_decisions_csv,
    run_detection,
    welford_feature_stats,
    write_decisions_csv,
)
from bsmguard.simulate import DrivingProfile, default_scenario, generate_stream


def scenario_samples(seed=0):
    return list(aggregate(default_scenario(seed=seed).run()))


def test_welford_matches_batch_standardizer():
    samples = scenario_samples()
    streaming = welford_feature_stats(iter(samples))
    batch = fit_standardizer([(s.avg_speed, s.avg_accel) for s in samples])
    assert streaming.mean == pytest.approx(batch.mean, rel=1e-12)
    assert streaming.stdev == pytest.approx(batch.stdev, rel=1e-9)


def test_one_decision_per_sample_all_modes():
    samples = scenario_samples()
    settings = detector_settings_from_mapping(
        {"bocpd.input": "standardized", "em.input": "speed", "cusum.input": "transform"}
    )
    std = welford_feature_stats(samples)
    for name in ("bocpd", "em", "cusum"):
        pairs = list(run_detection(samples, name, settings, std))
        assert len(pairs) == len(samples)


def test_transform_mode_warms_up_nine_samples():
    samples = scenario_samples()
    settings = detector_settings_from_mapping({"cusum.input": "transform"})
    std = welford_feature_stats(samples)
    pairs = list(run_detection(samples, "cusum", settings, std))
    # 9 samples fill the transform window, then the detector's own warm-up.
    for _, decision in pairs[:9]:
        assert not decision.warmed_up
    warm_idx = next(i for i, (_, d) in enumerate(pairs) if d.warmed_up)
    assert warm_idx == 9 + 50


def test_scores_always_finite():
    samples = scenario_samples(3)
    std = welford_feature_stats(samples)
    for name in ("bocpd", "em", "cusum"):
        for _, d in run_detection(samples, name, DetectorSettings(), std):
            assert math.isfinite(d.score)


def test_standardized_mode_requires_params():
    with pytest.raises(ValueError, match="standardization"):
        next(iter(run_detection(scenario_samples(), "bocpd", DetectorSettings(), None)))


def test_score_orientation_yields_high_auroc_for_all_detectors():
    samples = scenario_samples(1)
    std = welford_feature_stats(samples)
    for name in ("bocpd", "em", "cusum"):
        pairs = list(run_detection(samples, name, DetectorSettings(), std))
        rows = [
            DecisionRow(t=s.t, score=d.score, attack=int(d.attack), warmed_up=int(d.warmed_up))
            for s, d in pairs
        ]
        rep = detector_report(name, samples, rows, windows=((100.0, 105.0),))
        assert rep.auroc_value is not None and rep.auroc_value > 0.95
        assert rep.latency is not None and rep.latency.detected == 1
    assert DETECTORS["bocpd"].orientation == -1.0


def test_report_exclude_warmup_changes_totals():
    samples = scenario_samples(2)
    std = welford_feature_stats(samples)
    pairs = list(run_detection(samples, "cusum", DetectorSettings(), std))
    rows = [
        DecisionRow(t=s.t, score=d.score, attack=int(d.attack), warmed_up=int(d.warmed_up))
        for s, d in pairs
    ]
    full = detector_report("cusum", samples, rows)
    trimmed = detector_report("cusum", samples, rows, exclude_warmup=True)
    assert full.cm.total == 2000
    assert trimmed.cm.total == 2000 - 50


def test_report_length_mismatch_rejected():
    samples = scenario_samples(0)[:10]
    with pytest.raises(Exception, match="match"):
        detector_report("cusum", samples, [])


def test_decisions_csv_roundtrip(tmp_path):
    samples = scenario_samples(0)[:200]
    std = welford_feature_stats(samples)
    pairs = list(run_detection(samples, "bocpd", DetectorSettings(), std))
    path = tmp_path / "d.csv"
    n = write_decisions_csv(path, iter(pairs))
    assert n == 200
    rows = read_decisions_csv(path)
    assert len(rows) == 200
    assert rows[0].t == samples[0].t
    assert [r.score for r in rows] == [d.score for _, d in pairs]


def test_detect_records_memory_stays_bounded(tmp_path):
    # Streaming contract: quadrupling the stream must not grow peak memory
    # materially. Uses generator input end to end (cusum on raw speed needs
    # a single pass and no buffering).
    settings = detector_settings_from_mapping({"cusum.input": "speed"})

    def run(n_seconds):
        profile = DrivingProfile(duration_s=n_seconds, noise_stdev=0.1)

        def factory():
            return iter(generate_stream(profile, seed=1))

        records = generate_stream(profile, seed=1)

        def lazy_factory():
            return iter(records)

        tracemalloc.start()
        for _ in detect_records(lazy_factory, "cusum", settings):
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small = run(100.0)
    big = run(400.0)
    assert big < 2 * small + 200_000, f"peak grew from {small} to {big} bytes"
