"""Detection wiring: streaming contracts, score orientation, reports."""

import functools
import math
import tracemalloc

import hypothesis
import pytest
from hypothesis import strategies as st

from bsmguard.bsm import DataError, aggregate, fit_standardizer
from bsmguard.config import DetectorSettings, detector_settings_from_mapping
from bsmguard.detectors import DETECTORS, DetectorDecision
from bsmguard.pipeline import (
    detect_records,
    detector_report,
    feature_stream,
    read_decisions_csv,
    run_detection,
    welford_feature_stats,
    write_decisions_csv,
)
from bsmguard.simulate import DrivingProfile, default_scenario, generate_stream

from reference import ONLINE_MODES


@functools.cache
def scenario_samples(seed):
    """The default scenario's samples, built once per seed for the module."""
    return tuple(aggregate(default_scenario(seed=seed).run()))


def test_welford_matches_batch_standardizer():
    samples = scenario_samples(0)
    streaming = welford_feature_stats(iter(samples))
    batch = fit_standardizer([(s.avg_speed,) for s in samples])
    assert streaming.mean == pytest.approx(batch.mean, rel=1e-12)
    assert streaming.stdev == pytest.approx(batch.stdev, rel=1e-9)


def test_one_decision_per_sample_all_modes():
    samples = scenario_samples(0)
    settings = detector_settings_from_mapping(
        {"bocpd.input": "standardized", "em.input": "speed", "cusum.input": "transform"}
    )
    for name in ("bocpd", "em", "cusum"):
        pairs = list(run_detection(samples, name, settings))
        assert len(pairs) == len(samples)


@functools.cache
def full_stream_pairs(name, mode):
    samples = scenario_samples(0)
    settings = detector_settings_from_mapping({f"{name}.input": mode})
    return samples, settings, list(run_detection(samples, name, settings))


@hypothesis.settings(max_examples=12)
@hypothesis.given(st.integers(1, 2000))
def test_online_modes_decide_a_prefix_as_the_full_stream_does(k):
    for name, mode in ONLINE_MODES:
        samples, settings, full = full_stream_pairs(name, mode)
        assert list(run_detection(samples[:k], name, settings)) == full[:k], (name, mode)


def test_standardized_mode_is_the_documented_exception_to_online():
    # Standardized input reads whole-stream statistics, so a stream cut at
    # the attack's onset standardizes with other numbers than the full one.
    k = 1000
    for name in ("bocpd", "cusum"):
        samples, settings, full = full_stream_pairs(name, "standardized")
        prefix = samples[:k]
        pairs = list(run_detection(prefix, name, settings))
        assert [d.score for _, d in pairs] != [d.score for _, d in full[:k]], name


def test_transform_mode_warms_up_nine_samples():
    samples = scenario_samples(0)
    settings = detector_settings_from_mapping({"cusum.input": "transform"})
    pairs = list(run_detection(samples, "cusum", settings))
    # 9 samples fill the transform window, then the detector's own warm-up.
    for _, decision in pairs[:9]:
        assert not decision.warmed_up
    warm_idx = next(i for i, (_, d) in enumerate(pairs) if d.warmed_up)
    assert warm_idx == 9 + 50


def test_scores_always_finite():
    samples = scenario_samples(3)
    for name in ("bocpd", "em", "cusum"):
        for _, d in run_detection(samples, name, DetectorSettings()):
            assert math.isfinite(d.score)


def test_standardized_mode_standardizes_with_the_streams_own_statistics():
    samples = scenario_samples(0)
    std = welford_feature_stats(samples)
    (mean,), (stdev,) = std.mean, std.stdev
    assert list(feature_stream(samples, "standardized")) == [
        (s, (s.avg_speed - mean) / stdev) for s in samples]


def test_standardized_mode_reads_a_one_shot_iterator_as_its_list():
    # It holds its samples itself, so one pass over an iterator is enough.
    samples = scenario_samples(0)
    assert (list(run_detection(iter(samples), "bocpd", DetectorSettings()))
            == list(run_detection(samples, "bocpd", DetectorSettings())))


def test_unknown_input_mode_is_a_value_error_before_any_sample_is_read():
    read = []

    def samples():
        for s in scenario_samples(0):
            read.append(s)
            yield s

    with pytest.raises(ValueError, match=r"'speeed'.*\('speed', 'standardized', 'transform'\)"):
        next(feature_stream(samples(), "speeed"))
    assert read == []


def test_score_orientation_yields_high_auroc_for_all_detectors():
    samples = scenario_samples(1)
    for name in ("bocpd", "em", "cusum"):
        pairs = list(run_detection(samples, name, DetectorSettings()))
        rep = detector_report(name, pairs, windows=((100.0, 105.0),))
        assert rep.auroc_value is not None and rep.auroc_value > 0.95
        assert rep.latency is not None and rep.latency.detected == 1
    assert DETECTORS["bocpd"].orientation == -1.0


def test_report_exclude_warmup_changes_totals():
    samples = scenario_samples(2)
    pairs = list(run_detection(samples, "cusum", DetectorSettings()))
    full = detector_report("cusum", pairs)
    trimmed = detector_report("cusum", pairs, exclude_warmup=True)
    assert full.cm.total == 2000
    assert trimmed.cm.total == 2000 - 50


def written_decisions(tmp_path, samples):
    """The decisions CSV of cusum on raw speed over ``samples``."""
    settings = detector_settings_from_mapping({"cusum.input": "speed"})
    path = tmp_path / "d.csv"
    write_decisions_csv(path, run_detection(samples, "cusum", settings))
    return path


def test_report_length_mismatch_rejected(tmp_path):
    samples = scenario_samples(0)[:10]
    path = written_decisions(tmp_path, samples)
    with pytest.raises(DataError, match="decision count 10 does not match sample count 9"):
        read_decisions_csv(path, samples[:9])


def test_decisions_csv_extra_row_rejected(tmp_path):
    samples = scenario_samples(0)[:10]
    path = written_decisions(tmp_path, samples)
    with path.open("a") as fh:
        fh.write(f"{samples[9].t + 0.1!r},0.0,0,1\n")
    with pytest.raises(DataError, match="decision count 11 does not match sample count 10"):
        read_decisions_csv(path, samples)


def test_decisions_csv_missing_row_rejected(tmp_path):
    samples = scenario_samples(0)[:10]
    path = written_decisions(tmp_path, samples)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataError, match="decision count 9 does not match sample count 10"):
        read_decisions_csv(path, samples)


def test_decisions_csv_t_mismatch_names_the_line_and_both_times(tmp_path):
    samples = scenario_samples(0)[:10]
    path = written_decisions(tmp_path, samples)
    shifted = [s._replace(t=s.t + 0.05) for s in samples]
    with pytest.raises(DataError) as err:
        read_decisions_csv(path, [*samples[:4], *shifted[4:]])
    assert f"d.csv:6: t={samples[4].t!r}" in str(err.value)
    assert repr(shifted[4].t) in str(err.value)


def test_decisions_csv_error_names_the_line_past_quoted_line_breaks(tmp_path):
    # Each score is quoted; the third row's, with a bad flag, spans two lines,
    # so that row ends on line 5. A line break in the first two would be a
    # whitespace error of its own.
    samples = scenario_samples(0)[:3]
    scores = ('"0.5"', '"0.5"', '"0.5\n"')
    rows = [f'{s.t!r},{score},{flag},1\n' for s, score, flag in zip(samples, scores, (0, 0, 7))]
    path = tmp_path / "d.csv"
    path.write_text("t,score,attack,warmed_up\n" + "".join(rows))
    with pytest.raises(DataError, match=r"d\.csv:5: attack and warmed_up must be 0 or 1"):
        read_decisions_csv(path, samples)


def decisions_text(samples, flags):
    """A decisions CSV over ``samples``, score 0.5, with ``flags`` (attack,
    warmed_up) spelled as given."""
    return "t,score,attack,warmed_up\n" + "".join(
        f"{s.t!r},0.5,{attack},{warmed_up}\n" for s, (attack, warmed_up) in zip(samples, flags))


def test_decisions_csv_reads_decisions_with_bool_flags(tmp_path):
    # int() reads each flag, so 01, +1 and -0 read as 1, 1 and 0.
    samples = scenario_samples(0)[:3]
    path = tmp_path / "d.csv"
    path.write_text(decisions_text(samples, [("01", "+1"), ("-0", "01"), ("+1", "-0")]))
    pairs = read_decisions_csv(path, samples)
    assert [s for s, _ in pairs] == list(samples)
    assert all(type(d) is DetectorDecision for _, d in pairs)
    assert [(d.attack, d.warmed_up) for _, d in pairs] == [(True, True), (False, True),
                                                           (True, False)]
    assert {type(flag) for _, d in pairs for flag in (d.attack, d.warmed_up)} == {bool}


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("flag, error", [
    ("2", "attack and warmed_up must be 0 or 1"),
    ("1.0", "invalid literal for int"),
])
def test_decisions_csv_flag_other_than_0_or_1_names_its_line(tmp_path, column, flag, error):
    samples = scenario_samples(0)[:3]
    flags = [["0", "1"] for _ in samples]
    flags[1][column] = flag
    path = tmp_path / "d.csv"
    path.write_text(decisions_text(samples, flags))
    with pytest.raises(DataError, match=rf"d\.csv:3: {error}"):
        read_decisions_csv(path, samples)


def test_decisions_csv_roundtrip(tmp_path):
    samples = scenario_samples(0)[:200]
    pairs = list(run_detection(samples, "bocpd", DetectorSettings()))
    path = tmp_path / "d.csv"
    n = write_decisions_csv(path, iter(pairs))
    assert n == 200
    assert read_decisions_csv(path, samples) == pairs


@pytest.mark.parametrize("mode", ["speed", "transform"])
def test_detect_records_memory_stays_bounded(mode):
    # Streaming contract: quadrupling the stream must not grow peak memory
    # materially. Records are read once, from one iterator. Standardized
    # input is left out: it holds a list of its samples.
    settings = detector_settings_from_mapping({"cusum.input": mode})

    def run(n_seconds):
        profile = DrivingProfile(duration_s=n_seconds, noise_stdev=0.1)
        records = generate_stream(profile, seed=1)
        tracemalloc.start()
        try:
            for _ in detect_records(iter(records), "cusum", settings, 0.1):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    small = run(100.0)
    big = run(400.0)
    assert big < 2 * small + 200_000, f"peak grew from {small} to {big} bytes"
