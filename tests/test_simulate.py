"""Stream generation and false-speed injection.

``generate_stream`` and ``inject_false_info`` build their records from
columns, and ``DrivingProfile.base_trace`` fills each segment at once; the
oracles are the per-record and per-tick loops they replaced
(``reference.generate_stream``, ``inject_false_info`` and ``base_trace``),
and every stream must come out the same, ``repr`` for ``repr``.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmguard.bsm import BSM_PERIOD_S, aggregate, in_window
from bsmguard.config import DetectorSettings
from bsmguard.pipeline import run_detection
from bsmguard.simulate import (
    ATTACK_MODES,
    AttackSpec,
    DrivingProfile,
    Segment,
    default_scenario,
    generate_stream,
    inject_false_info,
    scenario_from_mapping,
)

from reference import base_trace as oracle_base_trace
from reference import generate_stream as oracle_generate_stream
from reference import inject_false_info as oracle_inject_false_info


#: Segments of any length Segment accepts: zero, negative, off the tick grid.
ANY_SEGMENTS = st.lists(
    st.builds(Segment, st.sampled_from(["cruise", "decel", "accel"]),
              st.one_of(st.sampled_from([0.0, -0.0, -1.0, 0.1, 0.3, 1.0, 2.5]),
                        st.floats(-5.0, 12.0)),
              st.one_of(st.sampled_from([0.0, 12.0]), st.floats(-30.0, 30.0))),
    max_size=8,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(segments=ANY_SEGMENTS, base_speed=st.sampled_from([0.0, 0.4, 15.6]),
       n=st.integers(0, 150))
def test_base_trace_matches_the_per_tick_loop(segments, base_speed, n):
    profile = DrivingProfile(duration_s=1.0, base_speed=base_speed, segments=segments)
    assert profile.base_trace(n).tobytes() == oracle_base_trace(profile, n).tobytes()


SEGMENTS = st.lists(
    st.builds(Segment, st.sampled_from(["cruise", "decel", "accel"]),
              st.sampled_from([0.05, 0.1, 0.25, 1.0, 3.3]), st.sampled_from([0.0, 0.3, 12.0])),
    max_size=4,
).map(tuple)

PROFILES = st.builds(
    DrivingProfile,
    duration_s=st.sampled_from([0.1, 0.15, 1.0, 2.35, 7.0, 30.0]),
    base_speed=st.sampled_from([0.0, 0.05, 0.4, 15.6]),
    noise_stdev=st.sampled_from([0.0, 0.25, 3.0]),
    segments=SEGMENTS,
)


@st.composite
def attacks(draw, last_t):
    """An attack spec whose windows start and end on record times, give or
    take up to 1e-9, and may end at the last record."""
    ticks = int(round(last_t / BSM_PERIOD_S))
    cuts = sorted(draw(st.lists(st.integers(0, ticks), max_size=6)))
    nudge = st.sampled_from([0.0, 0.0, -1e-9, 1e-9, -5e-10, 5e-10, -2e-9])
    windows = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        start = max(0.0, round(lo * BSM_PERIOD_S, 9) + draw(nudge))
        end = min(last_t + 1e-9, round(hi * BSM_PERIOD_S, 9) + draw(nudge))
        if start < end and (not windows or windows[-1][1] <= start):
            windows.append((start, end))
    if draw(st.booleans()) and (not windows or windows[-1][1] < last_t):
        windows.append((windows[-1][1] if windows else 0.0, last_t))
    mode = draw(st.sampled_from(ATTACK_MODES))
    magnitude = draw(st.sampled_from([0.0, 0.5, 3.0] + ([-2.0, -20.0] if mode == "offset" else [])))
    return AttackSpec(tuple(windows), mode, magnitude, draw(st.integers(0, 2**32)))


@settings(max_examples=200, deadline=None)
@given(profile=PROFILES, seed=st.integers(0, 2**32), data=st.data())
@example(profile=DrivingProfile(duration_s=200.0), seed=0, data=None)
def test_stream_and_attack_match_the_per_record_loops(profile, seed, data):
    stream = generate_stream(profile, seed, vehicle_id="v7")
    assert repr(stream) == repr(oracle_generate_stream(profile, seed, vehicle_id="v7"))
    last_t = stream[-1].t
    specs = [default_scenario(seed).attack] if data is None else [
        data.draw(attacks(last_t)) for _ in range(3)]
    t = np.array([rec.t for rec in stream])
    for spec in specs:
        attacked = inject_false_info(stream, spec)
        assert repr(attacked) == repr(oracle_inject_false_info(stream, spec))
        mask = np.zeros(len(t), dtype=bool)
        for start, end in spec.windows:
            mask |= in_window(t, start, end)
        assert [rec.label for rec in attacked] == mask.astype(int).tolist()


class TestGenerate:
    def test_one_second_ten_records(self):
        records = generate_stream(DrivingProfile(duration_s=1.0), seed=0)
        assert len(records) == 10
        assert records[0].t == pytest.approx(0.1)
        assert records[-1].t == pytest.approx(1.0)

    def test_zero_noise_constant_speed_zero_accel(self):
        profile = DrivingProfile(duration_s=2.0, base_speed=12.0, noise_stdev=0.0)
        records = generate_stream(profile, seed=1)
        assert all(r.speed == 12.0 for r in records)
        assert all(r.accel == 0.0 for r in records)

    def test_accel_is_finite_difference_of_speed(self):
        records = generate_stream(DrivingProfile(duration_s=3.0), seed=5)
        for prev, cur in zip(records, records[1:]):
            assert cur.accel == pytest.approx((cur.speed - prev.speed) / 0.1)
        assert records[0].accel == 0.0

    def test_same_seed_bit_identical(self):
        profile = DrivingProfile(duration_s=5.0)
        assert generate_stream(profile, seed=3) == generate_stream(profile, seed=3)

    def test_different_seed_differs(self):
        profile = DrivingProfile(duration_s=5.0)
        assert generate_stream(profile, seed=3) != generate_stream(profile, seed=4)

    def test_speeds_clamped_non_negative(self):
        profile = DrivingProfile(duration_s=10.0, base_speed=0.1, noise_stdev=5.0)
        records = generate_stream(profile, seed=0)
        assert all(r.speed >= 0.0 for r in records)

    def test_segments_ramp_down_and_cruise(self):
        profile = DrivingProfile(
            duration_s=3.0,
            base_speed=10.0,
            noise_stdev=0.0,
            segments=(
                Segment("cruise", 1.0),
                Segment("decel", 1.0, target_speed=0.0),
                Segment("cruise", 1.0),
            ),
        )
        records = generate_stream(profile, seed=0)
        assert records[9].speed == pytest.approx(10.0)
        assert records[19].speed == pytest.approx(0.0)
        assert records[29].speed == pytest.approx(0.0)
        # monotone during the ramp
        ramp = [r.speed for r in records[10:20]]
        assert all(a >= b for a, b in zip(ramp, ramp[1:]))

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            generate_stream(DrivingProfile(duration_s=0.0), seed=0)


@functools.cache
def clean_stream(seed, duration):
    """A default-profile stream, built once per (seed, duration) for the module."""
    return tuple(generate_stream(DrivingProfile(duration_s=duration), seed=seed))


class TestInject:
    def base(self, seed=0, duration=30.0):
        return list(clean_stream(seed, duration))

    def test_empty_windows_no_change(self):
        stream = self.base()
        out = inject_false_info(stream, AttackSpec(windows=()))
        assert out == stream
        assert sum(r.label for r in out) == 0

    def test_constant_replace_window_arithmetic(self):
        stream = self.base()
        out = inject_false_info(
            stream,
            AttackSpec(windows=((10.0, 12.0),), mode="constant_replace", magnitude=0.0),
        )
        attacked = [r for r in out if r.label == 1]
        assert len(attacked) == 20
        assert all(r.speed == 0.0 for r in attacked)
        assert attacked[0].t == pytest.approx(10.0)
        assert attacked[-1].t == pytest.approx(11.9)

    def test_non_speed_fields_untouched(self):
        stream = self.base()
        out = inject_false_info(
            stream,
            AttackSpec(windows=((5.0, 8.0),), mode="offset", magnitude=4.0),
        )
        for before, after in zip(stream, out):
            assert after.t == before.t
            assert after.vehicle_id == before.vehicle_id
            assert after.accel == before.accel
            if after.label == 0:
                assert after.speed == before.speed

    def test_constant_replace_idempotent(self):
        stream = self.base()
        spec = AttackSpec(windows=((3.0, 6.0),), mode="constant_replace", magnitude=2.0)
        once = inject_false_info(stream, spec)
        twice = inject_false_info(once, spec)
        assert twice == once

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            inject_false_info(
                self.base(),
                AttackSpec(windows=((1.0, 5.0), (4.0, 8.0)), mode="offset", magnitude=1.0),
            )

    def test_window_outside_stream_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            inject_false_info(
                self.base(duration=10.0),
                AttackSpec(windows=((8.0, 20.0),), mode="offset", magnitude=1.0),
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            inject_false_info(
                self.base(), AttackSpec(windows=((1.0, 2.0),), mode="replay")
            )

    def test_noise_burst_seeded(self):
        stream = self.base()
        spec = AttackSpec(windows=((2.0, 4.0),), mode="noise_burst", magnitude=3.0, seed=5)
        assert inject_false_info(stream, spec) == inject_false_info(stream, spec)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 20.0), st.floats(0.5, 5.0))
    def test_label_count_equals_window_membership(self, start, length):
        start = round(start, 1)
        stream = self.base(duration=30.0)
        spec = AttackSpec(
            windows=((start, start + length),), mode="offset", magnitude=1.0
        )
        out = inject_false_info(stream, spec)
        want = sum(
            1 for r in stream if r.t >= start - 1e-9 and r.t < start + length - 1e-9
        )
        assert sum(r.label for r in out) == want

    def test_offset_ten_sigma_flagged_by_bayesian_detector(self):
        # 100 seeded scenarios: a +10 sigma offset window must be flagged
        # inside the window on at least 99 of them.
        hits = 0
        settings_ = DetectorSettings()
        for seed in range(100):
            profile = DrivingProfile(duration_s=40.0, noise_stdev=0.25)
            stream = generate_stream(profile, seed=seed)
            spec = AttackSpec(windows=((20.0, 25.0),), mode="offset", magnitude=2.5)
            samples = list(aggregate(inject_false_info(stream, spec)))
            flagged = any(
                d.attack and s.label for s, d in run_detection(samples, "bocpd", settings_)
            )
            hits += flagged
        assert hits >= 99


class TestScenario:
    def test_default_scenario_shape(self):
        sc = default_scenario(seed=0)
        records = sc.run()
        assert len(records) == 2000
        assert sum(r.label for r in records) == 50

    def test_from_mapping_requires_keys(self):
        from bsmguard.config import ConfigError

        with pytest.raises(ConfigError, match="duration_s"):
            scenario_from_mapping({"seed": "1"})
        with pytest.raises(ConfigError, match="seed"):
            scenario_from_mapping({"duration_s": "10"})

    def test_from_mapping_builds_attack(self):
        sc = scenario_from_mapping(
            {
                "duration_s": "20",
                "seed": "3",
                "noise_stdev": "0.1",
                "attack.windows": "5.0:6.0,10.0:11.0",
                "attack.mode": "offset",
                "attack.magnitude": "2.0",
            }
        )
        records = sc.run()
        assert sum(r.label for r in records) == 20
