"""Synthetic 10 Hz BSM streams and false-speed attack injection.

Generation is pure and seed-deterministic: the same profile and seed always
produce the same records. Attacks rewrite only the speed field inside their
windows; acceleration keeps describing the pre-attack motion, and that
speed/acceleration inconsistency is exactly what downstream detectors can
exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from bsmguard.bsm import ATTACK, BSM_PERIOD_S, MAX_FIELD_MAGNITUDE, BsmRecord
from bsmguard.config import (
    ConfigError,
    check_windows,
    get_value,
    reject_unknown_keys,
    window_pairs,
)

ATTACK_MODES = ("constant_replace", "offset", "noise_burst")

DEFAULT_VEHICLE_ID = "cv1"

#: Largest |speed|, noise stdev or |attack magnitude| a scenario takes: at a
#: thousandth of MAX_FIELD_MAGNITUDE, every speed and finite-difference
#: acceleration generate_stream and inject_false_info write stays inside it,
#: since numpy's normal draws stay below 14 sigma.
MAX_SCENARIO_SPEED = MAX_FIELD_MAGNITUDE / 1000


def _check(ok: bool, key: str, value, requirement: str) -> None:
    """Raise ConfigError naming the scenario config ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"key {key!r}: {value!r} {requirement}")


def _check_within(windows, last_t: float) -> None:
    """Raise ConfigError for a window outside a stream whose last record is at ``last_t``."""
    for w in windows:
        _check(w[0] >= 0 and w[1] <= last_t + 1e-9, "attack.windows", w,
               f"falls outside the {last_t} s stream")


@dataclass(frozen=True)
class Segment:
    """One leg of a piecewise speed plan."""

    kind: str  # cruise | decel | accel
    length_s: float
    target_speed: float | None = None  # required for decel/accel

    def __post_init__(self) -> None:
        _check(self.kind in ("cruise", "decel", "accel"), "kind", self.kind,
               "must be cruise, decel or accel")
        ramp_ok = self.target_speed is not None and abs(self.target_speed) <= MAX_SCENARIO_SPEED
        _check(self.kind == "cruise" or ramp_ok, "target_speed", self.target_speed,
               f"must be a speed of at most {MAX_SCENARIO_SPEED:g} in magnitude for a ramp")


@dataclass(frozen=True)
class DrivingProfile:
    """Shape of a clean single-vehicle speed trace.

    Default is a constant cruise near a 35 mph corridor with Gaussian speed
    noise. Optional segments chain cruise/decel/accel legs; ramps move
    linearly to their target speed. Speeds are clamped at zero. The trace
    has at least one 0.1 s tick, the last at most MAX_FIELD_MAGNITUDE s in.
    """

    duration_s: float
    base_speed: float = 15.6
    noise_stdev: float = 0.25
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        d = self.duration_s
        _check(d > 0, "duration_s", d, "must be positive")
        _check(d <= MAX_FIELD_MAGNITUDE and self.ticks * BSM_PERIOD_S <= MAX_FIELD_MAGNITUDE,
               "duration_s", d, f"puts the last record past t = {MAX_FIELD_MAGNITUDE:g}")
        _check(self.ticks >= 1, "duration_s", d, "rounds to zero 0.1 s ticks")
        _check(abs(self.base_speed) <= MAX_SCENARIO_SPEED, "base_speed_mps", self.base_speed,
               f"must be at most {MAX_SCENARIO_SPEED:g} in magnitude")
        _check(0 <= self.noise_stdev <= MAX_SCENARIO_SPEED, "noise_stdev", self.noise_stdev,
               f"must be non-negative and at most {MAX_SCENARIO_SPEED:g}")

    @property
    def ticks(self) -> int:
        """Records in the trace: one per 0.1 s tick, the last at ``ticks * 0.1`` s."""
        return int(round(self.duration_s / BSM_PERIOD_S))

    def base_trace(self, n: int) -> np.ndarray:
        """Noise-free speed value at each of the n ticks."""
        if not self.segments:
            return np.full(n, self.base_speed)
        values = np.empty(n)
        speed = self.base_speed
        seg_iter = iter(self.segments)
        seg = next(seg_iter, None)
        seg_start = 0.0
        for i in range(n):
            t = (i + 1) * BSM_PERIOD_S
            while seg is not None and t > seg_start + seg.length_s:
                if seg.kind != "cruise":
                    speed = seg.target_speed
                seg_start += seg.length_s
                seg = next(seg_iter, None)
            if seg is None or seg.kind == "cruise":
                values[i] = speed
            else:
                frac = (t - seg_start) / seg.length_s
                values[i] = speed + (seg.target_speed - speed) * frac
        return values


@dataclass(frozen=True)
class AttackSpec:
    """Where and how false speeds are injected.

    Windows are half-open [start, end) in seconds and must not overlap.
    Modes: constant_replace sets the speed to ``magnitude``; offset adds it;
    noise_burst adds N(0, magnitude^2) noise drawn from ``seed``. Only an
    offset may be negative.
    """

    windows: tuple[tuple[float, float], ...]
    mode: str = "constant_replace"
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ATTACK_MODES:
            raise ConfigError(f"unknown attack mode {self.mode!r}; expected {ATTACK_MODES}")
        check_windows(self.windows)
        _check(self.mode == "offset" or self.magnitude >= 0, "attack.magnitude", self.magnitude,
               f"must be >= 0 for {self.mode} (a speed or a noise stdev)")
        _check(abs(self.magnitude) <= MAX_SCENARIO_SPEED, "attack.magnitude", self.magnitude,
               f"must be at most {MAX_SCENARIO_SPEED:g} in magnitude")


def generate_stream(
    profile: DrivingProfile, seed: int, vehicle_id: str = DEFAULT_VEHICLE_ID
) -> list[BsmRecord]:
    """Generate a clean 10 Hz stream: one record per 0.1 s tick.

    The broadcast acceleration is the finite difference of the broadcast
    speed, (v_t - v_{t-0.1}) / 0.1, with the first record reporting zero.
    A ``duration_s`` whose speed trace does not fit in memory is a
    ConfigError naming the record count.
    """
    n = profile.ticks
    rng = np.random.default_rng(seed)
    try:
        speeds = profile.base_trace(n)
        if profile.noise_stdev > 0:
            speeds = speeds + rng.normal(0.0, profile.noise_stdev, n)
        speeds = np.maximum(speeds, 0.0)
    except MemoryError:
        raise ConfigError(f"key 'duration_s': {profile.duration_s!r} asks for {n} records, "
                          "more than fit in memory") from None

    records = []
    prev = None
    for i in range(n):
        t = round((i + 1) * BSM_PERIOD_S, 9)
        v = float(speeds[i])
        a = 0.0 if prev is None else (v - prev) / BSM_PERIOD_S
        records.append(BsmRecord(t, vehicle_id, v, a, 0))
        prev = v
    return records


def inject_false_info(
    stream: Sequence[BsmRecord], spec: AttackSpec
) -> list[BsmRecord]:
    """Rewrite speeds inside the attack windows and label those records.

    Only the speed field changes; timestamps, vehicle ids, and accelerations
    are carried through bit-identically. A window outside the stream is a
    ConfigError.
    """
    if stream:
        _check_within(spec.windows, stream[-1].t)
    rng = np.random.default_rng(spec.seed)
    # A record at t is hit by [start, end) when start <= t < end, up to 1e-9.
    bounds = [(start - 1e-9, end - 1e-9) for start, end in spec.windows]
    out: list[BsmRecord] = []
    for rec in stream:
        t = rec.t
        hit = any(lo <= t < hi for lo, hi in bounds)
        if not hit:
            out.append(rec)
            continue
        if spec.mode == "constant_replace":
            speed = spec.magnitude
        elif spec.mode == "offset":
            speed = max(0.0, rec.speed + spec.magnitude)
        else:  # noise_burst
            speed = max(0.0, rec.speed + float(rng.normal(0.0, spec.magnitude)))
        out.append(BsmRecord(t, rec.vehicle_id, speed, rec.accel, ATTACK))
    return out


@dataclass(frozen=True)
class Scenario:
    """A profile, an optional attack whose windows end by the profile's last
    record, and the master seed."""

    profile: DrivingProfile
    attack: AttackSpec | None
    seed: int

    def __post_init__(self) -> None:
        _check(self.seed >= 0, "seed", self.seed, "must be non-negative")
        if self.attack is not None:
            _check_within(self.attack.windows, round(self.profile.ticks * BSM_PERIOD_S, 9))

    def run(self) -> list[BsmRecord]:
        stream = generate_stream(self.profile, self.seed)
        if self.attack is not None and self.attack.windows:
            return inject_false_info(stream, self.attack)
        return stream


#: Every scenario config key; any other key is a ConfigError.
SCENARIO_KEYS = (
    "duration_s",
    "seed",
    "base_speed_mps",
    "noise_stdev",
    "attack.windows",
    "attack.mode",
    "attack.magnitude",
)


def scenario_from_mapping(cfg: Mapping[str, str], source: str = "<config>") -> Scenario:
    """Build a scenario from flat config keys (``SCENARIO_KEYS``).

    Required: duration_s, seed. Optional: base_speed_mps, noise_stdev,
    attack.windows, attack.mode, attack.magnitude. Unknown keys, and values
    the constructors reject, are ConfigErrors naming the key.
    """
    reject_unknown_keys(cfg, SCENARIO_KEYS, f"{source}: unknown scenario key")
    duration = get_value(cfg, "duration_s", float)
    seed = get_value(cfg, "seed", int)
    base_speed = get_value(cfg, "base_speed_mps", float, 15.6)
    noise_stdev = get_value(cfg, "noise_stdev", float, 0.25)
    windows = window_pairs(cfg["attack.windows"]) if "attack.windows" in cfg else None
    mode = get_value(cfg, "attack.mode", str, "constant_replace")
    magnitude = get_value(cfg, "attack.magnitude", float, 0.0)
    profile = DrivingProfile(duration, base_speed, noise_stdev)
    attack = None if windows is None else AttackSpec(windows, mode, magnitude, seed)
    return Scenario(profile, attack, seed)


def default_scenario(seed: int = 0) -> Scenario:
    """The canonical evaluation scenario.

    200 s cruise at 15.6 m/s with 0.25 m/s speed noise (2000 records, 2000
    aggregated samples at the native window), one 5 s false-speed window
    [100, 105) replacing the speed with 0.0 m/s, a displacement of about 62
    noise sigmas. Deterministic per seed.
    """
    return Scenario(
        profile=DrivingProfile(duration_s=200.0, base_speed=15.6, noise_stdev=0.25),
        attack=AttackSpec(windows=((100.0, 105.0),), mode="constant_replace", magnitude=0.0),
        seed=seed,
    )
