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

from bsmguard.bsm import ATTACK, BSM_PERIOD_S, BsmRecord
from bsmguard.config import (
    ConfigError,
    check_windows,
    get_value,
    parse_windows,
    reject_unknown_keys,
)

ATTACK_MODES = ("constant_replace", "offset", "noise_burst")

DEFAULT_VEHICLE_ID = "cv1"


@dataclass(frozen=True)
class Segment:
    """One leg of a piecewise speed plan."""

    kind: str  # cruise | decel | accel
    length_s: float
    target_speed: float | None = None  # required for decel/accel


@dataclass(frozen=True)
class DrivingProfile:
    """Shape of a clean single-vehicle speed trace.

    Default is a constant cruise near a 35 mph corridor with Gaussian speed
    noise. Optional segments chain cruise/decel/accel legs; ramps move
    linearly to their target speed. Speeds are clamped at zero.
    """

    duration_s: float
    base_speed: float = 15.6
    noise_stdev: float = 0.25
    segments: tuple[Segment, ...] = ()

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
                if seg.kind in ("decel", "accel") and seg.target_speed is not None:
                    speed = seg.target_speed
                seg_start += seg.length_s
                seg = next(seg_iter, None)
            if seg is None or seg.kind == "cruise":
                values[i] = speed
            else:
                if seg.target_speed is None:
                    raise ValueError(f"{seg.kind} segment needs a target_speed")
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

    def validate(self, duration_s: float | None = None) -> None:
        if self.mode not in ATTACK_MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}; expected {ATTACK_MODES}")
        check_windows(self.windows, duration_s)
        if self.mode != "offset" and self.magnitude < 0:
            raise ValueError(
                f"attack.magnitude {self.magnitude!r} must be >= 0 for {self.mode} "
                "(a speed or a noise stdev)"
            )


def generate_stream(
    profile: DrivingProfile, seed: int, vehicle_id: str = DEFAULT_VEHICLE_ID
) -> list[BsmRecord]:
    """Generate a clean 10 Hz stream: one record per 0.1 s tick.

    The broadcast acceleration is the finite difference of the broadcast
    speed, (v_t - v_{t-0.1}) / 0.1, with the first record reporting zero.
    """
    if profile.duration_s <= 0:
        raise ValueError(f"duration must be positive, got {profile.duration_s}")
    n = int(round(profile.duration_s / BSM_PERIOD_S))
    rng = np.random.default_rng(seed)
    speeds = profile.base_trace(n)
    if profile.noise_stdev > 0:
        speeds = speeds + rng.normal(0.0, profile.noise_stdev, n)
    speeds = np.maximum(speeds, 0.0)

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
    are carried through bit-identically.
    """
    duration = stream[-1].t if stream else None
    spec.validate(duration)
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
    """A profile, an optional attack, and the master seed."""

    profile: DrivingProfile
    attack: AttackSpec | None
    seed: int

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


def _require(ok: bool, key: str, value, requirement: str) -> None:
    if not ok:
        raise ConfigError(f"key {key!r}: {value!r} {requirement}")


def scenario_from_mapping(cfg: Mapping[str, str], source: str = "<config>") -> Scenario:
    """Build a scenario from flat config keys (``SCENARIO_KEYS``).

    Required: duration_s, seed. Optional: base_speed_mps, noise_stdev,
    attack.windows, attack.mode, attack.magnitude. Unknown keys and values a
    scenario cannot run with are ConfigErrors naming the key.
    """
    reject_unknown_keys(cfg, SCENARIO_KEYS, f"{source}: unknown scenario key")
    duration = get_value(cfg, "duration_s", float)
    seed = get_value(cfg, "seed", int)
    profile = DrivingProfile(
        duration_s=duration,
        base_speed=get_value(cfg, "base_speed_mps", float, 15.6),
        noise_stdev=get_value(cfg, "noise_stdev", float, 0.25),
    )
    _require(duration > 0, "duration_s", duration, "must be positive")
    _require(seed >= 0, "seed", seed, "must be non-negative")
    _require(profile.noise_stdev >= 0, "noise_stdev", profile.noise_stdev, "must be non-negative")
    attack = None
    if "attack.windows" in cfg:
        windows = parse_windows(cfg["attack.windows"])
        attack = AttackSpec(
            windows=windows,
            mode=get_value(cfg, "attack.mode", str, "constant_replace"),
            magnitude=get_value(cfg, "attack.magnitude", float, 0.0),
            seed=seed,
        )
        try:
            attack.validate(duration)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return Scenario(profile=profile, attack=attack, seed=seed)


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
