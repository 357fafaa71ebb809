"""BSM stream primitives.

Record and sample types, windowed aggregation at the infrastructure edge,
per-feature standardization, the rolling control-variate transform, and the
CSV schema used by every command.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

NO_ATTACK = 0
ATTACK = 1

#: Native broadcast period of a BSM stream (10 Hz).
BSM_PERIOD_S = 0.1

#: Lower bound applied to fitted standard deviations so constant features
#: standardize to zero instead of blowing up.
STDEV_FLOOR = 1e-12

#: Weight of the acceleration-difference control variate in the rolling
#: transform.
CONTROL_VARIATE_COEFF = 0.99

#: Number of samples a transform window holds before it emits values.
TRANSFORM_SPAN = 10

#: Largest |t|, speed or |accel| a CSV may carry: far beyond any vehicle or
#: epoch timestamp, and small enough that a stream's sums and squares stay
#: finite.
MAX_FIELD_MAGNITUDE = 1e12

CSV_HEADER = ("t", "vehicle_id", "speed_mps", "accel_mps2", "label")


class DataError(ValueError):
    """Malformed or inconsistent stream data."""


class NonMonotonicTimestampError(DataError):
    """Timestamps within one vehicle stream must be strictly increasing."""


class BsmRecord(NamedTuple):
    """One 10 Hz basic safety message."""

    t: float  # seconds, 0.1 s resolution
    vehicle_id: str
    speed: float  # m/s
    accel: float  # m/s^2
    label: int  # 0 clean, 1 attacked


class AggregatedSample(NamedTuple):
    """Mean speed and acceleration over one aggregation window.

    ``t`` is the window end; the window covers ``(t - w, t]``. The label is
    1 if any constituent record was attacked.
    """

    t: float
    avg_speed: float
    avg_accel: float
    label: int


def aggregate(
    records: Iterable[BsmRecord], window: float = BSM_PERIOD_S
) -> Iterator[AggregatedSample]:
    """Average a single time-ordered stream into fixed windows.

    Yields one sample per non-empty window. Labels are OR-combined so any
    attacked record taints its window. Raises NonMonotonicTimestampError as
    soon as a timestamp fails to advance, so interleaved multi-vehicle input
    must be split by vehicle first.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")

    key = None
    speed_sum = accel_sum = 0.0
    count = 0
    label = NO_ATTACK
    prev_t: float | None = None
    ceil = math.ceil

    for idx, (t, vehicle_id, speed, accel, rec_label) in enumerate(records):
        if prev_t is not None and t <= prev_t:
            raise NonMonotonicTimestampError(
                f"record {idx} (vehicle {vehicle_id!r}, t={t!r}) does not "
                f"advance past previous t={prev_t!r}"
            )
        prev_t = t
        # Records land in ((k-1)*w, k*w]; the 1e-9 slack absorbs float drift
        # in timestamps that are nominal multiples of the window.
        k = ceil(t / window - 1e-9)
        if k != key:
            if count:
                yield AggregatedSample(
                    round(key * window, 9), speed_sum / count, accel_sum / count, label
                )
            speed_sum = accel_sum = 0.0
            count = 0
            label = NO_ATTACK
            key = k
        speed_sum += speed
        accel_sum += accel
        count += 1
        if rec_label == ATTACK:
            label = ATTACK
    if count:
        yield AggregatedSample(
            round(key * window, 9), speed_sum / count, accel_sum / count, label
        )


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature mean and (floored) standard deviation, fitted on training data."""

    mean: tuple[float, ...]
    stdev: tuple[float, ...]


def fit_standardizer(rows: Sequence[Sequence[float]]) -> StandardizationParams:
    """Fit per-feature mean and population standard deviation.

    Zero-variance features get their stdev floored to STDEV_FLOOR and a
    warning, so applying the standardizer maps them to exactly zero.
    """
    if len(rows) == 0:
        raise ValueError("cannot fit a standardizer on an empty training set")
    n_features = len(rows[0])
    n = len(rows)
    means = []
    stdevs = []
    for j in range(n_features):
        col = [float(row[j]) for row in rows]
        mean = math.fsum(col) / n
        var = math.fsum((x - mean) ** 2 for x in col) / n
        stdev = math.sqrt(var)
        if stdev < STDEV_FLOOR:
            warnings.warn(
                f"feature {j} has (near-)zero variance; stdev floored to {STDEV_FLOOR}",
                stacklevel=2,
            )
            stdev = STDEV_FLOOR
        means.append(mean)
        stdevs.append(stdev)
    return StandardizationParams(mean=tuple(means), stdev=tuple(stdevs))


def apply_standardizer(
    params: StandardizationParams, row: Sequence[float]
) -> tuple[float, ...]:
    """Return (x - mean) / stdev per feature."""
    if len(row) != len(params.mean):
        raise ValueError(
            f"expected {len(params.mean)} features, got {len(row)}"
        )
    return tuple(
        (float(x) - m) / s for x, m, s in zip(row, params.mean, params.stdev)
    )


class TransformWindow:
    """Rolling control-variate transform of one vehicle's sample stream.

    Holds the most recent TRANSFORM_SPAN (speed, accel) pairs. Once full,
    each push returns the unbiased sample variance of the series

        z_j = ds_j - c * (da_j - mean(da))

    where c is CONTROL_VARIATE_COEFF and ds/da are first differences of speed
    and acceleration taken inside the window. Pushes before the window fills
    return None (warm-up).
    """

    def __init__(self):
        self._speeds: deque[float] = deque(maxlen=TRANSFORM_SPAN)
        self._accels: deque[float] = deque(maxlen=TRANSFORM_SPAN)

    def push(self, speed: float, accel: float) -> float | None:
        self._speeds.append(float(speed))
        self._accels.append(float(accel))
        if len(self._speeds) != TRANSFORM_SPAN:
            return None
        return self._value()

    def _value(self) -> float:
        s = self._speeds
        a = self._accels
        ds = map(operator.sub, islice(s, 1, None), s)
        da = list(map(operator.sub, islice(a, 1, None), a))
        da_mean = math.fsum(da) / (TRANSFORM_SPAN - 1)
        c = CONTROL_VARIATE_COEFF
        z = [d_s - c * (d_a - da_mean) for d_s, d_a in zip(ds, da)]
        z_mean = math.fsum(z) / (TRANSFORM_SPAN - 1)
        return math.fsum([(v - z_mean) ** 2 for v in z]) / (TRANSFORM_SPAN - 2)


def write_bsm_csv(path: str, records: Iterable[BsmRecord]) -> int:
    """Write records in the canonical CSV schema. Returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(
                [repr(rec.t), rec.vehicle_id, repr(rec.speed), repr(rec.accel), rec.label]
            )
            n += 1
    return n


def read_bsm_csv(path: str) -> Iterator[BsmRecord]:
    """Stream records from a canonical CSV, validating encoding, schema and labels."""
    try:
        yield from _parse_bsm_csv(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_bsm_csv(path: str) -> Iterator[BsmRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if tuple(header) != CSV_HEADER:
            raise DataError(
                f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        big = MAX_FIELD_MAGNITUDE
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 columns, got {len(row)}")
            t, vehicle_id, speed, accel, label = row
            try:
                t = float(t)
                speed = float(speed)
                accel = float(accel)
                label = int(label)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not (-big <= t <= big and -big <= speed <= big and -big <= accel <= big):
                raise DataError(
                    f"{path}:{lineno}: t, speed or accel is non-finite or beyond "
                    f"{big:g} in {row!r}"
                )
            if label not in (NO_ATTACK, ATTACK):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {row[4]!r}")
            if speed < 0:
                raise DataError(f"{path}:{lineno}: negative speed {speed!r}")
            yield BsmRecord(t, vehicle_id, speed, accel, label)
