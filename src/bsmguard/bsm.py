"""BSM stream primitives.

Record and sample types, windowed aggregation at the infrastructure edge,
per-feature standardization, the rolling control-variate transform, and the
CSV schema used by every command.

CSV files are written and read ``READ_BLOCK_LINES`` rows at a time.
``write_csv`` formats a plain block of rows (tuples of one width whose
columns each hold one exact type, float, int or str, and no text
``csv.writer`` would quote) as one string and hands any other block to
``csv.writer``, so the bytes are ``csv.writer``'s. ``read_csv`` splits a
block of plain lines, which is every block ``write_csv`` writes for
simulated streams, decisions and ROC points, with ``str.split``; a quote, a
CR, a blank line or a line as long as ``csv.field_size_limit()`` hands the
rest of the file to ``csv.reader``. Each reader states its checks once, in
a function that converts and checks a list of rows a column at a time
(``_bsm_block`` here, the join in ``pipeline.read_decisions_csv``);
``read_checked`` runs it on each block and again one row at a time on a
block that fails, so the records and errors are those of a row-at-a-time
reader. A number's text is held to what ``write_csv`` writes: no
underscore, whitespace or non-ASCII character, all of which ``float()`` and
``int()`` would accept.
"""

from __future__ import annotations

import csv
import math
import operator
import string
import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

NO_ATTACK = 0
ATTACK = 1

#: Native broadcast period of a BSM stream (10 Hz).
BSM_PERIOD_S = 0.1

#: Lower bound applied to fitted standard deviations so constant features
#: standardize to zero instead of blowing up.
STDEV_FLOOR = 1e-12

#: Slack, in seconds, of the attack-window rule (``in_window``) and window checks.
WINDOW_SLACK_S = 1e-9

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

#: Rows ``write_csv`` writes, and lines ``read_csv`` takes from a file, at a
#: time: a block of 512 simulated records is about 20 KB of text.
READ_BLOCK_LINES = 512


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


#: AggregatedSample from a tuple of its fields, without the Python-level ``__new__``.
_aggregated_sample = partial(tuple.__new__, AggregatedSample)


def _exact_window(window: float) -> tuple[int, int, int]:
    """``(W, D, kmax)`` with ``round(k * window, 9) == k * W / D`` for every int
    ``|k| <= kmax``, where ``W / D`` is the shortest ``repr`` of ``window`` in
    lowest terms. It is ``(0, 1, -1)``, so every ``k`` takes ``round``, unless
    ``window`` is a finite positive float whose shortest ``repr`` has at most
    9 decimals.

    ``k * window`` rounds to a double within ``|k| * window * 2**-53`` of the
    exact product, which is within ``|k| * |window - W/D|`` of the 9-place
    grid point ``k * W / D``. While the sum stays under 0.5e-9, ``round``'s
    decimal rounding lands on that grid point and returns its correctly
    rounded double, which is what int / int returns too. ``kmax`` is the last
    ``k`` with the sum under 0.5e-9, worked out in exact fractions (and at
    most 2**53, so ``k`` converts to a float exactly). Up to it
    ``|k * window|`` is under 2**53 * 0.5e-9, so ``|k * W|`` is under 2**53
    too and a float64 ``k * W / D`` in numpy gives the same double.
    """
    if type(window) is not float or not 0 < window < math.inf:
        return 0, 1, -1
    exact = Fraction(repr(window))
    if 10**9 % exact.denominator:
        return 0, 1, -1
    slack = Fraction(1, 2 * 10**9) / (abs(Fraction(window) - exact) + Fraction(window) / 2**53)
    return exact.numerator, exact.denominator, min(math.ceil(slack) - 1, 2**53)


def _window_end(k: int, window: float) -> float:
    """``round(k * window, 9)``, the end of window ``k``: the time of tick ``k``
    at ``window = BSM_PERIOD_S``. Exact integer arithmetic where
    ``_exact_window`` allows it."""
    whole, denom, kmax = _exact_window(window)
    return k * whole / denom if -kmax <= k <= kmax else round(k * window, 9)


def aggregate(
    records: Iterable[BsmRecord], window: float = BSM_PERIOD_S
) -> Iterator[AggregatedSample]:
    """Average a single time-ordered stream into fixed windows.

    Yields one sample per non-empty window, as soon as the window closes.
    Labels are OR-combined so any attacked record taints its window. Raises
    NonMonotonicTimestampError as soon as a timestamp fails to advance, so
    interleaved multi-vehicle input must be split by vehicle first. A window
    so small that ``t / window`` overflows is a DataError naming the record.
    A sample's ``t`` is ``_window_end(k, window)``, inlined.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")

    whole, denom, kmax = _exact_window(window)
    sample = _aggregated_sample
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
        try:
            k = ceil(t / window - 1e-9)
        except OverflowError:
            raise DataError(f"record {idx} (vehicle {vehicle_id!r}, t={t!r}): t / window "
                            f"overflows at window {window!r}") from None
        if k != key:
            if count:
                end = key * whole / denom if -kmax <= key <= kmax else round(key * window, 9)
                yield sample((end, speed_sum / count, accel_sum / count, label))
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
        end = key * whole / denom if -kmax <= key <= kmax else round(key * window, 9)
        yield sample((end, speed_sum / count, accel_sum / count, label))


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
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        raise ValueError("cannot fit a standardizer on an empty training set")
    means, stdevs = [], []
    for j, col in enumerate(rows.T.tolist()):
        mean = math.fsum(col) / len(col)
        var = math.fsum((x - mean) ** 2 for x in col) / len(col)
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


def apply_standardizer(params: StandardizationParams, rows) -> np.ndarray:
    """``(rows - mean) / stdev`` per feature, for one row or a whole ``(rows,
    features)`` array; a width other than the feature count is a ValueError."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1:] != (len(params.mean),):
        raise ValueError(f"expected {len(params.mean)} features, got rows of shape {rows.shape}")
    return (rows - params.mean) / params.stdev


def in_window(t, start: float, end: float):
    """Whether the attack window ``[start, end)`` covers each time ``t`` (a
    float or an array): ``start <= t < end``, both bounds WINDOW_SLACK_S
    earlier. It labels records and times detections alike."""
    return (start - WINDOW_SLACK_S <= t) & (t < end - WINDOW_SLACK_S)


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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write ``header`` and ``rows`` as UTF-8 CSV with LF line ends; returns the row count.

    Floats are written with ``repr``, so they read back bit for bit. Rows are
    written READ_BLOCK_LINES at a time: a plain block (``_plain_text``) as one
    string, any other with ``csv.writer``, so the bytes are those of
    ``csv.writer`` alone. A ValueError raised by ``rows`` is raised after the
    rows before it are written.
    """
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for block in _chunks(rows, READ_BLOCK_LINES):
            text = _plain_text(block)
            if text is None:
                writer.writerows(block)
            else:
                fh.write(text)
            n += len(block)
    return n


#: What makes ``csv.writer`` quote a field here, and CR, which it quotes in
#: some Python versions and not in others.
_QUOTED = ',"\r\n'


def _plain_text(block: list) -> str | None:
    """``block``'s CSV text when it is plain, else None.

    Plain is: every row a tuple of one width, each column's fields of one
    exact type (float, int or str), and no str field empty or holding any
    of ``_QUOTED``. ``csv.writer`` writes such a field as ``repr`` (float)
    or ``str``, which is what ``%r`` and ``%s`` give.
    """
    if not all(map(issubclass, set(map(type, block)), repeat(tuple))):
        return None
    columns = list(zip(*block))
    if set(map(len, block)) != {len(columns)}:
        return None
    spec = []
    for column in columns:
        kinds = set(map(type, column))
        if kinds == {float}:
            spec.append("%r")
        elif kinds == {int}:
            spec.append("%s")
        elif kinds == {str}:
            values = set(column)
            text = "".join(values)
            if "" in values or any(map(text.__contains__, _QUOTED)):
                return None
            spec.append("%s")
        else:
            return None
    try:
        return "".join(map((",".join(spec) + "\n").__mod__, block))
    except ValueError:  # an int past sys.get_int_max_str_digits(): csv.writer raises it
        return None


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    """Lists of up to ``size`` consecutive items. A ValueError raised by
    ``items``, such as a DataError or a UnicodeDecodeError, is raised after a
    list of the items before it."""
    chunk = []
    try:
        for item in items:
            chunk.append(item)
            if len(chunk) == size:
                yield chunk
                chunk = []
    except ValueError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def read_csv(
    path: str, header: Sequence[str]
) -> Iterator[tuple[Sequence[int], Sequence[list[str]]]]:
    """Yield ``(lines, rows)`` blocks of the non-blank rows after an exact
    ``header``: ``rows[i]`` is a row's fields and ``lines[i]`` the file line it
    ends on, past any quoted line breaks.

    The file is read READ_BLOCK_LINES lines at a time. A plain block, with no
    quote, CR, blank line or line as long as ``csv.field_size_limit()`` and
    every line as wide as the header, is split with ``str.split``, which is
    where ``csv.reader`` splits such text. From the first block that is not
    plain on, ``csv.reader`` reads the rest of the file.

    Text that is not UTF-8, an empty file, another header, a row that is not
    as wide as the header and a field longer than ``csv.field_size_limit()``
    are DataErrors naming ``path`` (and the line), raised after a block of the
    rows before them.
    """
    width = len(header)
    limit = csv.field_size_limit()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader, None)
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
            if first is None:
                raise DataError(f"{path}: empty file")
            if tuple(first) != tuple(header):
                raise DataError(f"{path}: bad header {first!r}, expected {','.join(header)}")
            done = reader.line_num  # lines read so far
            blocks = _chunks(fh, READ_BLOCK_LINES)
            for block in blocks:
                text = "".join(block)
                lines = text.split("\n")
                if not lines[-1]:
                    lines.pop()  # after the block's last line break
                rows = list(map(str.split, lines, repeat(",")))
                if ('"' in text or "\r" in text or "" in lines
                        or max(map(len, block)) >= limit or set(map(len, rows)) != {width}):
                    break
                yield range(done + 1, done + 1 + len(rows)), rows
                done += len(rows)
            else:
                return
            # This block is not plain: csv.reader reads it and the rest.
            rest = _csv_rows(path, width, done, chain(block, chain.from_iterable(blocks)))
            for chunk in _chunks(rest, READ_BLOCK_LINES):
                numbers, rows = zip(*chunk)
                yield numbers, rows
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _csv_rows(
    path: str, width: int, done: int, lines: Iterable[str]
) -> Iterator[tuple[int, list[str]]]:
    """``(line, fields)`` for each non-blank row of ``lines``, the lines of
    ``path`` after its first ``done``, read with ``csv.reader``."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if len(row) == width:
                yield done + reader.line_num, row
            elif row:
                raise DataError(f"{path}:{done + reader.line_num}: expected {width} "
                                f"columns, got {len(row)}")
    except csv.Error as exc:
        raise DataError(f"{path}:{done + reader.line_num}: {exc}") from None


def plain_numbers(text: str) -> bool:
    """Whether ``text`` holds none of what ``float()`` and ``int()`` accept in a
    number beyond ``write_csv``'s ``repr`` floats and ints: an underscore,
    whitespace or a non-ASCII character, such as an Arabic-Indic digit."""
    return text.isascii() and not any(map(text.__contains__, "_" + string.whitespace))


def check_plain_numbers(
    header: Sequence[str], columns: Sequence[Sequence[str]], numbers: Iterable[int]
) -> None:
    """A ValueError for the first of the ``numbers`` columns (indices into
    ``header`` and ``columns``) whose text is not ``plain_numbers``; it quotes
    the column's first field, the bad one when the column holds one field."""
    for i in numbers:
        if not plain_numbers("".join(columns[i])):
            raise ValueError(f"{header[i]} {columns[i][0]!r} holds whitespace, "
                             f"'_' or a non-ASCII character")


def read_checked(
    path: str, header: Sequence[str], convert: Callable[[Sequence[list[str]]], Iterable]
) -> Iterator:
    """The items ``convert`` makes of each ``read_csv`` block of ``path``.

    ``convert`` converts and checks a list of rows a column at a time and
    raises a ValueError for the first check that fails, which is exact when
    the list holds one row. A block that fails is converted again one row at
    a time: the items of the rows before the first bad one are yielded, then
    its error is raised as a DataError naming ``path`` and the row's line.
    """
    for lines, rows in read_csv(path, header):
        try:
            items = convert(rows)
        except ValueError:
            for lineno, row in zip(lines, rows):
                try:
                    items = convert([row])
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                yield from items
        else:
            yield from items


def write_bsm_csv(path: str, records: Iterable[BsmRecord]) -> int:
    """Write records in the canonical CSV schema. Returns the row count."""
    return write_csv(path, CSV_HEADER, records)


def read_bsm_csv(path: str) -> Iterator[BsmRecord]:
    """Stream records from a canonical CSV, validating encoding, schema and labels
    (``read_checked`` with ``_bsm_block``)."""
    return read_checked(path, CSV_HEADER, _bsm_block)


#: BsmRecord from a tuple of its fields, without the Python-level ``__new__``.
_bsm_record = partial(tuple.__new__, BsmRecord)


def _bsm_block(rows: Sequence[list[str]]) -> Iterator[BsmRecord]:
    """The records of ``rows``, converted and checked a column at a time. Each
    row's checks run in this order: the numbers convert, t, speed and accel are
    finite and within MAX_FIELD_MAGNITUDE, the label is 0 or 1, the speed is not
    negative, and the numbers' text is ``plain_numbers``."""
    columns = list(zip(*rows))
    t, vehicle_id, speed, accel, label = columns
    t, speed, accel = list(map(float, t)), list(map(float, speed)), list(map(float, accel))
    label = list(map(int, label))
    big = MAX_FIELD_MAGNITUDE
    if not all(map(big.__ge__, map(abs, chain(t, speed, accel)))):
        raise ValueError(f"t, speed or accel is non-finite or beyond {big:g} in {rows[0]!r}")
    if not set(label) <= {NO_ATTACK, ATTACK}:
        raise ValueError(f"label must be 0 or 1, got {rows[0][4]!r}")
    if min(speed) < 0:
        raise ValueError(f"negative speed {speed[0]!r}")
    check_plain_numbers(CSV_HEADER, columns, (0, 2, 3, 4))
    return map(_bsm_record, zip(t, vehicle_id, speed, accel, label))
