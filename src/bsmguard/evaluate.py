"""Detection quality metrics, ROC/AUROC, latency, and per-sample timing.

Attack is the positive class throughout. Zero-denominator rates report 0.0
and record a flag instead of NaN so reports stay machine-readable.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from bsmguard.bsm import in_window, write_csv

REPORT_VERSION = 1

#: Samples dropped from the front of a timing run so interpreter and cache
#: warm-up do not skew the statistics.
TIMING_WARMUP_SAMPLES = 100


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(labels: Sequence[int], predictions: Sequence[int]) -> ConfusionMatrix:
    """Standard 2x2 table with attack (1) as the positive class."""
    if len(labels) != len(predictions):
        raise ValueError(
            f"length mismatch: {len(labels)} labels vs {len(predictions)} predictions"
        )
    if not labels:
        raise ValueError("cannot evaluate an empty sample set")
    tp = tn = fp = fn = 0
    for truth, pred in zip(labels, predictions):
        if truth == 1 and pred == 1:
            tp += 1
        elif truth == 0 and pred == 0:
            tn += 1
        elif truth == 0 and pred == 1:
            fp += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


@dataclass(frozen=True)
class Metrics:
    """Accuracy plus per-class and macro precision/detection rates.

    ``detection`` is the recall TP/(TP+FN). Macro values are unweighted
    means of the two per-class values. ``zero_denominator_flags`` names each
    rate whose denominator was zero (the rate itself reports 0.0).
    """

    accuracy: float
    precision_attack: float
    precision_clean: float
    precision_macro: float
    detection_attack: float
    detection_clean: float
    detection_macro: float
    zero_denominator_flags: tuple[str, ...]


def _rate(num: int, den: int, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def metrics(cm: ConfusionMatrix) -> Metrics:
    flags: list[str] = []
    accuracy = (cm.tp + cm.tn) / cm.total
    precision_attack = _rate(cm.tp, cm.tp + cm.fp, "precision_attack", flags)
    precision_clean = _rate(cm.tn, cm.tn + cm.fn, "precision_clean", flags)
    detection_attack = _rate(cm.tp, cm.tp + cm.fn, "detection_attack", flags)
    detection_clean = _rate(cm.tn, cm.tn + cm.fp, "detection_clean", flags)
    return Metrics(
        accuracy=accuracy,
        precision_attack=precision_attack,
        precision_clean=precision_clean,
        precision_macro=(precision_attack + precision_clean) / 2.0,
        detection_attack=detection_attack,
        detection_clean=detection_clean,
        detection_macro=(detection_attack + detection_clean) / 2.0,
        zero_denominator_flags=tuple(flags),
    )


def _roc_columns(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranking ``roc_counts`` and ``auroc`` share: for each distinct score,
    in descending order, the index of its first occurrence and the cumulative
    fp and tp through it, as int64 arrays.

    One stable ``argsort`` of the negated scores ranks them, keeping equal
    scores in input order as Python's reverse sort does; tp counts label-1
    rows. The sort only compares values, so nothing here depends on float
    rounding. A length mismatch, an empty input or a missing class is a
    ValueError.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    hits = np.asarray(labels) == 1
    if hits.all() or not hits.any():
        raise ValueError("ROC and AUROC need both classes present")
    values = np.asarray(scores, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranked = values[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))  # each group's last index
    tp = np.cumsum(hits[order])[ends]
    return order[np.append(0, ends[:-1] + 1)], ends + 1 - tp, tp


def roc_counts(scores: Sequence[float], labels: Sequence[int]) -> list[tuple[float, int, int]]:
    """Cumulative (threshold, fp, tp) rows for predict-attack-when-score >= threshold:
    the ``inf`` endpoint, then one row per distinct score in descending order.

    The rows are ``_roc_columns``' ranking, with fp and tp as Python ints.
    Each row's threshold is its group's first score in that order, so a
    ``-0.0`` that comes first stays ``-0.0``. The last row holds the class
    totals (n_neg, n_pos). A caller that needs both the ROC points and the
    AUROC hands these rows to each, so the scores are sorted once.
    """
    first, fp, tp = _roc_columns(scores, labels)
    thresholds = map(scores.__getitem__, first.tolist())
    return [(math.inf, 0, 0), *zip(thresholds, fp.tolist(), tp.tolist())]


def auroc(
    scores: Sequence[float], labels: Sequence[int],
    counts: list[tuple[float, int, int]] | None = None,
) -> float:
    """Probability a random attack sample outscores a random clean one,
    counting ties as half. Equals the trapezoidal area under the ROC curve,
    summed exactly in integers over cumulative fp and tp: those of
    ``counts``, the scores' ``roc_counts`` rows, or, when it is None, those
    of ``_roc_columns``, which builds no row list.
    """
    if counts is None:
        _, fp, tp = _roc_columns(scores, labels)
    else:
        fp, tp = (np.fromiter(map(itemgetter(i), counts), np.int64, len(counts)) for i in (1, 2))
    # Twice each trapezoid, (fp_i - fp_i-1) * (tp_i + tp_i-1), with fp and tp
    # 0 before the first row: the int64 sum, at most 2 * n_neg * n_pos, is exact.
    twice = int(np.dot(np.diff(fp, prepend=0), 2 * tp - np.diff(tp, prepend=0)))
    return twice / 2 / (int(tp[-1]) * int(fp[-1]))


def roc_points(counts: list[tuple[float, int, int]]) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) rows for predict-attack-when-score >= threshold,
    from the scores' ``roc_counts`` rows: the all-negative ``inf`` endpoint,
    then one row per distinct score in ascending (fpr, tpr) order."""
    _, n_neg, n_pos = counts[-1]
    return [(thr, fp / n_neg, tp / n_pos) for thr, fp, tp in counts]


@dataclass(frozen=True)
class LatencyStats:
    """First-detection delays per attack window, in stream seconds.

    ``mean`` and ``max`` are ``nan`` when no window was detected: there is
    no delay to summarize, and 0.0 would read as an instant detection.
    """

    delays: tuple[float, ...]  # one entry per detected window
    undetected: int

    @property
    def detected(self) -> int:
        return len(self.delays)

    @property
    def mean(self) -> float:
        return float(statistics.fmean(self.delays)) if self.delays else math.nan

    @property
    def max(self) -> float:
        return max(self.delays) if self.delays else math.nan


def detection_latency(
    times: Sequence[float],
    attack_flags: Sequence[int],
    windows: Sequence[tuple[float, float]],
) -> LatencyStats:
    """Delay from each window's start to its first in-window attack flag.

    A flag is in a window when ``bsm.in_window`` says its time is. Windows
    with no in-window flag count as undetected and stay out of the mean/max.
    """
    if len(times) != len(attack_flags):
        raise ValueError("times and flags must have equal length")
    t = np.asarray(times, dtype=float)
    flagged = np.asarray(attack_flags, dtype=bool)
    delays = []
    for start, end in windows:
        hits = np.flatnonzero(flagged & in_window(t, start, end))
        if hits.size:
            delays.append(t[hits[0]].item() - start)
    return LatencyStats(delays=tuple(delays), undetected=len(windows) - len(delays))


@dataclass(frozen=True)
class TimingStats:
    """Per-sample wall-clock stats in milliseconds over the measured tail."""

    n_measured: int
    mean_ms: float
    median_ms: float
    p99_ms: float


def timed(step: Callable, durations_ns: list[int]) -> Callable:
    """``step``, appending the wall-clock time of each call to ``durations_ns``.

    Timing runs should be single-threaded and pinned to one stream; wrap a
    bound observe/predict callable.
    """
    clock = time.perf_counter_ns

    def call(item):
        start = clock()
        result = step(item)
        durations_ns.append(clock() - start)
        return result

    return call


def timing_stats(durations_ns: Sequence[int]) -> TimingStats:
    """Stats of the calls ``timed`` recorded, excluding the first ``TIMING_WARMUP_SAMPLES``."""
    ordered = sorted(dt / 1e6 for dt in durations_ns[TIMING_WARMUP_SAMPLES:])
    if not ordered:
        raise ValueError(f"stream must be longer than the {TIMING_WARMUP_SAMPLES}-sample warm-up")
    p99_idx = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
    return TimingStats(
        n_measured=len(ordered),
        mean_ms=float(statistics.fmean(ordered)),
        median_ms=float(statistics.median(ordered)),
        p99_ms=float(ordered[p99_idx]),
    )


@dataclass
class EvalReport:
    """Everything one evaluation run produced, serializable as flat text."""

    subject: str  # detector or model family name
    cm: ConfusionMatrix
    quality: Metrics
    auroc_value: float | None = None
    latency: LatencyStats | None = None
    extra: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"report_version = {REPORT_VERSION}",
            f"subject = {self.subject}",
            f"samples = {self.cm.total}",
            f"tp = {self.cm.tp}",
            f"tn = {self.cm.tn}",
            f"fp = {self.cm.fp}",
            f"fn = {self.cm.fn}",
            f"accuracy = {self.quality.accuracy!r}",
            f"precision_attack = {self.quality.precision_attack!r}",
            f"precision_clean = {self.quality.precision_clean!r}",
            f"precision_macro = {self.quality.precision_macro!r}",
            f"detection_attack = {self.quality.detection_attack!r}",
            f"detection_clean = {self.quality.detection_clean!r}",
            f"detection_macro = {self.quality.detection_macro!r}",
            "zero_denominator_flags = "
            + (",".join(self.quality.zero_denominator_flags) or "none"),
        ]
        if self.auroc_value is not None:
            lines.append(f"auroc = {self.auroc_value!r}")
        if self.latency is not None:
            lines.append(f"latency_windows_detected = {self.latency.detected}")
            lines.append(f"latency_windows_undetected = {self.latency.undetected}")
            lines.append(f"latency_mean_s = {self.latency.mean!r}")
            lines.append(f"latency_max_s = {self.latency.max!r}")
        for key in sorted(self.extra):
            lines.append(f"{key} = {self.extra[key]}")
        return "\n".join(lines) + "\n"


def write_roc_csv(path: str, points: Sequence[tuple[float, float, float]]) -> None:
    write_csv(path, ("threshold", "fpr", "tpr"), points)
