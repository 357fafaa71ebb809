"""Detection quality metrics, ROC/AUROC, latency, and per-sample timing.

Attack is the positive class throughout. Zero-denominator rates report 0.0
and record a flag instead of NaN so reports stay machine-readable.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

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


def _roc_counts(
    scores: Sequence[float], labels: Sequence[int]
) -> Iterator[tuple[float, int, int]]:
    """Cumulative (threshold, fp, tp) for predict-attack-when-score >= threshold:
    the ``inf`` endpoint, then one row per distinct score from a stable
    descending sort, spelled as its first occurrence. The last row holds
    the class totals (n_neg, n_pos); a missing class raises after it."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    yield math.inf, 0, 0
    fp = tp = 0
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    for thr, group in groupby(ranked, key=scores.__getitem__):
        hits = [labels[i] for i in group]
        tp += hits.count(1)
        fp += len(hits) - hits.count(1)
        yield thr, fp, tp
    if fp == 0 or tp == 0:
        raise ValueError("ROC and AUROC need both classes present")


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random attack sample outscores a random clean one,
    counting ties as half. Equals the trapezoidal area under the ROC curve,
    summed exactly in integer counts.
    """
    twice = fp = tp = 0
    for _, fp_next, tp_next in _roc_counts(scores, labels):
        twice += (fp_next - fp) * (tp_next + tp)
        fp, tp = fp_next, tp_next
    return twice / 2 / (tp * fp)


def roc_points(
    scores: Sequence[float], labels: Sequence[int]
) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) rows for predict-attack-when-score >= threshold:
    the all-negative ``inf`` endpoint, then one row per distinct score in
    ascending (fpr, tpr) order."""
    counts = list(_roc_counts(scores, labels))
    _, n_neg, n_pos = counts[-1]
    return [(thr, fp / n_neg, tp / n_pos) for thr, fp, tp in counts]


@dataclass(frozen=True)
class LatencyStats:
    """First-detection delays per attack window, in stream seconds."""

    delays: tuple[float, ...]  # one entry per detected window
    undetected: int

    @property
    def detected(self) -> int:
        return len(self.delays)

    @property
    def mean(self) -> float:
        return float(statistics.fmean(self.delays)) if self.delays else 0.0

    @property
    def max(self) -> float:
        return max(self.delays) if self.delays else 0.0


def detection_latency(
    times: Sequence[float],
    attack_flags: Sequence[int],
    windows: Sequence[tuple[float, float]],
) -> LatencyStats:
    """Delay from each window's start to its first in-window attack flag.

    Windows with no in-window flag count as undetected and stay out of the
    mean/max.
    """
    if len(times) != len(attack_flags):
        raise ValueError("times and flags must have equal length")
    delays = []
    undetected = 0
    for start, end in windows:
        first = None
        for t, flag in zip(times, attack_flags):
            if flag and start - 1e-9 <= t < end - 1e-9:
                first = t
                break
        if first is None:
            undetected += 1
        else:
            delays.append(first - start)
    return LatencyStats(delays=tuple(delays), undetected=undetected)


@dataclass(frozen=True)
class TimingStats:
    """Per-sample wall-clock stats in milliseconds over the measured tail."""

    n_measured: int
    mean_ms: float
    median_ms: float
    p99_ms: float


def time_inference(step: Callable[[object], object], stream: Iterable[object]) -> TimingStats:
    """Time ``step`` per element, excluding the first ``TIMING_WARMUP_SAMPLES``.

    Timing runs should be single-threaded and pinned to one stream; the
    caller passes a bound observe/predict callable.
    """
    samples_ms = []
    for i, item in enumerate(stream):
        t0 = time.perf_counter_ns()
        step(item)
        dt = time.perf_counter_ns() - t0
        if i >= TIMING_WARMUP_SAMPLES:
            samples_ms.append(dt / 1e6)
    if not samples_ms:
        raise ValueError(f"stream must be longer than the {TIMING_WARMUP_SAMPLES}-sample warm-up")
    ordered = sorted(samples_ms)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("threshold,fpr,tpr\n")
        for thr, fpr, tpr in points:
            fh.write(f"{thr!r},{fpr!r},{tpr!r}\n")
