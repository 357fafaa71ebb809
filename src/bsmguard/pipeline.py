"""Wiring between streams, detectors, baselines, and reports.

Detection is streaming: aggregated samples flow one at a time through the
selected input transform into the detector, and memory stays bounded no
matter how long the stream is. Standardized inputs use a first pass that
only keeps running sums.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from bsmguard.bsm import (
    AggregatedSample,
    BsmRecord,
    DataError,
    StandardizationParams,
    TransformWindow,
    aggregate,
    apply_standardizer,
    fit_standardizer,
)
from bsmguard.config import DetectorSettings
from bsmguard.detectors import DETECTORS, WARMUP_DECISION, DetectorDecision, make_detector
from bsmguard.evaluate import EvalReport, auroc, confusion, detection_latency, metrics
from bsmguard.ml import (
    FAMILIES,
    LABEL_CUT,
    GridSearchResult,
    expand_grid,
    fit_family,
    grid_search,
    stratified_split,
)

DECISIONS_HEADER = ("t", "score", "attack", "warmed_up")


def welford_feature_stats(samples: Iterable[AggregatedSample]) -> StandardizationParams:
    """One streaming pass over (avg_speed, avg_accel) with O(1) memory."""
    count = 0
    mean = [0.0, 0.0]
    m2 = [0.0, 0.0]
    for s in samples:
        count += 1
        for j, x in enumerate((s.avg_speed, s.avg_accel)):
            delta = x - mean[j]
            mean[j] += delta / count
            m2[j] += delta * (x - mean[j])
    if count == 0:
        raise DataError("stream produced no aggregated samples")
    stdev = tuple(max(math.sqrt(m / count), 1e-12) for m in m2)
    return StandardizationParams(mean=tuple(mean), stdev=stdev)


def feature_stream(
    samples: Iterable[AggregatedSample],
    mode: str,
    std: StandardizationParams | None = None,
) -> Iterator[tuple[AggregatedSample, float | None]]:
    """Turn each sample into the detector input its input mode selects.

    Yields ``(sample, value)``: the raw average speed, the standardized
    average speed (requires ``std``), or the rolling control-variate
    transform, whose value is None while its window fills. Every detector
    input, for decisions and for timing alike, comes from here.
    """
    if mode == "speed":
        for sample in samples:
            yield sample, sample.avg_speed
    elif mode == "standardized":
        if std is None:
            raise ValueError("standardized input mode needs standardization parameters")
        for sample in samples:
            yield sample, apply_standardizer(std, (sample.avg_speed, sample.avg_accel))[0]
    else:
        window = TransformWindow()
        for sample in samples:
            yield sample, window.push(sample.avg_speed, sample.avg_accel)


def stream_std_params(
    records_factory: Callable[[], Iterable[BsmRecord]], mode: str, window: float
) -> StandardizationParams | None:
    """Feature statistics for the standardized mode (one pass), else None."""
    if mode != "standardized":
        return None
    return welford_feature_stats(aggregate(records_factory(), window))


def run_detection(
    samples: Iterable[AggregatedSample],
    detector_name: str,
    settings: DetectorSettings,
    std_params: StandardizationParams | None = None,
) -> Iterator[tuple[AggregatedSample, DetectorDecision]]:
    """Feed a sample stream through one detector; yields one decision per sample.

    The detector's configured input mode selects what it observes (see
    ``feature_stream``). Samples consumed while the transform window fills
    get a warm-up decision. A value the detector cannot score under its
    config (its arithmetic overflows, say) is a DataError naming the sample.
    """
    detector = make_detector(detector_name, settings.config(detector_name))
    mode = settings.input_mode(detector_name)
    for sample, value in feature_stream(samples, mode, std_params):
        if value is None:
            yield sample, WARMUP_DECISION
            continue
        try:
            decision = detector.observe(value)
        except (ArithmeticError, ValueError) as exc:
            raise DataError(
                f"{detector_name} cannot score the sample at t={sample.t!r} "
                f"with its config: {exc}"
            ) from None
        yield sample, decision


def detect_records(
    records_factory: Callable[[], Iterable[BsmRecord]],
    detector_name: str,
    settings: DetectorSettings,
    window: float,
    std_params: StandardizationParams | None,
) -> Iterator[tuple[AggregatedSample, DetectorDecision]]:
    """Aggregate and detect over the records ``records_factory`` opens.

    ``std_params`` holds the standardized input mode's feature statistics
    (``stream_std_params``, which takes a pass of its own); other modes pass
    None.
    """
    return run_detection(
        aggregate(records_factory(), window), detector_name, settings, std_params
    )


@contextlib.contextmanager
def staged_outputs() -> Iterator[Callable[[str], str]]:
    """Make a command's output files appear all together or not at all.

    Inside the block, ``stage(path)`` names the file to write ``path``'s
    bytes to: a temporary sibling of the file ``path`` resolves to. When the
    block ends without error each staged file replaces its target, and a
    symlink keeps pointing at the replaced file. When the block raises, the
    temporary files are removed and every target stays as it was. A path
    that exists but is not a regular file (a pipe, or a device such as
    /dev/stdout) has nothing to replace and is written in place.
    """
    staged: list[tuple[str, str]] = []

    def stage(path: str) -> str:
        if os.path.exists(path) and not os.path.isfile(path):
            return path
        target = os.path.realpath(path)
        staged.append((f"{target}.{os.getpid()}.{len(staged)}.tmp", target))
        return staged[-1][0]

    try:
        yield stage
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def write_decisions_csv(
    path: str, rows: Iterable[tuple[AggregatedSample, DetectorDecision]]
) -> int:
    """Write one CSV row per decision; returns the number of rows."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DECISIONS_HEADER)
        for sample, (attack, score, warmed_up) in rows:
            writer.writerow((repr(sample.t), repr(score), int(attack), int(warmed_up)))
            n += 1
    return n


class DecisionRow(NamedTuple):
    """One row of a decisions CSV."""

    t: float
    score: float
    attack: int
    warmed_up: int


def read_decisions_csv(path: str) -> list[DecisionRow]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != DECISIONS_HEADER:
        raise DataError(f"{path}: bad decisions header {header!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(DECISIONS_HEADER):
            raise DataError(
                f"{path}:{lineno}: expected {len(DECISIONS_HEADER)} columns, got {len(row)}"
            )
        t, score, attack, warmed_up = row
        try:
            t = float(t)
            score = float(score)
            attack = int(attack)
            warmed_up = int(warmed_up)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(t) and math.isfinite(score)):
            raise DataError(f"{path}:{lineno}: non-finite t or score in {row!r}")
        if attack not in (0, 1) or warmed_up not in (0, 1):
            raise DataError(f"{path}:{lineno}: attack and warmed_up must be 0 or 1 in {row!r}")
        rows.append(DecisionRow(t, score, attack, warmed_up))
    return rows


def scored_pairs(
    detector_name: str | None,
    samples: Sequence[AggregatedSample],
    decisions: Sequence[DecisionRow],
    exclude_warmup: bool = False,
) -> tuple[list[int], list[int], list[float]]:
    """The (labels, flags, oriented scores) of the decisions a report and its ROC score.

    Warm-up decisions count unless ``exclude_warmup``. Scores take the detector
    table's sign (1 for an unnamed detector), so larger means more suspicious.
    """
    if len(samples) != len(decisions):
        raise DataError(
            f"decision count {len(decisions)} does not match sample count {len(samples)}"
        )
    pairs = [(s, d) for s, d in zip(samples, decisions) if d.warmed_up or not exclude_warmup]
    if not pairs:
        raise DataError("all decisions fell inside warm-up")
    kind = DETECTORS.get(detector_name)
    orient = 1.0 if kind is None else kind.orientation
    return (
        [s.label for s, _ in pairs],
        [d.attack for _, d in pairs],
        [orient * d.score for _, d in pairs],
    )


def scored_report(
    subject: str, labels: list[int], flags: list[int], scores: list[float], **fields
) -> EvalReport:
    """Confusion, metrics and, when both classes are present, AUROC."""
    cm = confusion(labels, flags)
    auc = auroc(scores, labels) if 0 < sum(labels) < len(labels) else None
    return EvalReport(subject=subject, cm=cm, quality=metrics(cm), auroc_value=auc, **fields)


def detector_report(
    detector_name: str,
    samples: Sequence[AggregatedSample],
    decisions: Sequence[DecisionRow],
    windows: Sequence[tuple[float, float]] = (),
    exclude_warmup: bool = False,
) -> EvalReport:
    """Score the decisions ``scored_pairs`` selects against their ground-truth
    labels; latency covers every decision."""
    labels, flags, scores = scored_pairs(detector_name, samples, decisions, exclude_warmup)
    latency = None
    if windows:
        latency = detection_latency(
            [d.t for d in decisions], [d.attack for d in decisions], windows
        )
    return scored_report(
        detector_name, labels, flags, scores,
        latency=latency, extra={"excluded_warmup": int(exclude_warmup)},
    )


# ---------------------------------------------------------------------------
# Supervised baseline pipeline
# ---------------------------------------------------------------------------


def samples_to_dataset(samples: Sequence[AggregatedSample]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([[s.avg_speed, s.avg_accel] for s in samples], dtype=float)
    y = np.array([s.label for s in samples], dtype=int)
    return X, y


def model_dataset(
    samples: Sequence[AggregatedSample],
    seed: int,
    test_fraction: float,
    std: StandardizationParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StandardizationParams]:
    """The one path from labeled samples to model input.

    Returns ``(X_train, y_train, X_test, y_test, std)``: the split of
    ``stratified_split(y, test_fraction, seed)``, every row standardized with
    ``std``, or with a standardizer fitted on the training split when ``std``
    is None (training; evaluation passes the saved one).
    """
    X_raw, y = samples_to_dataset(samples)
    if len(np.unique(y)) < 2:
        raise DataError("the train/test split needs both classes present in the data")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    if std is None:
        std = fit_standardizer(X_raw[train_idx])
    X = np.array([apply_standardizer(std, row) for row in X_raw])
    return X[train_idx], y[train_idx], X[test_idx], y[test_idx], std


@dataclass
class TrainOutcome:
    model: object  # FittedModel
    standardizer: StandardizationParams
    search: GridSearchResult
    report: EvalReport


def train_and_evaluate(
    samples: Sequence[AggregatedSample],
    family: str,
    seed: int,
    grid: dict[str, list] | None = None,
    folds: int = 5,
    test_fraction: float = 0.2,
) -> TrainOutcome:
    """The full supervised pipeline on one labeled sample set.

    Stratified 80/20 split, standardizer fitted on the training split only,
    grid search by 5-fold CV with per-fold balancing, a final fit on the
    whole training split with the winning cell, and a report on the held-out
    test split.
    """
    X_train, y_train, X_test, y_test, std = model_dataset(samples, seed, test_fraction)

    cells = expand_grid(grid if grid is not None else FAMILIES[family].grid)
    search = grid_search(family, cells, X_train, y_train, seed=seed, folds=folds)

    # Sub-seed for the final fit, disjoint from the (seed, cell, fold) tree
    # the grid search spawns.
    final_seed = int(np.random.SeedSequence((seed, 0xF17A1)).generate_state(1)[0])
    model = fit_family(family, search.best_params, X_train, y_train, final_seed)

    report = evaluate_model(model, family, X_test, y_test)
    return TrainOutcome(model=model, standardizer=std, search=search, report=report)


def evaluate_model(model, family: str, X_test: np.ndarray, y_test: np.ndarray) -> EvalReport:
    scores = [float(v) for v in model.predict_scores(X_test)]
    flags = [int(v > LABEL_CUT) for v in scores]
    return scored_report(family, list(map(int, y_test)), flags, scores)
