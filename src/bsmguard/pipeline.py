"""Wiring between streams, detectors, baselines, and reports.

Detection reads its records once: aggregated samples flow one at a time
through the selected input transform into the detector. The speed and
transform input modes hold O(1) memory however long the stream is; the
standardized mode holds one list of its samples, as its statistics must be
known before its first value. Decisions files are read back with
``bsm.read_checked``, whose block and row checks are one function.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from operator import itemgetter

import numpy as np

from bsmguard.bsm import (
    STDEV_FLOOR,
    AggregatedSample,
    BsmRecord,
    DataError,
    StandardizationParams,
    TransformWindow,
    aggregate,
    apply_standardizer,
    check_plain_numbers,
    fit_standardizer,
    read_checked,
    write_csv,
)
from bsmguard.config import DetectorSettings
from bsmguard.detectors import DETECTORS, WARMUP_DECISION, DetectorDecision, make_detector
from bsmguard.evaluate import EvalReport, auroc, confusion, detection_latency, metrics, timed
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
    """One streaming pass over ``avg_speed``, the one feature the standardized
    input mode reads, with O(1) memory."""
    count = 0
    mean = m2 = 0.0
    for s in samples:
        count += 1
        delta = s.avg_speed - mean
        mean += delta / count
        m2 += delta * (s.avg_speed - mean)
    if count == 0:
        raise DataError("stream produced no aggregated samples")
    return StandardizationParams(mean=(mean,), stdev=(max(math.sqrt(m2 / count), STDEV_FLOOR),))


def feature_stream(
    samples: Iterable[AggregatedSample], mode: str
) -> Iterator[tuple[AggregatedSample, float | None]]:
    """Turn each sample into the detector input its input mode selects.

    Yields ``(sample, value)``: the raw average speed, the average speed
    standardized with the stream's own mean and stdev, or the rolling
    control-variate transform, whose value is None while its window fills.
    The standardized mode takes ``samples`` into a list, for its statistics
    (``welford_feature_stats``) come before its first value; the other modes
    stream. Every detector input comes from here.
    """
    if mode == "speed":
        for sample in samples:
            yield sample, sample.avg_speed
    elif mode == "standardized":
        samples = list(samples)
        std = welford_feature_stats(samples)
        (mean,), (stdev,) = std.mean, std.stdev
        for sample in samples:
            yield sample, (sample.avg_speed - mean) / stdev
    else:
        window = TransformWindow()
        for sample in samples:
            yield sample, window.push(sample.avg_speed, sample.avg_accel)


def run_detection(
    samples: Iterable[AggregatedSample],
    detector_name: str,
    settings: DetectorSettings,
    timings: list[int] | None = None,
) -> Iterator[tuple[AggregatedSample, DetectorDecision]]:
    """Feed a sample stream through one detector; yields one decision per sample.

    The detector's configured input mode selects what it observes (see
    ``feature_stream``). Samples consumed while the transform window fills
    get a warm-up decision. A value the detector cannot score under its
    config (its arithmetic overflows, say) is a DataError naming the sample.
    With ``timings``, each observe's wall-clock time is appended to it
    (``evaluate.timed``).
    """
    detector = make_detector(detector_name, settings.config(detector_name))
    observe = detector.observe if timings is None else timed(detector.observe, timings)
    mode = settings.input_mode(detector_name)
    for sample, value in feature_stream(samples, mode):
        if value is None:
            yield sample, WARMUP_DECISION
            continue
        try:
            decision = observe(value)
        except (ArithmeticError, ValueError) as exc:
            raise DataError(
                f"{detector_name} cannot score the sample at t={sample.t!r} "
                f"with its config: {exc}"
            ) from None
        yield sample, decision


def detect_records(
    records: Iterable[BsmRecord],
    detector_name: str,
    settings: DetectorSettings,
    window: float,
    timings: list[int] | None = None,
) -> Iterator[tuple[AggregatedSample, DetectorDecision]]:
    """Aggregate ``records`` and detect over their samples, reading them once."""
    return run_detection(aggregate(records, window), detector_name, settings, timings)


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
    return write_csv(path, DECISIONS_HEADER, ((sample.t, score, int(attack), int(warmed_up))
                                              for sample, (attack, score, warmed_up) in rows))


#: DetectorDecision from a tuple of its fields, without the Python-level ``__new__``.
_decision = partial(tuple.__new__, DetectorDecision)


def read_decisions_csv(
    path: str, samples: Sequence[AggregatedSample]
) -> list[tuple[AggregatedSample, DetectorDecision]]:
    """Join a decisions CSV to the samples ``detect`` wrote it from: row i to sample i.

    Returns the ``(sample, decision)`` pairs ``run_detection`` yielded, each
    decision a ``DetectorDecision`` with bool flags. The rows are read with
    ``bsm.read_checked`` and checked a block at a time, each check over a
    whole column, in this order: the numbers convert (``float`` for t and
    score, ``int`` for each distinct flag text), t and score are finite (one
    numpy check over both), attack and warmed_up are 0 or 1, t is exactly its
    sample's t (``detect`` writes ``repr(t)``), and the numbers' text is
    ``plain_numbers``. A failed check or a row count other than the sample
    count is a DataError naming ``path``, and the line where there is one.
    """
    joined = 0  # rows joined to their samples so far

    def join(rows):
        nonlocal joined
        columns = list(zip(*rows))
        t, score, attack, warmed_up = columns
        t, score = list(map(float, t)), list(map(float, score))
        # int() parses each distinct flag text once, in column order.
        flags = {text: int(text) for text in dict.fromkeys(attack + warmed_up)}
        if not np.isfinite([t, score]).all():
            raise ValueError(f"non-finite t or score in {rows[0]!r}")
        if not set(flags.values()) <= {0, 1}:
            raise ValueError(f"attack and warmed_up must be 0 or 1 in {rows[0]!r}")
        # A row past the last sample joins None, so the count check below fails.
        block = samples[joined:joined + len(rows)]
        sample_t = list(map(itemgetter(0), block))
        if t[:len(sample_t)] != sample_t:
            raise ValueError(f"t={t[0]!r} does not match its sample's t={sample_t[0]!r}")
        check_plain_numbers(DECISIONS_HEADER, columns, range(len(columns)))
        joined += len(rows)
        flag = {text: value == 1 for text, value in flags.items()}.__getitem__
        return zip_longest(block, map(_decision, zip(map(flag, attack), score,
                                                      map(flag, warmed_up))))

    pairs = list(read_checked(path, DECISIONS_HEADER, join))
    if len(pairs) != len(samples):
        raise DataError(
            f"{path}: decision count {len(pairs)} does not match sample count {len(samples)}"
        )
    return pairs


def scored_pairs(
    detector_name: str | None,
    pairs: Sequence[tuple[AggregatedSample, DetectorDecision]],
    exclude_warmup: bool = False,
) -> tuple[list[int], list[int], list[float]]:
    """The (labels, flags, oriented scores) of the pairs a report and its ROC score,
    built in one pass over the pairs.

    Warm-up decisions count unless ``exclude_warmup``. Scores take the detector
    table's sign (1 for an unnamed detector), so larger means more suspicious.
    """
    kind = DETECTORS.get(detector_name)
    orient = 1.0 if kind is None else kind.orientation
    labels, flags, scores = [], [], []
    for sample, (attack, score, warmed_up) in pairs:
        if warmed_up or not exclude_warmup:
            labels.append(sample.label)
            flags.append(attack)
            scores.append(orient * score)
    if not labels:
        raise DataError("all decisions fell inside warm-up")
    return labels, flags, scores


def scored_report(
    subject: str, labels: list[int], flags: list[int], scores: list[float],
    counts: list[tuple[float, int, int]] | None = None, **fields
) -> EvalReport:
    """Confusion, metrics and, when both classes are present, AUROC (from
    ``counts``, the scores' ``roc_counts``, when the caller has them)."""
    cm = confusion(labels, flags)
    auc = auroc(scores, labels, counts) if 0 < sum(labels) < len(labels) else None
    return EvalReport(subject=subject, cm=cm, quality=metrics(cm), auroc_value=auc, **fields)


def detector_report(
    detector_name: str,
    pairs: Sequence[tuple[AggregatedSample, DetectorDecision]],
    windows: Sequence[tuple[float, float]] = (),
    exclude_warmup: bool = False,
    counts: list[tuple[float, int, int]] | None = None,
    scored: tuple[list[int], list[int], list[float]] | None = None,
) -> EvalReport:
    """Score the ``(sample, decision)`` pairs ``scored_pairs`` selects against
    their samples' labels; latency covers every pair, timed by the samples' t.
    ``scored``, when given, is ``scored_pairs``' result, and ``counts`` its ``roc_counts``."""
    labels, flags, scores = scored or scored_pairs(detector_name, pairs, exclude_warmup)
    latency = None
    if windows:
        latency = detection_latency([s.t for s, _ in pairs], [d.attack for _, d in pairs], windows)
    return scored_report(
        detector_name, labels, flags, scores, counts,
        latency=latency, extra={"excluded_warmup": int(exclude_warmup)},
    )


# ---------------------------------------------------------------------------
# Supervised baseline pipeline
# ---------------------------------------------------------------------------


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
    is None (training; evaluation passes the saved one). The samples are one
    float table, whose features are standardized in one call.
    """
    table = np.array(samples, dtype=float).reshape(-1, len(AggregatedSample._fields))
    X_raw, y = table[:, 1:3], table[:, 3].astype(int)
    if len(np.unique(y)) < 2:
        raise DataError("the train/test split needs both classes present in the data")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    if std is None:
        std = fit_standardizer(X_raw[train_idx])
    X = apply_standardizer(std, X_raw)
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
    scores = model.predict_scores(X_test).tolist()
    flags = [int(v > LABEL_CUT) for v in scores]
    return scored_report(family, y_test.tolist(), flags, scores)
