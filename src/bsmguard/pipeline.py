"""Wiring between streams, detectors, baselines, and reports.

Detection reads its records once and moves them in blocks: each block of
aggregated samples becomes a block of detector inputs through the selected
input transform, and each of those a block of decisions, observed one value
at a time in one loop. The speed and transform input modes hold one block
however long the stream is; the standardized mode holds two float lists,
its samples' t and avg_speed, as its statistics must be known before its
first value. Decisions files are written a block at a time and read back
with ``bsm.read_checked``, whose block and row checks are one function,
into columns joined to the stream's samples, which a report, like a model's
training and evaluation, holds as one ``SampleBlock``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from bsmguard.bsm import (
    READ_BLOCK_LINES,
    STDEV_FLOOR,
    DataError,
    RecordBlock,
    SampleBlock,
    StandardizationParams,
    TransformWindow,
    aggregate,
    apply_standardizer,
    check_plain_numbers,
    fit_standardizer,
    read_checked,
    write_csv_blocks,
)
from bsmguard.config import INPUT_MODES, DetectorSettings
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


def welford_feature_stats(speeds: Iterable[float]) -> StandardizationParams:
    """One streaming pass over the samples' ``avg_speed``, the one feature the
    standardized input mode reads, with O(1) memory."""
    count = 0
    mean = m2 = 0.0
    for speed in speeds:
        count += 1
        delta = speed - mean
        mean += delta / count
        m2 += delta * (speed - mean)
    if count == 0:
        raise DataError("stream produced no aggregated samples")
    return StandardizationParams(mean=(mean,), stdev=(max(math.sqrt(m2 / count), STDEV_FLOOR),))


def feature_stream(
    blocks: Iterable[SampleBlock], mode: str
) -> Iterator[tuple[list[float], list[float | None]]]:
    """Turn each sample block into the detector inputs its input mode selects.

    Yields ``(t, values)`` per block: the samples' t and, for each sample,
    its raw average speed, its average speed standardized with the stream's
    own mean and stdev, or the rolling control-variate transform, whose
    value is None while its window fills. The standardized mode keeps the
    stream's t and avg_speed lists, for its statistics
    (``welford_feature_stats``) come before its first value, and yields them
    again in blocks of READ_BLOCK_LINES; the other modes stream. Every
    detector input comes from here; any other mode is a ValueError.
    """
    if mode == "speed":
        for block in blocks:
            yield block.t, block.avg_speed
    elif mode == "standardized":
        times: list[float] = []
        speeds: list[float] = []
        for block in blocks:
            times += block.t
            speeds += block.avg_speed
        std = welford_feature_stats(speeds)
        (mean,), (stdev,) = std.mean, std.stdev
        for i in range(0, len(times), READ_BLOCK_LINES):
            yield (times[i:i + READ_BLOCK_LINES],
                   [(speed - mean) / stdev for speed in speeds[i:i + READ_BLOCK_LINES]])
    elif mode == "transform":
        window = TransformWindow()
        for block in blocks:
            yield block.t, list(map(window.push, block.avg_speed, block.avg_accel))
    else:
        raise ValueError(f"unknown input mode {mode!r}, expected one of {INPUT_MODES}")


def run_detection(
    blocks: Iterable[SampleBlock],
    detector_name: str,
    settings: DetectorSettings,
    timings: list[int] | None = None,
) -> Iterator[tuple[list[float], list[DetectorDecision]]]:
    """Feed a stream of sample blocks through one detector.

    Yields ``(t, decisions)`` per block of detector inputs: the samples' t
    and one decision per sample. The detector's configured input mode
    selects what it observes (see ``feature_stream``). Samples consumed
    while the transform window fills get a warm-up decision. A value the
    detector cannot score under its config (its arithmetic overflows, say)
    is a DataError naming the sample, raised after a block of the decisions
    before it. With ``timings``, each observe's wall-clock time is appended
    to it (``evaluate.timed``).
    """
    detector = make_detector(detector_name, settings.config(detector_name))
    observe = detector.observe if timings is None else timed(detector.observe, timings)
    mode = settings.input_mode(detector_name)
    for t, values in feature_stream(blocks, mode):
        decisions: list[DetectorDecision] = []
        decide = decisions.append
        try:
            for value in values:
                decide(WARMUP_DECISION if value is None else observe(value))
        except (ArithmeticError, ValueError) as exc:
            if decisions:
                yield t[:len(decisions)], decisions
            raise DataError(
                f"{detector_name} cannot score the sample at t={t[len(decisions)]!r} "
                f"with its config: {exc}"
            ) from None
        yield t, decisions


def detect_records(
    blocks: Iterable[RecordBlock],
    detector_name: str,
    settings: DetectorSettings,
    window: float,
    timings: list[int] | None = None,
) -> Iterator[tuple[list[float], list[DetectorDecision]]]:
    """Aggregate record ``blocks`` and detect over their samples, reading them once."""
    return run_detection(aggregate(blocks, window), detector_name, settings, timings)


def write_decisions_csv(
    path: str, blocks: Iterable[tuple[Sequence[float], Sequence[DetectorDecision]]]
) -> int:
    """Write one CSV row per decision, a block at a time; returns the number of rows."""
    return write_csv_blocks(path, DECISIONS_HEADER, map(_decision_rows, blocks))


def _decision_rows(
    block: tuple[Sequence[float], Sequence[DetectorDecision]]
) -> list[tuple[float, float, int, int]]:
    """The decisions CSV rows of one ``(t, decisions)`` block."""
    t, decisions = block
    attack, score, warmed_up = zip(*decisions) if decisions else ((), (), ())
    return list(zip(t, score, map(int, attack), map(int, warmed_up)))


def read_decisions_csv(
    path: str, samples: SampleBlock
) -> tuple[list[bool], list[float], list[bool]]:
    """Join a decisions CSV to the samples ``detect`` wrote it from: row i to sample i.

    Returns the ``(attack, score, warmed_up)`` columns of the decisions
    ``run_detection`` made, with bool flags. The rows are read with
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
        # Rows past the last sample have no t to match; the count check below fails.
        sample_t = samples.t[joined:joined + len(rows)]
        if t[:len(sample_t)] != sample_t:
            raise ValueError(f"t={t[0]!r} does not match its sample's t={sample_t[0]!r}")
        check_plain_numbers(DECISIONS_HEADER, columns, range(len(columns)))
        joined += len(rows)
        flag = {text: value == 1 for text, value in flags.items()}.__getitem__
        return list(map(flag, attack)), score, list(map(flag, warmed_up))

    decisions: tuple[list[bool], list[float], list[bool]] = ([], [], [])
    for block in read_checked(path, DECISIONS_HEADER, join):
        for column, part in zip(decisions, block):
            column += part
    if joined != len(samples.t):
        raise DataError(
            f"{path}: decision count {joined} does not match sample count {len(samples.t)}"
        )
    return decisions


def scored_decisions(
    detector_name: str | None, labels: Sequence[int],
    decisions: tuple[Sequence[bool], Sequence[float], Sequence[bool]],
    exclude_warmup: bool = False,
) -> tuple[list[int], list[bool], list[float]]:
    """The (labels, flags, oriented scores) a report and its ROC score, from
    the samples' ``labels`` and ``read_decisions_csv``'s columns: every
    decision's, or with ``exclude_warmup`` the warmed-up ones'. Scores take
    the detector table's sign (1 for an unnamed detector), so larger means
    more suspicious."""
    attack, score, warmed_up = decisions
    if exclude_warmup:
        labels, attack, score = (list(compress(column, warmed_up))
                                 for column in (labels, attack, score))
    if not labels:
        raise DataError("all decisions fell inside warm-up")
    kind = DETECTORS.get(detector_name)
    orient = 1.0 if kind is None else kind.orientation
    return list(labels), list(attack), [orient * s for s in score]


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
    detector_name: str, times: Sequence[float], attack: Sequence[bool],
    scored: tuple[list[int], list[bool], list[float]],
    windows: Sequence[tuple[float, float]] = (), exclude_warmup: bool = False,
    counts: list[tuple[float, int, int]] | None = None,
) -> EvalReport:
    """Score the ``scored_decisions`` selection ``scored`` against its labels
    (with ``counts``, its scores' ``roc_counts``, when the caller has them);
    latency covers every sample's ``attack`` flag, timed by its ``times``."""
    labels, flags, scores = scored
    latency = detection_latency(times, attack, windows) if windows else None
    return scored_report(
        detector_name, labels, flags, scores, counts,
        latency=latency, extra={"excluded_warmup": int(exclude_warmup)},
    )


# ---------------------------------------------------------------------------
# Supervised baseline pipeline
# ---------------------------------------------------------------------------


def model_dataset(
    samples: SampleBlock,
    seed: int,
    test_fraction: float,
    std: StandardizationParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, StandardizationParams]:
    """The one path from labeled samples to model input.

    Returns ``(X_train, y_train, X_test, y_test, std)``: the split of
    ``stratified_split(y, test_fraction, seed)``, every row standardized with
    ``std``, or with a standardizer fitted on the training split when ``std``
    is None (training; evaluation passes the saved one). The features are
    the samples' avg_speed and avg_accel columns, standardized in one call,
    and the labels their label column.
    """
    X_raw = np.column_stack((samples.avg_speed, samples.avg_accel))
    y = np.array(samples.label, dtype=int)
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
    samples: SampleBlock,
    family: str,
    seed: int,
    grid: dict[str, list] | None = None,
    folds: int = 5,
    test_fraction: float = 0.2,
) -> TrainOutcome:
    """The full supervised pipeline on one labeled sample block.

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
