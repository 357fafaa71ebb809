"""Command-line front end.

Subcommands: simulate, detect, train, evaluate, report. Every command is
deterministic given its config and seed. Exit codes: 0 ok, 2 usage or
config error, 3 data error. A command writes its output files all together
or not at all (``staged_outputs``), and prints only once they are
in place; before any work it rejects an output that is one of its inputs or
another of its outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Callable, Iterator

from bsmguard import __version__
from bsmguard.bsm import DataError, aggregate, read_bsm_csv, write_bsm_csv
from bsmguard.config import (
    ConfigError,
    DetectorSettings,
    detector_settings_from_mapping,
    load_flat_config,
    parse_windows,
)
from bsmguard.detectors import DETECTOR_NAMES
from bsmguard.evaluate import roc_counts, roc_points, timing_stats, write_roc_csv
from bsmguard.ml import MODEL_FAMILIES, check_params
from bsmguard.model_io import load_model, save_model
from bsmguard.pipeline import (
    detect_records,
    detector_report,
    evaluate_model,
    model_dataset,
    read_decisions_csv,
    scored_pairs,
    train_and_evaluate,
    write_decisions_csv,
)
from bsmguard.simulate import scenario_from_mapping

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _written_in_place(path: str) -> bool:
    """Whether ``path`` exists but is not a regular file (a pipe, or a device like /dev/stdout)."""
    return os.path.exists(path) and not os.path.isfile(path)


@contextlib.contextmanager
def staged_outputs() -> Iterator[Callable[[str], str]]:
    """Make a command's output files appear all together or not at all.

    Inside the block, ``stage(path)`` names the file to write ``path``'s
    bytes to: a temporary sibling of the file ``path`` resolves to. When the
    block ends without error each staged file replaces its target, and a
    symlink keeps pointing at the replaced file. When the block raises, the
    temporary files are removed and every target stays as it was. A pipe or
    device (``_written_in_place``) is written in place.
    """
    staged: list[tuple[str, str]] = []

    def stage(path: str) -> str:
        if _written_in_place(path):
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


def _vehicle_records(path: str, vehicle: str | None):
    """Stream one vehicle's records from a CSV; multi-vehicle input must name it."""
    wanted = vehicle
    found = False
    for r in read_bsm_csv(path):
        if wanted is None:
            wanted = r.vehicle_id
        if r.vehicle_id == wanted:
            found = True
            yield r
        elif vehicle is None:
            raise DataError(f"{path}: multiple vehicles present; pick one with --vehicle")
    if not found:
        detail = "" if vehicle is None else f" for vehicle {vehicle!r}"
        raise DataError(f"{path}: no records{detail}")


def _samples(args) -> list:
    """The aggregated samples of the one vehicle ``args`` selects."""
    return list(aggregate(_vehicle_records(args.csv, args.vehicle), args.window))


def cmd_simulate(args) -> int:
    cfg = load_flat_config(args.config)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    scenario = scenario_from_mapping(cfg, args.config)
    with staged_outputs() as stage:
        n = write_bsm_csv(stage(args.out), scenario.run())
    print(f"wrote {n} records to {args.out}")
    return EXIT_OK


def _detector_settings(args) -> DetectorSettings:
    if getattr(args, "config", None):
        return detector_settings_from_mapping(load_flat_config(args.config), args.config)
    return DetectorSettings()


def cmd_detect(args) -> int:
    settings = _detector_settings(args)
    # Wall-clock times of the detector's observes; they stay out of the
    # decisions file.
    timings = [] if args.timing_out else None
    rows = detect_records(_vehicle_records(args.csv, args.vehicle), args.detector, settings,
                          args.window, timings)
    with staged_outputs() as stage:
        n = write_decisions_csv(stage(args.out), rows)
        if args.timing_out:
            try:
                stats = timing_stats(timings)
            except ValueError as exc:
                raise DataError(str(exc)) from None
            _write_text(
                stage(args.timing_out),
                f"detector = {args.detector}\n"
                f"timing_samples = {stats.n_measured}\n"
                f"timing_mean_ms = {stats.mean_ms!r}\n"
                f"timing_median_ms = {stats.median_ms!r}\n"
                f"timing_p99_ms = {stats.p99_ms!r}\n",
            )
    print(f"wrote {n} decisions to {args.out}")
    if args.timing_out:
        print(f"wrote timing stats to {args.timing_out}")
    return EXIT_OK


def _parse_grid(raw: str | None, family: str):
    """The ``--grid`` JSON, checked against the family's declared parameters.
    A key given twice in one object is rejected, not won by its last value."""
    if raw is None:
        return None
    import json

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"--grid: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        grid = json.loads(raw, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"--grid is not valid JSON: {exc}") from None
    if not isinstance(grid, dict) or not all(isinstance(v, list) and v for v in grid.values()):
        raise ConfigError(
            "--grid must be a JSON object mapping parameter to a non-empty list of values"
        )
    try:
        check_params(family, grid)
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None
    return grid


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_train(args) -> int:
    samples, grid = _samples(args), _parse_grid(args.grid, args.model)
    try:
        outcome = train_and_evaluate(samples, args.model, seed=args.seed, grid=grid,
                                     folds=args.folds, test_fraction=args.test_fraction)
    except MemoryError as exc:
        # A grid cell too large to fit, such as an NN with 1e17 hidden units.
        raise ConfigError(f"{args.model} training ran out of memory: {exc}") from None
    except (DataError, ConfigError):
        raise
    except (OverflowError, ValueError) as exc:
        # A grid value numpy cannot size, such as 1e30 trees or 2**62 hidden units.
        raise ConfigError(f"{args.model} training cannot run this grid: {exc}") from None
    text = outcome.report.to_text()
    with staged_outputs() as stage:
        save_model(stage(args.out), outcome.model, outcome.standardizer, args.seed,
                   args.test_fraction)
        if args.report_out:
            _write_text(stage(args.report_out), text)
    print(f"saved {args.model} model to {args.out}")
    print(f"grid search best: {outcome.search.best_params} "
          f"(cv accuracy {outcome.search.best_accuracy:.4f})")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, std, seed, test_fraction = load_model(args.model_file)
    _, _, X_test, y_test, _ = model_dataset(_samples(args), seed, test_fraction, std)
    text = evaluate_model(model, model.family, X_test, y_test).to_text()
    if args.out:
        with staged_outputs() as stage:
            _write_text(stage(args.out), text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    pairs = read_decisions_csv(args.decisions, _samples(args))
    windows = parse_windows(args.windows, "--windows") if args.windows else ()
    scored = counts = None
    if args.roc_out:
        # The scores are sorted once, for both the ROC rows and the AUROC.
        scored = labels, _, scores = scored_pairs(args.detector, pairs, args.exclude_warmup)
        if not 0 < sum(labels) < len(labels):
            raise DataError("ROC output needs both classes present in the scored decisions")
        counts = roc_counts(scores, labels)
    report = detector_report(args.detector or "detector", pairs, windows=windows,
                             exclude_warmup=args.exclude_warmup, counts=counts, scored=scored)
    if args.detector is None:
        print("warning: no --detector given, so scores are read as higher = more "
              "suspicious; pass --detector (bocpd scores the other way)", file=sys.stderr)
    text = report.to_text()
    with staged_outputs() as stage:
        if args.out:
            _write_text(stage(args.out), text)
        if args.roc_out:
            points = roc_points(counts)
            write_roc_csv(stage(args.roc_out), points)
    sys.stdout.write(text)
    if args.roc_out:
        print(f"wrote {len(points)} ROC points to {args.roc_out}")
    return EXIT_OK


def _checked(kind, accept, requirement: str):
    """An argparse ``type``: parse with ``kind``, then reject out-of-range values."""

    def parse(raw: str):
        value = kind(raw)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{raw!r} {requirement}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its parse errors
    return parse


_window = _checked(float, lambda v: 0 < v < math.inf, "must be positive and finite")
_folds = _checked(int, lambda v: v >= 2, "must be at least 2")
_seed = _checked(int, lambda v: v >= 0, "must be at least 0")
_fraction = _checked(float, lambda v: 0 < v < 1, "must be in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsmguard",
        description="Simulate, detect, and evaluate false-speed attacks on BSM streams.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a BSM CSV from a scenario config")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate, reads=("config",), writes=("out",))

    p = sub.add_parser("detect", help="run one detector over a BSM CSV")
    p.add_argument("csv", help="input BSM CSV")
    p.add_argument("--detector", required=True, choices=DETECTOR_NAMES)
    p.add_argument("--config", default=None, help="detector config file")
    p.add_argument("--out", required=True, help="output decisions CSV")
    p.add_argument("--window", type=_window, default=0.1, help="aggregation window (s)")
    p.add_argument("--vehicle", default=None, help="vehicle id for multi-vehicle CSVs")
    p.add_argument("--timing-out", default=None, help="write per-sample timing stats here")
    p.set_defaults(func=cmd_detect, reads=("csv", "config"), writes=("out", "timing_out"))

    p = sub.add_parser("train", help="grid-search and fit a supervised baseline")
    p.add_argument("csv", help="labeled BSM CSV")
    p.add_argument("--model", required=True, choices=MODEL_FAMILIES)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--report-out", default=None, help="also write the test report here")
    p.add_argument("--grid", default=None,
                   help='JSON parameter grid, e.g. \'{"k": [5, 19]}\' (default per family)')
    p.add_argument("--folds", type=_folds, default=5, help="cross-validation folds")
    p.add_argument("--test-fraction", type=_fraction, default=0.2, help="held-out split size")
    p.add_argument("--window", type=_window, default=0.1)
    p.add_argument("--vehicle", default=None)
    p.set_defaults(func=cmd_train, reads=("csv",), writes=("out", "report_out"))

    p = sub.add_parser("evaluate", help="re-evaluate a saved model on its test split")
    p.add_argument("model_file", help="model produced by train")
    p.add_argument("csv", help="the same labeled BSM CSV used for training")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--window", type=_window, default=0.1)
    p.add_argument("--vehicle", default=None)
    p.set_defaults(func=cmd_evaluate, reads=("model_file", "csv"), writes=("out",))

    p = sub.add_parser("report", help="score a decisions CSV against ground truth")
    p.add_argument("decisions", help="decisions CSV from detect")
    p.add_argument("csv", help="the BSM CSV the decisions came from")
    p.add_argument("--detector", default=None, choices=DETECTOR_NAMES,
                   help="orients scores for AUROC")
    p.add_argument("--windows", default=None, help="attack windows as start:end[,...]")
    p.add_argument("--exclude-warmup", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--roc-out", default=None, help="write per-threshold ROC points CSV")
    p.add_argument("--window", type=_window, default=0.1)
    p.add_argument("--vehicle", default=None)
    p.set_defaults(func=cmd_report, reads=("decisions", "csv"), writes=("out", "roc_out"))
    return parser


def _reject_shared_paths(args) -> None:
    """Reject, before any work, two outputs that are one file and an output that is an input.

    A pipe or device is written in place (``staged_outputs``), so it may repeat.
    """
    outputs = [p for p in (getattr(args, name) for name in args.writes)
               if p is not None and not _written_in_place(p)]
    inputs = [p for p in (getattr(args, name) for name in args.reads) if p is not None]
    for i, out in enumerate(outputs):
        for other in outputs[:i]:
            if os.path.realpath(out) == os.path.realpath(other):
                raise ConfigError(f"outputs {other} and {out} are the same file")
        for path in inputs:
            if os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path):
                raise ConfigError(f"output {out} is the input {path}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _reject_shared_paths(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
