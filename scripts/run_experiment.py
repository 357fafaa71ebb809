#!/usr/bin/env python3
"""Full comparison experiment on the synthetic false-speed scenario.

Simulates multi-seed streams, runs the three online detectors and the four
supervised baselines, and prints one summary table. Everything is seeded;
re-runs reproduce the same numbers (timing columns excepted).

Usage:
    python3 scripts/run_experiment.py [--seeds N]
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bsmguard.bsm import aggregate
from bsmguard.config import DetectorSettings
from bsmguard.detectors import DETECTOR_NAMES
from bsmguard.evaluate import timing_stats
from bsmguard.ml import MODEL_FAMILIES
from bsmguard.pipeline import detector_report, run_detection, train_and_evaluate
from bsmguard.simulate import default_scenario

#: Desk-scale grids so the whole experiment stays in the tens of seconds; a
#: family not listed here uses its default grid (``ml.FAMILIES[f].grid``).
GRIDS = {
    "rf": {"n_trees": [50], "max_depth": [16], "min_split": [12], "min_leaf": [5]},
}


def summary_row(name: str, reports, latency_s: float, ms_per_sample: float) -> dict:
    """Mean quality of one model's per-seed reports; AUROC over the seeds that have one."""
    aurocs = [r.auroc_value for r in reports if r.auroc_value is not None]
    return {
        "name": name,
        "accuracy": statistics.fmean(r.quality.accuracy for r in reports),
        "precision": statistics.fmean(r.quality.precision_macro for r in reports),
        "recall": statistics.fmean(r.quality.detection_macro for r in reports),
        "auroc": statistics.fmean(aurocs) if aurocs else math.nan,
        "latency_s": latency_s,
        "ms_per_sample": ms_per_sample,
    }


def detector_rows(seeds: int):
    settings = DetectorSettings()
    rows = []
    for name in DETECTOR_NAMES:
        reports, per_sample_ms = [], []
        for seed in range(seeds):
            samples = list(aggregate(default_scenario(seed=seed).run()))
            timings = []
            pairs = list(run_detection(samples, name, settings, timings))
            per_sample_ms.append(timing_stats(timings).mean_ms)
            reports.append(detector_report(name, pairs, windows=((100.0, 105.0),)))
        latencies = [r.latency.mean for r in reports if r.latency.detected]
        latency_s = statistics.fmean(latencies) if latencies else math.nan
        rows.append(summary_row(name, reports, latency_s, statistics.fmean(per_sample_ms)))
    return rows


def baseline_rows(seeds: int):
    rows = []
    for family in MODEL_FAMILIES:
        reports = []
        for seed in range(seeds):
            samples = list(aggregate(default_scenario(seed=seed).run()))
            outcome = train_and_evaluate(samples, family, seed=seed, grid=GRIDS.get(family))
            reports.append(outcome.report)
        rows.append(summary_row(family, reports, math.nan, math.nan))
    return rows


def print_table(rows):
    header = f"{'model':8s} {'accuracy':>9s} {'precision':>10s} {'recall':>8s} {'auroc':>7s} {'latency_s':>10s} {'ms/sample':>10s}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['name']:8s} {r['accuracy']:9.4f} {r['precision']:10.4f} "
            f"{r['recall']:8.4f} {r['auroc']:7.4f} {r['latency_s']:10.3f} "
            f"{r['ms_per_sample']:10.4f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="scenario seeds per model")
    args = parser.parse_args()

    print(f"scenario: 200 s at 10 Hz, one 5 s false-stop window, {args.seeds} seeds")
    started = time.perf_counter()
    rows = detector_rows(args.seeds) + baseline_rows(args.seeds)
    print_table(rows)
    print(f"total wall time: {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
