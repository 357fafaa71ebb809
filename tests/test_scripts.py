"""Smoke runs of scripts/: the experiment table and the calibration sweep."""

import importlib.util
import math
from pathlib import Path

import pytest

from bsmguard.detectors import (
    DETECTOR_NAMES,
    BocpdConfig,
    BocpdDetector,
    CusumConfig,
    CusumDetector,
)
from bsmguard.ml import MODEL_FAMILIES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

#: Grids small enough for a smoke run; knn and cart keep their default grids.
TINY_GRIDS = {
    "rf": {"n_trees": [5], "max_depth": [4], "min_split": [12], "min_leaf": [5]},
    "nn": {"epochs": [2], "batch_size": [50], "lr": [0.2], "n_hidden": [10]},
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiment_rows_cover_every_detector_and_family(monkeypatch):
    experiment = load_script("run_experiment")
    monkeypatch.setattr(experiment, "GRIDS", TINY_GRIDS)
    detectors = experiment.detector_rows(1)
    baselines = experiment.baseline_rows(1)
    assert [r["name"] for r in detectors] == list(DETECTOR_NAMES)
    assert [r["name"] for r in baselines] == list(MODEL_FAMILIES)
    # The canonical attack displaces speed by about 62 noise sigmas, so every
    # detector and baseline separates it almost perfectly.
    for row in detectors + baselines:
        assert row["accuracy"] >= 0.99, row
        for key in ("precision", "recall", "auroc"):
            assert 0.0 <= row[key] <= 1.0, (row["name"], key, row[key])
    for row in detectors:
        assert row["ms_per_sample"] > 0.0
        assert math.isfinite(row["latency_s"])
    for row in baselines:
        assert math.isnan(row["latency_s"]) and math.isnan(row["ms_per_sample"])


@pytest.mark.parametrize(
    "make", [lambda: BocpdDetector(BocpdConfig()), lambda: CusumDetector(CusumConfig())]
)
def test_calibration_sweep_rate_is_a_fraction(make):
    sweep = load_script("calibration_sweep")
    rate = sweep.false_alarm_rate(make, streams=2, samples=300)
    assert 0.0 <= rate <= 1.0
