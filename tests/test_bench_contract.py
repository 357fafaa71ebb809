"""The benchmark still finds what it wraps and still gets the bytes it expects.

``perfbench/tracer.py`` patches public functions and methods by name. A
refactor that renames one, or routes training or scoring around it, would
break the traced benchmark run; these tests make that a Tier-1 failure, and
so is a model byte that differs from the benchmark's recorded reference.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from bsmguard.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return load_perfbench_module("tracer")


def test_traced_train_and_evaluate_count_trees_and_rows(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("duration_s = 30.0\nseed = 7\nattack.windows = 10.0:15.0\n")
    csv_path = tmp_path / "bsm.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(csv_path)]) == 0

    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        for family, grid in (("cart", '{"max_depth": [3]}'),
                             ("rf", '{"n_trees": [3], "max_depth": [3]}')):
            model = tmp_path / f"{family}.json"
            assert main(["train", str(csv_path), "--model", family, "--grid", grid,
                         "--out", str(model)]) == 0
            assert main(["evaluate", str(model), str(csv_path)]) == 0
    finally:
        tracer.uninstall()

    # 5 folds plus the final fit: 6 cart trees and 6 forests of 3, every one
    # a walkable tree returned through the wrapped ml.cart_fit.
    assert tracer.counts["ml.cart_trees"] == 6 + 6 * 3
    assert tracer.counts["ml.cart_nodes"] > tracer.counts["ml.cart_trees"]
    assert tracer.counts["ml.predict_rows"] > 0
    assert tracer.counts["ml.scored_rows"] > 0
    assert tracer.calls["ml.fit_family"] > 0


def test_traced_em_detect_counts_iterations(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("duration_s = 10.0\nseed = 3\nattack.windows = 5.0:6.0\n")
    csv_path = tmp_path / "bsm.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(csv_path)]) == 0

    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        assert main(["detect", str(csv_path), "--detector", "em",
                     "--out", str(tmp_path / "dec.csv")]) == 0
    finally:
        tracer.uninstall()

    assert tracer.counts["em.iterations"] >= tracer.counts["em.warm_observes"] > 0


def test_train_overlap_models_match_the_bench_reference(tmp_path, capsys):
    workloads = load_perfbench_module("workloads")
    workloads.build_inputs("train-overlap", workloads.DEFAULT_SEED, str(tmp_path))
    reference = json.loads((PERFBENCH / "reference" / "train-overlap.json").read_text())
    ops = {op.label: op for op in workloads.make_ops("train-overlap", str(tmp_path))}
    for label in ("train:cart", "train:rf", "train:nn"):
        op = ops[label]
        assert main(list(op.argv)) == 0
        hashes = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in op.outputs]
        assert hashes == reference["hashes"][label], label


def test_fleet_roc_outputs_match_the_bench_reference(tmp_path, capsys):
    workloads = load_perfbench_module("workloads")
    workloads.build_inputs("fleet-roc", workloads.DEFAULT_SEED, str(tmp_path))
    reference = json.loads((PERFBENCH / "reference" / "fleet-roc.json").read_text())
    ops = {op.label: op for op in workloads.make_ops("fleet-roc", str(tmp_path))}
    for label in ("simulate:stream",
                  "detect:fleet-v0:bocpd:transform", "report:fleet-v0:bocpd:transform",
                  "detect:fleet-v0:cusum:transform", "report:fleet-v0:cusum:transform"):
        op = ops[label]
        assert main(list(op.argv)) == 0
        hashes = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in op.outputs]
        assert hashes == reference["hashes"][label], label
