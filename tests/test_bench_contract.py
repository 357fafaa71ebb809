"""The benchmark tracer still finds the attributes it wraps.

``perfbench/tracer.py`` patches public functions and methods by name. A
refactor that renames one, or routes training or scoring around it, would
break the traced benchmark run; this test makes that a Tier-1 failure.
"""

import importlib.util
from pathlib import Path

from bsmguard.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

    assert tracer.counts["ml.cart_trees"] > 0
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
