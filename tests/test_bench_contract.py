"""The benchmark still finds what it wraps and still gets the bytes it expects.

``perfbench/tracer.py`` patches public functions and methods by name. A
refactor that renames one, or routes training or scoring around it, would
break the traced benchmark run; these tests make that a Tier-1 failure, and
so is any output byte of any benchmark op that differs from the recorded
reference: on the default kernels, and for training also under three named
OpenBLAS kernels and with numpy's SIMD dispatch off.
"""

import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bsmguard import cli
from bsmguard.bsm import CSV_HEADER, aggregate, read_bsm_csv
from bsmguard.cli import main
from bsmguard.pipeline import DECISIONS_HEADER, read_decisions_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return load_perfbench_module("tracer")


def load_run_module():
    """``perfbench/run.py``, whose import pins the BLAS thread variables: they
    are put back, so later subprocesses start with this process's own."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        return load_perfbench_module("run")


#: ``perfbench/run.py``: its per-layer metrics and the way it runs a chain.
BENCH_RUN = load_run_module()


def _layer_case(metric):
    """One traced layer; ``ml.knn_predict`` is the one no CLI path calls."""
    marks = ()
    if metric == "ml.knn_predict_s":
        marks = pytest.mark.xfail(strict=True, reason="KNN scores in batches through "
                                  "knn_scores, so no CLI path calls knn_predict (CHANGES.md "
                                  "FOUND line on ml.knn_predict_s; ROADMAP item 3)")
    return pytest.param(BENCH_RUN.LAYER_TIMES[metric], id=metric, marks=marks)


@pytest.fixture(scope="module")
def traced_train_overlap_chain(tmp_path_factory):
    """The tracer after one train-overlap chain, run as ``perfbench/run.py
    --trace 1`` runs it, with every output checked against the reference."""
    workloads = load_perfbench_module("workloads")
    tracer_module = load_tracer_module()
    workdir = str(tmp_path_factory.mktemp("traced-train-overlap"))
    workloads.build_inputs("train-overlap", workloads.DEFAULT_SEED, workdir)
    checker = BENCH_RUN.Checker(_reference("train-overlap"))
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        BENCH_RUN.run_chain(cli, workloads.make_ops("train-overlap", workdir), checker, tracer)
    finally:
        tracer.uninstall()
    assert checker.failures == []
    return tracer


@pytest.mark.parametrize("frame", [_layer_case(m) for m in BENCH_RUN.LAYER_TIMES])
def test_every_traced_layer_does_work_on_train_overlap(traced_train_overlap_chain, frame):
    # A refactor that routes work around a wrapped function leaves its
    # per-layer metric at 0.0 without failing the benchmark; this fails instead.
    assert traced_train_overlap_chain.calls[frame] > 0, frame


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

    # 5 folds plus the final fit: 6 cart trees, each a walkable tree returned
    # through the wrapped ml.cart_fit, and 6 forests through the wrapped
    # ml.rf_fit. A forest grows its trees together, not through cart_fit, so
    # its trees are counted in the saved model: the final forest of 3.
    assert tracer.counts["ml.cart_trees"] == 6
    assert tracer.counts["ml.cart_nodes"] > tracer.counts["ml.cart_trees"]
    assert tracer.calls["ml.rf_fit"] == 6
    saved = json.loads((tmp_path / "rf.json").read_text())
    assert len(saved["payload"]["trees"]) == 3
    assert tracer.counts["ml.predict_rows"] > 0
    assert tracer.counts["ml.scored_rows"] > 0
    assert tracer.calls["ml.fit_family"] > 0


def test_traced_train_balances_through_the_smote_hook(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("duration_s = 30.0\nseed = 7\nattack.windows = 10.0:15.0\n")
    csv_path = tmp_path / "bsm.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(csv_path)]) == 0

    tracer_module = load_tracer_module()
    # Grid cells per family: knn's default k in {5, 19}, and one nn cell.
    for family, grid, cells in (("knn", '{"k": [5, 19]}', 2),
                                ("nn", '{"epochs": [2]}', 1)):
        tracer = tracer_module.Tracer()
        tracer_module.install(tracer)
        try:
            assert main(["train", str(csv_path), "--model", family, "--grid", grid,
                         "--out", str(tmp_path / f"{family}.json")]) == 0
        finally:
            tracer.uninstall()
        # Every fold of every cell, plus the final fit, balances through the
        # module attribute the tracer wraps.
        assert tracer.calls["ml.smote_balance"] == cells * 5 + 1, family
        # A cell's folds are fitted together through the family table; only
        # the final fit goes through fit_family.
        assert tracer.calls["ml.fit_family"] == 1, family
    # The five folds have one balanced size and train as one block; the final
    # fit, alone in its size, trains through the wrapped nn_train.
    assert tracer.calls["ml.nn_train"] == 1


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


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reference(workload):
    return json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["hashes"]


@pytest.mark.parametrize("workload", ("stream-long", "fleet-roc", "train-overlap"))
def test_every_op_matches_the_bench_reference(workload, tmp_path, capsys):
    # Every op of the chain, in order: each decisions, report, ROC and model
    # file must keep the bytes the benchmark recorded, so a refactor of any
    # layer has to keep every score and every tree bit for bit.
    workloads = load_perfbench_module("workloads")
    workloads.build_inputs(workload, workloads.DEFAULT_SEED, str(tmp_path))
    hashes = {}
    for op in workloads.make_ops(workload, str(tmp_path)):
        assert main(list(op.argv)) == 0, op.label
        hashes[op.label] = [_sha256(p) for p in op.outputs]
    assert hashes == _reference(workload)


def test_bench_inputs_are_split_without_csv_reader(tmp_path, monkeypatch):
    # Only a file's header goes through csv.reader; every line of the bench's
    # inputs is plain, so read_csv splits them all with str.split. A writer
    # that quoted a field or wrote CR line ends would fail this, and lose the
    # block reader's speed without failing anything else.
    workloads = load_perfbench_module("workloads")
    for workload in ("fleet-roc", "train-overlap"):
        workloads.build_inputs(workload, workloads.DEFAULT_SEED, str(tmp_path))
    ops = workloads.make_ops("train-overlap", str(tmp_path))
    simulate, detect = ops[0], next(op for op in ops if op.kind == "detect")
    assert main(list(simulate.argv)) == 0 and main(list(detect.argv)) == 0
    fed = []  # the lines csv.reader takes

    def counting_reader(lines, *args, **kwargs):
        def counted():
            for line in lines:
                fed.append(line)
                yield line
        return csv_reader(counted(), *args, **kwargs)

    csv_reader = csv.reader
    monkeypatch.setattr(csv, "reader", counting_reader)
    for name in ("stream.csv", "fleet.csv", "overlap.csv"):
        fed.clear()
        assert sum(1 for _ in read_bsm_csv(str(tmp_path / name))) >= 1000
        assert fed == [",".join(CSV_HEADER) + "\n"], name
    fed.clear()
    samples = list(aggregate(read_bsm_csv(simulate.outputs[0]), workloads.SIDE_WINDOW_S))
    fed.clear()
    assert len(read_decisions_csv(detect.outputs[0], samples)) == detect.samples
    assert fed == [",".join(DECISIONS_HEADER) + "\n"]


#: Runs train-overlap's train and evaluate ops in a fresh interpreter, so the
#: environment it is started with picks the BLAS and numpy kernels, and prints
#: their output hashes as JSON. Arguments: the workloads module, the workdir.
KERNEL_RUN = """
import contextlib, hashlib, importlib.util, io, json, sys
from bsmguard.bsm import CSV_HEADER, aggregate, read_bsm_csv
from bsmguard.cli import main
from bsmguard.pipeline import DECISIONS_HEADER, read_decisions_csv
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
hashes = {}
for op in workloads.make_ops("train-overlap", sys.argv[2]):
    if op.kind in ("train", "evaluate"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(op.argv)) == 0, op.label
        hashes[op.label] = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in op.outputs]
print(json.dumps(hashes))
"""


def _numpy_config() -> dict:
    """numpy's build and runtime report, or {} where numpy only prints it."""
    try:
        return np.show_config(mode="dicts")
    except TypeError:
        return {}


def _openblas_build() -> str:
    """numpy's OpenBLAS build line, or "" where numpy reports none."""
    return _numpy_config().get("Build Dependencies", {}).get("blas", {}).get(
        "openblas configuration", "")


def _numpy_simd() -> tuple[list[str], list[str]]:
    """numpy's SIMD baseline and the dispatch targets it found on this CPU."""
    simd = _numpy_config().get("SIMD Extensions", {})
    return simd.get("baseline", []), simd.get("found", [])


def _has_avx512f() -> bool:
    """Whether numpy reports AVX512F (numpy 2.4 names it within X86_V4)."""
    return any(f.startswith("AVX512") or f == "X86_V4" for f in sum(_numpy_simd(), []))


#: Each run's environment: three OpenBLAS kernels (AVX-512, AVX2, SSE3), and
#: numpy's own SIMD dispatch turned off under the default kernel.
KERNELS = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "SkylakeX": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(_numpy_simd()[1])},
}


@pytest.fixture(scope="module")
def kernel_hashes(tmp_path_factory):
    """``kernel_hashes(kernel)``: train-overlap's train and evaluate hashes under it."""
    workdir = tmp_path_factory.mktemp("train-overlap")
    workloads = load_perfbench_module("workloads")
    workloads.build_inputs("train-overlap", workloads.DEFAULT_SEED, str(workdir))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}

    def run(kernel):
        if "OPENBLAS_CORETYPE" in KERNELS[kernel] and "DYNAMIC_ARCH" not in _openblas_build():
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE "
                        "cannot select its kernel")
        if kernel == "SkylakeX" and not _has_avx512f():
            pytest.skip("numpy reports no AVX512F, so the SkylakeX kernel would die with SIGILL")
        if kernel not in runs:
            env = {**os.environ, **KERNELS[kernel],
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL_RUN, str(PERFBENCH / "workloads.py"), str(workdir)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            runs[kernel] = json.loads(proc.stdout)
        return runs[kernel]

    return run


def _kernel_case(kernel, label):
    """One kernel and op; the NN model file differs from the reference on all
    but the kernel it was recorded under (SkylakeX)."""
    marks = ()
    if label == "train:nn" and kernel != "SkylakeX":
        marks = pytest.mark.xfail(strict=True, reason="the NN's arithmetic rounds per BLAS "
                                  "kernel and numpy SIMD target; ROADMAP item 1")
    return pytest.param(kernel, label, id=f"{kernel}-{label}", marks=marks)


@pytest.mark.parametrize("kernel, label", [
    _kernel_case(kernel, f"{step}:{fam}")
    for kernel in KERNELS for fam in ("knn", "cart", "rf", "nn") for step in ("train", "evaluate")
])
def test_train_and_evaluate_bytes_do_not_depend_on_the_blas_kernel(kernel_hashes, kernel,
                                                                   label):
    # The README's Determinism section: KNN, CART and forest model files, and
    # every train and evaluate report, are the same under every kernel.
    assert kernel_hashes(kernel)[label] == _reference("train-overlap")[label]
