"""Acceptance suite.

One test per criterion, each printing a PASS line with its measured values
(run with ``pytest tests/test_acceptance.py -v -s``). Criterion 1 records
that the published headline accuracies are not reproducible without the
original testbed dataset; criteria 2-11 are the substituted quantitative
gate and every tolerance is pinned here.
"""

import math
import sys
import time

import numpy as np
import pytest

from bsmguard.cli import main as cli_main
from bsmguard.config import DetectorSettings
from bsmguard.detectors import (
    BocpdConfig,
    BocpdDetector,
    CusumConfig,
    CusumDetector,
    EmConfig,
    EmDetector,
    make_detector,
)
from bsmguard.evaluate import ConfusionMatrix, auroc, metrics, timed, timing_stats
from bsmguard.ml import cart_fit, knn_predict, nn_init
from bsmguard.pipeline import feature_stream
from bsmguard.simulate import default_scenario

import reference
from product_calls import (
    aggregate_records,
    detect_pairs,
    fit_two_component_gmm,
    nn_loss_and_grads,
    sample_blocks,
)


def report(line: str) -> None:
    print(line, file=sys.stdout, flush=True)


def test_criterion_01_headline_numbers_not_reproducible():
    # The published accuracies (99.9% Bayesian change-point, 93.2% boosted
    # trees, 89.7% forest, 80% network) came from a testbed-calibrated
    # simulation dataset that is not distributed. No assertion can target
    # them; criteria 2-11 are the substituted property suite.
    report(
        "PASS criterion 1: headline accuracies acknowledged as not "
        "reproducible; substituted suite is criteria 2-11"
    )


def test_criterion_02_changepoint_efficacy_and_runtime():
    # Default synthetic scenario: 2000 aggregated samples, one sustained 5 s
    # speed-replacement window displaced ~62 noise sigmas from ambient
    # (>= 5 sigma). Each detector must average >= 0.99 accuracy over 10
    # seeds, all three within a 10 s budget.
    settings = DetectorSettings()
    started = time.perf_counter()
    means = {}
    for name in ("bocpd", "em", "cusum"):
        accs = []
        for seed in range(10):
            samples = list(aggregate_records(default_scenario(seed=seed).run()))
            assert len(samples) == 2000
            pairs = detect_pairs(samples, name, settings)
            accs.append(
                sum(1 for s, d in pairs if int(d.attack) == s.label) / len(pairs)
            )
        means[name] = sum(accs) / len(accs)
    elapsed = time.perf_counter() - started
    for name, mean_acc in means.items():
        assert mean_acc >= 0.99, f"{name} mean accuracy {mean_acc:.4f} < 0.99"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s budget"
    report(
        "PASS criterion 2: 10-seed mean accuracy "
        + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
        + f"; runtime {elapsed:.2f}s < 10s"
    )


def test_criterion_03_bocpd_matches_nig_oracle():
    # Hyperparameter trajectories against the independently coded batch
    # Normal-Inverse-Gamma posterior, every step, tolerance 1e-9 (relative
    # to magnitude), three 1000-sample random streams.
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        ys = [float(v) for v in rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), 1000)]
        det = BocpdDetector(BocpdConfig(threshold=0.0))
        for i, y in enumerate(ys, start=1):
            det.observe(y)
            mu, kappa, alpha, beta = reference.nig_posterior(ys[:i])
            for got, want in (
                (det.mu, mu),
                (det.kappa, kappa),
                (det.alpha, alpha),
                (det.beta, beta),
            ):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e} > 1e-9"
    report(f"PASS criterion 3: NIG oracle agreement, worst deviation {worst:.3e} <= 1e-9")


def test_criterion_04_cusum_zero_stream_exact():
    det = CusumDetector(CusumConfig())
    for _ in range(2000):
        decision = det.observe(3.7)
        assert decision.attack is False
        assert det.c_pos == 0.0
        assert det.c_neg == 0.0
    report("PASS criterion 4: constant stream holds C+ = C- = 0 with zero alarms (exact)")


def test_criterion_05_cusum_false_alarm_calibration():
    # 1000 seeded pure-noise streams x 1000 samples. The independently
    # coded oracle estimates the per-sample false-alarm rate; the product's
    # rate must fall inside the oracle's 95% binomial confidence interval.
    started = time.perf_counter()
    oracle_alarms = 0
    product_alarms = 0
    n_measured = 0
    cfg = CusumConfig()
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        ys = [float(v) for v in rng.normal(0.0, 1.0, 1000)]
        oracle_flags = reference.naive_cusum(
            ys, delta=cfg.delta, alpha=cfg.alpha, h=cfg.h_sigma, warmup=cfg.warmup
        )
        oracle_alarms += sum(oracle_flags[cfg.warmup :])
        det = CusumDetector(cfg)
        for y in ys:
            d = det.observe(y)
            if d.warmed_up:
                n_measured += 1
                product_alarms += d.attack
    p_oracle = oracle_alarms / n_measured
    p_product = product_alarms / n_measured
    half_width = 1.96 * math.sqrt(max(p_oracle * (1 - p_oracle), 1e-12) / n_measured)
    elapsed = time.perf_counter() - started
    assert abs(p_product - p_oracle) <= half_width, (
        f"product rate {p_product:.3e} outside oracle CI "
        f"{p_oracle:.3e} +/- {half_width:.3e}"
    )
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    report(
        f"PASS criterion 5: false-alarm rate {p_product:.3e} within oracle CI "
        f"{p_oracle:.3e} +/- {half_width:.3e}; runtime {elapsed:.1f}s < 60s"
    )


def test_criterion_06_em_loglik_monotone():
    # Every EM run here (seeded anchor-set detectors over clean and attacked
    # streams, plus random point sets) must never lose more than 1e-10
    # log-likelihood between iterations.
    worst = 0.0

    def scan(history):
        nonlocal worst
        for a, b in zip(history, history[1:]):
            worst = min(worst, b - a)

    for seed in range(5):
        rng = np.random.default_rng(seed)
        det = EmDetector(EmConfig(seed=seed))
        ys = [float(15.6 + v) for v in rng.normal(0, 0.25, 120)]
        ys[60:70] = [0.0] * 10
        for y in ys:
            det.observe(y)
            scan(det.last_ll_history)
    rng = np.random.default_rng(99)
    for _ in range(200):
        points = list(rng.normal(0, 1, 8)) + list(rng.normal(3, 2, 3))
        _, history = fit_two_component_gmm(points, 0.0, 1.0, 2.0, 1.5, 0.5)
        scan(history)
    assert worst >= -1e-10, f"log-likelihood dropped by {-worst:.3e} > 1e-10"
    report(f"PASS criterion 6: EM log-likelihood monotone (worst step {worst:.3e} >= -1e-10)")


def test_criterion_07_nn_gradient_check():
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(2024)
    for trial in range(20):
        model = nn_init(2, 10, seed=trial)
        X = rng.normal(0, 1, size=(10, 2))
        y = rng.integers(0, 2, size=10)
        _, grads = nn_loss_and_grads(model, X, y)
        arrays = {
            "w_hidden": model.w_hidden,
            "b_hidden": model.b_hidden,
            "w_out": model.w_out,
        }
        for name, arr in arrays.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = nn_loss_and_grads(model, X, y)[0]
                arr[idx] = keep - h
                down = nn_loss_and_grads(model, X, y)[0]
                arr[idx] = keep
                numeric = (up - down) / (2 * h)
                analytic = grads[name][idx]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e} >= 1e-4"
    report(f"PASS criterion 7: gradient check worst relative error {worst:.3e} < 1e-4")


def test_criterion_08_classifier_oracles():
    # KNN vs exhaustive distance sort: 5 datasets x 50 queries.
    rng = np.random.default_rng(8)
    for _ in range(5):
        X = rng.normal(0, 1, size=(40, 2))
        y = rng.integers(0, 2, size=40)
        for _ in range(50):
            q = tuple(rng.normal(0, 1.5, 2))
            assert knn_predict(X, y, q, k=19) == reference.knn_predict(X, y, q, 19)

    # CART root split vs brute-force enumeration of every candidate.
    for criterion in ("gini", "entropy"):
        for trial in range(10):
            X = rng.normal(0, 1, size=(25, 2))
            y = rng.integers(0, 2, size=25)
            if len(set(y.tolist())) < 2:
                continue
            w = np.ones(25)
            tree = cart_fit(X, y, criterion=criterion, max_depth=1)
            want = reference.brute_best_root_gain(X, y, w, criterion)
            if tree.is_leaf:
                assert want <= 1e-12
            else:
                got = reference.root_gain(X, y, w, criterion, tree)
                assert got == pytest.approx(want, abs=1e-12)

    # AUROC vs the all-pairs probability definition: every label pattern of
    # every size up to 12, tie-rich quantized scores.
    cases = 0
    for n in range(2, 13):
        for bits in range(1, 2**n - 1):
            labels = [(bits >> i) & 1 for i in range(n)]
            scores = list(np.round(rng.uniform(0, 1, n) * 4) / 4.0)
            assert auroc(scores, labels) == pytest.approx(
                reference.pairwise_auroc(scores, labels), abs=1e-12
            )
            cases += 1
    report(
        f"PASS criterion 8: KNN (250 queries), CART root splits, and AUROC "
        f"({cases} exhaustive datasets <= 12) all match their oracles"
    )


def test_criterion_09_metric_formula_fixtures():
    m = metrics(ConfusionMatrix(tp=8, tn=8, fp=2, fn=2))
    assert m.accuracy == 0.8
    assert m.precision_attack == 0.8
    assert m.detection_attack == 0.8
    m2 = metrics(ConfusionMatrix(tp=3, tn=7, fp=0, fn=0))
    assert m2.accuracy == 1.0 and m2.precision_attack == 1.0
    m3 = metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
    assert m3.detection_attack == 0.0
    assert "detection_attack" in m3.zero_denominator_flags
    report("PASS criterion 9: accuracy/precision/detection fixtures match the cited formulas exactly")


def test_criterion_10_inference_timing_ordering():
    # Per-sample inference over the default scenario's feature stream.
    # Hard assertion: the mixture detector is the slowest. The <= 1 ms mean
    # bound is asserted for the two lightweight detectors and documented for
    # the mixture one (wall-clock absolutes depend on the host).
    samples = list(aggregate_records(default_scenario(seed=0).run()))
    speeds, standardized = ([v for _, values in feature_stream(sample_blocks(samples), mode)
                             for v in values] for mode in ("speed", "standardized"))

    means = {}
    for name, values in (("bocpd", standardized), ("em", speeds), ("cusum", standardized)):
        timings = []
        observe = timed(make_detector(name).observe, timings)
        for value in values:
            observe(value)
        means[name] = timing_stats(timings).mean_ms
    assert means["em"] >= means["bocpd"], "mixture detector should be the slowest"
    assert means["em"] >= means["cusum"], "mixture detector should be the slowest"
    assert means["bocpd"] <= 1.0
    assert means["cusum"] <= 1.0
    report(
        "PASS criterion 10: per-sample means (ms) "
        + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
        + "; em largest, others <= 1 ms (em bound documented)"
    )


def test_criterion_11_cli_byte_reproducibility(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "duration_s = 60.0\nnoise_stdev = 0.25\nseed = 4\n"
        "attack.windows = 20.0:25.0\nattack.mode = constant_replace\n"
        "attack.magnitude = 0.0\n"
    )
    produced = {}
    for tag in ("a", "b"):
        csv_path = tmp_path / f"bsm_{tag}.csv"
        dec_path = tmp_path / f"dec_{tag}.csv"
        model_path = tmp_path / f"model_{tag}.json"
        rep_path = tmp_path / f"rep_{tag}.txt"
        assert cli_main(["simulate", "--config", str(scenario), "--out", str(csv_path)]) == 0
        assert cli_main(
            ["detect", str(csv_path), "--detector", "em", "--out", str(dec_path)]
        ) == 0
        assert cli_main(
            ["train", str(csv_path), "--model", "cart", "--seed", "1",
             "--out", str(model_path), "--report-out", str(rep_path)]
        ) == 0
        produced[tag] = tuple(
            p.read_bytes() for p in (csv_path, dec_path, model_path, rep_path)
        )
    assert produced["a"] == produced["b"]
    report("PASS criterion 11: simulate/detect/train re-runs are byte-identical")
