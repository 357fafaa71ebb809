#!/usr/bin/env python3
"""Seeded benchmark for bsmguard: end-to-end CLI metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream-long --seed 0 --seconds 40 --trace 0

One thread, one closed-loop caller: the workload's chain of CLI commands (see
``workloads.py``) runs through ``bsmguard.cli.main`` in process, each op
starting after the previous one returned, and the chain repeats until
``--seconds`` are spent. Untraced runs split that time across ``WORKERS``
fresh processes run one after another and pool their chains. Every op's
exit code and outputs are checked; the bytes of every output must match
``reference/<workload>.json`` on the default seed and must repeat across
chains and processes on any seed.

``--trace 0`` prints the end-to-end metrics: medians over chains, with op
times scaled to a reference machine speed (see ``calibrate.py``). ``--trace 1``
first runs one chain without tracing, then wraps the program's public
functions (see ``tracer.py``) and prints per-layer metrics:
every ``<layer>_s`` is that layer's self time per chain (its time minus the
time of wrapped layers it calls), the median over traced chains; counts are
per chain and repeat exactly for a fixed seed. ``trace.overhead_s`` is the
median traced chain's wall time minus that of the untraced chain, which runs
first and also pays first-call costs, so it can read low.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
including the machine and provenance, goes to ``.perfbench/results/``.
``--record-reference`` rewrites the reference hashes from this run.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process or
# its children, so the nn matmuls stay on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

from calibrate import SpeedSampler  # noqa: E402
from workloads import DEFAULT_SEED, DETECTORS, FAMILIES, WORKLOADS, build_inputs, make_ops  # noqa: E402

#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 5

#: An untraced run splits --seconds across this many fresh processes, run one
#: after another, and pools their chains. Each process has its own memory
#: layout, which shifts some ops by several percent for its whole life.
WORKERS = 3

#: The paper's real-time budget for one detector decision.
REALTIME_BUDGET_US = 1000.0

E2E_METRICS = (
    ("setup_s", "s"),
    ("simulate_rps", "1/s"),
    ("detect_bocpd_sps", "1/s"),
    ("detect_cusum_sps", "1/s"),
    ("detect_em_sps", "1/s"),
    ("report_sps", "1/s"),
    ("train_knn_s", "s"),
    ("train_cart_s", "s"),
    ("train_rf_s", "s"),
    ("train_nn_s", "s"),
    ("evaluate_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

#: Per-layer self times, reported per chain: metric name -> traced frame name.
LAYER_TIMES = {
    "bsm.read_bsm_csv_s": "bsm.read_bsm_csv",
    "bsm.aggregate_s": "bsm.aggregate",
    "bsm.apply_standardizer_s": "bsm.apply_standardizer",
    "bsm.transform_push_s": "bsm.transform_push",
    "bsm.write_bsm_csv_s": "bsm.write_bsm_csv",
    "simulate.generate_stream_s": "simulate.generate_stream",
    "simulate.inject_false_info_s": "simulate.inject_false_info",
    "pipeline.welford_feature_stats_s": "pipeline.welford_feature_stats",
    "pipeline.run_detection_self_s": "pipeline.run_detection",
    "pipeline.write_decisions_csv_s": "pipeline.write_decisions_csv",
    "pipeline.read_decisions_csv_s": "pipeline.read_decisions_csv",
    "pipeline.detector_report_s": "pipeline.detector_report",
    "evaluate.auroc_s": "evaluate.auroc",
    "evaluate.detection_latency_s": "evaluate.detection_latency",
    "evaluate.roc_points_s": "evaluate.roc_points",
    "ml.grid_search_s": "ml.grid_search",
    "ml.cart_fit_s": "ml.cart_fit",
    "ml.smote_balance_s": "ml.smote_balance",
    "ml.nn_train_s": "ml.nn_train",
    "ml.knn_predict_s": "ml.knn_predict",
    "ml.predict_labels_s": "ml.predict_labels",
    "ml.predict_scores_s": "ml.predict_scores",
    "model_io.save_model_s": "model_io.save_model",
    "model_io.load_model_s": "model_io.load_model",
}
for _d in DETECTORS:
    LAYER_TIMES[f"detectors.{_d}.observe_s"] = f"detectors.{_d}.observe"

PER_LAYER_METRICS = (
    [(name, "s") for name in LAYER_TIMES]
    + [
        ("bsm.csv_rows_parsed", "count"),
        ("bsm.rows_parsed_per_decision", "rows/decision"),
        ("evaluate.roc_points_rows", "count"),
        ("ml.fit_family_calls", "count"),
        ("ml.cart_fit_calls", "count"),
        ("ml.cart_nodes_per_tree", "nodes/tree"),
        ("ml.predict_rows", "count"),
        ("ml.predict_rows_per_scored_row", "rows/row"),
        ("model_io.model_bytes", "bytes"),
        ("detectors.em.em_iterations_per_observe", "iters/observe"),
    ]
    + [(f"detectors.{d}.{m}", u) for d in DETECTORS
       for m, u in (("observe_calls", "count"), ("observe_p50_us", "us"),
                    ("observe_p99_us", "us"), ("observe_p99_budget_share", "ratio"))]
    + [("trace.span_coverage", "ratio"), ("trace.layer_coverage", "ratio"),
       ("trace.overhead_s", "s")]
)


# ---------------------------------------------------------------------------
# Provenance and set-up
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bsmguard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_once(workload: str, seed: int, workdir: Path, sampler: SpeedSampler) -> float:
    """Import bsmguard in a fresh interpreter, then build the workload inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    mark = sampler.mark()
    subprocess.run([sys.executable, "-c", "import bsmguard.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    build_inputs(workload, seed, str(workdir))
    return sampler.scaled_since(mark)[1]


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Checker:
    """Checks each op's exit code and outputs; collects failures."""

    def __init__(self, reference: dict | None):
        self.reference = reference  # label -> [sha256...] on the default seed
        self.first: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op, rc, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if rc != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            problems = [f"exit code {rc}: {tail[0]}"]
        else:
            problems = self._outputs(op, stdout)
        if not problems:
            hashes = [_sha(p) for p in op.outputs]
            if self.reference is not None:
                expected, which = self.reference.get(op.label), "reference"
                if expected is None:
                    problems.append("no reference hashes for this op")
            else:
                expected, which = self.first.get(op.label), "first chain"
            if expected is not None and hashes != expected:
                problems.append(f"output bytes differ from the {which}")
            self.first.setdefault(op.label, hashes)
        self.failures += [f"{op.label}: {p}" for p in problems]

    def _outputs(self, op, stdout: str) -> list[str]:
        problems = []
        missing = [p for p in op.outputs if not os.path.isfile(p)]
        if missing:
            return [f"missing output {missing}"]
        if op.kind == "simulate":
            if f"wrote {op.samples} records" not in stdout or _lines(op.outputs[0]) != op.samples + 1:
                problems.append(f"expected {op.samples} records")
        elif op.kind == "detect":
            n = _lines(op.outputs[0]) - 1
            if n != op.samples or f"wrote {op.samples} decisions" not in stdout:
                problems.append(f"{n} decisions for {op.samples} aggregated samples")
        elif op.kind == "report":
            with open(op.outputs[0], encoding="utf-8") as fh:
                text = fh.read()
            if f"\nsamples = {op.samples}\n" not in text or f"\nsubject = {op.detector}\n" not in text:
                problems.append("report subject or sample count is wrong")
            if len(op.outputs) > 1:
                points = _lines(op.outputs[1]) - 1
                if points < 2 or f"wrote {points} ROC points" not in stdout:
                    problems.append(f"ROC file has {points} points")
        elif op.kind == "train":
            try:
                with open(op.outputs[0], encoding="utf-8") as fh:
                    doc = json.load(fh)
            except ValueError:
                doc = {}
            if not isinstance(doc, dict) or doc.get("format") != "bsmguard-model" \
                    or doc.get("family") != op.family:
                problems.append("model file header is wrong")
        elif op.kind == "evaluate":
            with open(op.outputs[0], "rb") as a, open(op.report_of, "rb") as b:
                if a.read() != b.read():
                    problems.append("evaluate does not reproduce the train report")
        return problems


def run_op(cli, op, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.op = op.kind
            tracer.enter("cli." + op.kind)
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a failed benchmark
            rc = 1
            err.write(traceback.format_exc())
        if tracer is not None:
            tracer.exit()
            tracer.op = ""
    return rc, out.getvalue(), err.getvalue()


def run_chain(cli, ops, checker, tracer=None, sampler=None) -> dict:
    """Run the op chain once; returns per-kind work and time sums.

    With a sampler, ``.time`` is each op's time at reference speed and
    ``.raw`` its wall time; without one both are wall time.
    """
    sums: dict[str, float] = {}
    start = time.perf_counter()
    for op in ops:
        mark = sampler.mark() if sampler else time.perf_counter()
        rc, stdout, stderr = run_op(cli, op, tracer)
        if sampler:
            raw, scaled = sampler.scaled_since(mark)
        else:
            raw = scaled = time.perf_counter() - mark
        checker.check(op, rc, stdout, stderr)
        key = {"detect": f"detect_{op.detector}", "train": f"train_{op.family}"}.get(op.kind, op.kind)
        sums[key + ".time"] = sums.get(key + ".time", 0.0) + scaled
        sums[key + ".raw"] = sums.get(key + ".raw", 0.0) + raw
        sums[key + ".work"] = sums.get(key + ".work", 0) + op.samples
    sums["wall"] = time.perf_counter() - start
    return sums


def repeat_chains(cli, ops, checker, seconds, tracer=None, sampler=None,
                  on_chain=None) -> list[dict]:
    """Closed loop: start another chain while its expected time still fits."""
    chains = []
    start = time.perf_counter()
    while True:
        chains.append(run_chain(cli, ops, checker, tracer, sampler))
        if on_chain is not None:
            on_chain()
        typical = statistics.median(c["wall"] for c in chains)
        if time.perf_counter() - start + typical > seconds:
            return chains


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def e2e_metrics(chains: list[dict], setup_s: float, success_rate: float,
                peak_rss_mb: float) -> dict:
    def med(f):
        return statistics.median(f(c) for c in chains)

    values = {
        "setup_s": setup_s,
        "simulate_rps": med(lambda c: c["simulate.work"] / c["simulate.time"]),
        "report_sps": med(lambda c: c["report.work"] / c["report.time"]),
        "evaluate_s": med(lambda c: c["evaluate.time"]),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": success_rate,
    }
    for d in DETECTORS:
        values[f"detect_{d}_sps"] = med(lambda c, d=d: c[f"detect_{d}.work"] / c[f"detect_{d}.time"])
    for f in FAMILIES:
        values[f"train_{f}_s"] = med(lambda c, f=f: c[f"train_{f}.time"])
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of a sorted sequence."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(tracer, chain_self: list[dict], chains: list[dict], untraced_wall: float) -> dict:
    n = len(chains)
    c = tracer.counts
    values = {}
    for metric, frame in LAYER_TIMES.items():
        values[metric] = statistics.median(s.get(frame, 0.0) for s in chain_self)
    values["bsm.csv_rows_parsed"] = c["bsm.read_bsm_csv.items"] / n
    values["bsm.rows_parsed_per_decision"] = (
        c["bsm.read_bsm_csv.items@detect"] / c["pipeline.run_detection.items"])
    values["evaluate.roc_points_rows"] = c["evaluate.roc_points_rows"] / n
    values["ml.fit_family_calls"] = tracer.calls["ml.fit_family"] / n
    values["ml.cart_fit_calls"] = c["ml.cart_trees"] / n
    values["ml.cart_nodes_per_tree"] = c["ml.cart_nodes"] / c["ml.cart_trees"]
    values["ml.predict_rows"] = c["ml.predict_rows"] / n
    values["ml.predict_rows_per_scored_row"] = c["ml.predict_rows_in_evaluate"] / c["ml.scored_rows"]
    values["model_io.model_bytes"] = c["model_io.model_bytes"] / n
    values["detectors.em.em_iterations_per_observe"] = c["em.iterations"] / c["em.warm_observes"]
    for d in DETECTORS:
        name = f"detectors.{d}.observe"
        ordered = sorted(tracer.durations[name])
        values[f"{name}_calls"] = tracer.calls[name] / n
        values[f"{name}_p50_us"] = _percentile(ordered, 0.50) * 1e6
        values[f"{name}_p99_us"] = _percentile(ordered, 0.99) * 1e6
        values[f"{name}_p99_budget_share"] = values[f"{name}_p99_us"] / REALTIME_BUDGET_US
    ops = [sum(v for k, v in s.items() if k.startswith("cli.")) for s in chain_self]
    layers = [sum(v for k, v in s.items() if not k.startswith("cli.")) for s in chain_self]
    op_time = [o + l for o, l in zip(ops, layers)]
    values["trace.span_coverage"] = statistics.median(t / ch["wall"] for t, ch in zip(op_time, chains))
    values["trace.layer_coverage"] = statistics.median(l / t for l, t in zip(layers, op_time))
    values["trace.overhead_s"] = statistics.median(ch["wall"] for ch in chains) - untraced_wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="write this run's output hashes as the workload's reference")
    p.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bsmguard" / "__init__.py").is_file():
        print(f"error: no bsmguard sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT_DIR / "work" / f"{args.workload}-seed{args.seed}"
    if args.worker:
        return run_worker(args, workdir)
    results = OUT_DIR / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import_cli():
    import bsmguard
    from bsmguard import cli

    if Path(bsmguard.__file__).resolve().parent != (SRC / "bsmguard").resolve():
        raise SystemExit(f"error: imported bsmguard from {bsmguard.__file__}, not {SRC}")
    return cli


def _reference(args) -> dict | None:
    if args.seed != DEFAULT_SEED or args.record_reference:
        return None
    path = BENCH_DIR / "reference" / f"{args.workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["hashes"]


def run_worker(args, workdir: Path) -> int:
    """One process's share of an untraced run: chains for --seconds, as JSON."""
    cli = _import_cli()
    checker = Checker(_reference(args))
    ops = make_ops(args.workload, str(workdir))
    with SpeedSampler() as sampler:
        chains = repeat_chains(cli, ops, checker, args.seconds, sampler=sampler)
    Path(args.worker).write_text(json.dumps({
        "chains": chains,
        "attempted": checker.attempted,
        "failures": checker.failures,
        "hashes": checker.first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), encoding="utf-8")
    return 0


def run_untraced(args, workdir: Path, checker: Checker) -> tuple[list[dict], float]:
    """Run WORKERS processes one after another; pool their chains.

    Each worker gets an equal share of the time still left, so time one
    leaves unused (its next chain would not have fitted) goes to the next.
    """
    chains, rss = [], 0.0
    start = time.perf_counter()
    for i in range(WORKERS):
        share = max(args.seconds - (time.perf_counter() - start), 0.0) / (WORKERS - i)
        out = workdir / f"worker{i}.json"
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(share), "--worker", str(out)]
                       + (["--record-reference"] if args.record_reference else []),
                       cwd=ROOT, check=True, timeout=170)
        part = json.loads(out.read_text(encoding="utf-8"))
        chains += part["chains"]
        rss = max(rss, part["peak_rss_mb"])
        checker.attempted += part["attempted"]
        checker.failures += part["failures"]
        if checker.first and part["hashes"] != checker.first:
            checker.failures.append(f"worker {i}: output bytes differ from worker 0")
        checker.first = checker.first or part["hashes"]
    return chains, rss


def _run(args, workdir: Path, results: Path) -> int:
    with SpeedSampler() as sampler:
        setup_s = statistics.median(setup_once(args.workload, args.seed, workdir, sampler)
                                    for _ in range(SETUP_REPS))
    cli = _import_cli()
    prov = provenance(args.workload, args.seed)
    checker = Checker(_reference(args))

    record = {"provenance": prov}
    if args.trace == 0:
        chains, rss = run_untraced(args, workdir, checker)
        success = 1.0 - len(checker.failures) / checker.attempted
        metrics = e2e_metrics(chains, setup_s, success, rss)
        print(f"error_rate = {1.0 - success!r} ratio")
    else:
        import tracer as tracing

        ops = make_ops(args.workload, str(workdir))
        warm = run_chain(cli, ops, checker)
        tr = tracing.Tracer()
        tracing.install(tr)
        chain_self: list[dict] = []
        try:
            chains = repeat_chains(cli, ops, checker, max(args.seconds - warm["wall"], 0.0),
                                   tracer=tr, on_chain=lambda: chain_self.append(tr.take_chain()))
        finally:
            tr.uninstall()
        metrics = layer_metrics(tr, chain_self, chains, warm["wall"])
        _print_trace_summary(metrics, chain_self)
        spans_path = results / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                          "spans": tr.spans}), encoding="utf-8")
        record["untraced_chain_wall_s"] = warm["wall"]
        record["top_self_s"] = _top_self(chain_self)

    if args.record_reference:
        ref_path = BENCH_DIR / "reference" / f"{args.workload}.json"
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"seed": args.seed, "hashes": checker.first},
                                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for failure in checker.failures:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    record.update(result, chains=chains, failures=checker.failures)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


def _top_self(chain_self: list[dict], k: int = 12) -> list[tuple[str, float]]:
    names = {n for s in chain_self for n in s}
    med = {n: statistics.median(s.get(n, 0.0) for s in chain_self) for n in names}
    return sorted(med.items(), key=lambda kv: -kv[1])[:k]


def _print_trace_summary(metrics: dict, chain_self: list[dict]) -> None:
    print("top self times per chain (s):")
    for name, value in _top_self(chain_self):
        print(f"  {name:36s} {value:.4f}")
    for d in DETECTORS:
        p99 = metrics[f"detectors.{d}.observe_p99_us"]["value"]
        verdict = "within" if p99 < REALTIME_BUDGET_US else "OVER"
        print(f"real-time budget: {d} observe p99 {p99:.1f} us, {verdict} "
              f"{REALTIME_BUDGET_US:.0f} us")
    cover = metrics["trace.span_coverage"]["value"]
    layers = metrics["trace.layer_coverage"]["value"]
    print(f"coverage: op spans cover {cover:.3f} of chain wall time; wrapped layers "
          f"cover {layers:.3f} of op time (remainder {1 - layers:.3f} is CLI glue); "
          f"tracing overhead {metrics['trace.overhead_s']['value']:.3f} s per chain")


if __name__ == "__main__":
    sys.exit(main())
