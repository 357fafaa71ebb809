"""In-memory span tracer installed around bsmguard's public functions.

The tracer wraps functions at the module attributes the CLI and pipeline
call through, so no program file changes. Each wrapped call is a frame on
one stack; a frame's self time is its duration minus the durations of the
wrapped frames it contains. Generator layers (``read_bsm_csv``,
``aggregate``, ``run_detection``) are timed inside their ``next()`` calls
only, so their consumer's work is not charged to them.

Per-sample functions (detector ``observe``, ``TransformWindow.push``,
``apply_standardizer``, ``knn_predict`` and generator steps) are aggregated
per name; every other call is also kept as a span record
``(span_id, parent_id, name, start, end)``.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.spans: list[tuple] = []
        self.hot: set[str] = set()
        self.timed: set[str] = set()  # names whose per-call durations are kept
        self.op = ""  # CLI command of the op in progress, set by the caller
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- frames -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, _clock(), 0.0, 0])
        if name not in self.hot:
            self.stack[-1][3] = self._next_id
            self._next_id += 1

    def exit(self) -> None:
        end = _clock()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if span_id:
            parent = next((f[3] for f in reversed(self.stack) if f[3]), 0)
            self.spans.append((span_id, parent, name, start, end))
        if name in self.timed:
            self.durations[name].append(dur)

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self.stack)

    def take_chain(self) -> dict[str, float]:
        """Self time per name since the last call, then reset the totals."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    # -- wrappers -----------------------------------------------------------

    def wrap_call(self, name, fn, post=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if post is not None:
                post(result, args)
            return result

        return traced

    def wrap_gen(self, name, fn):
        tracer = self
        self.hot.add(name)

        def steps(it):
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    tracer.counts[name + ".items"] += 1
                    tracer.counts[f"{name}.items@{tracer.op}"] += 1
                    yield item
            finally:
                it.close()

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _cart_nodes(node) -> int:
    n, todo = 0, [node]
    while todo:
        cur = todo.pop()
        n += 1
        if cur.feature is not None:
            todo += (cur.left, cur.right)
    return n


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions at the attributes their callers use."""
    from bsmguard import bsm, cli, detectors, ml, pipeline, simulate

    c = tracer.counts

    def call(owners, attr, name, post=None, hot=False):
        if hot:
            tracer.hot.add(name)
        fn = getattr(owners[0], attr)
        wrapped = tracer.wrap_call(name, fn, post)
        for owner in owners:
            tracer.patch(owner, attr, wrapped)

    def gen(owners, attr, name):
        wrapped = tracer.wrap_gen(name, getattr(owners[0], attr))
        for owner in owners:
            tracer.patch(owner, attr, wrapped)

    # bsm
    gen([cli], "read_bsm_csv", "bsm.read_bsm_csv")
    gen([bsm, cli, pipeline], "aggregate", "bsm.aggregate")
    call([bsm, cli], "write_bsm_csv", "bsm.write_bsm_csv")
    call([bsm, pipeline], "apply_standardizer", "bsm.apply_standardizer", hot=True)
    call([bsm, pipeline], "fit_standardizer", "bsm.fit_standardizer")
    call([bsm.TransformWindow], "push", "bsm.transform_push", hot=True)

    # simulate
    call([simulate], "generate_stream", "simulate.generate_stream")
    call([simulate], "inject_false_info", "simulate.inject_false_info")

    # pipeline
    call([cli], "detect_records", "pipeline.detect_records")
    call([pipeline], "welford_feature_stats", "pipeline.welford_feature_stats")
    gen([pipeline], "run_detection", "pipeline.run_detection")
    call([cli, pipeline], "write_decisions_csv", "pipeline.write_decisions_csv")
    call([cli, pipeline], "read_decisions_csv", "pipeline.read_decisions_csv")
    call([cli, pipeline], "detector_report", "pipeline.detector_report")
    call([cli, pipeline], "train_and_evaluate", "pipeline.train_and_evaluate")

    def scored(result, args):
        c["ml.scored_rows"] += len(args[3])

    call([cli, pipeline], "evaluate_model", "pipeline.evaluate_model", post=scored)

    # detectors
    for cls, det in ((detectors.BocpdDetector, "bocpd"), (detectors.CusumDetector, "cusum"),
                     (detectors.EmDetector, "em")):
        name = f"detectors.{det}.observe"
        tracer.timed.add(name)
        post = None
        if det == "em":
            def post(decision, args):
                if decision.warmed_up:
                    c["em.warm_observes"] += 1
                    c["em.iterations"] += len(args[0].last_ll_history)
        call([cls], "observe", name, post=post, hot=True)

    # evaluate
    call([pipeline], "auroc", "evaluate.auroc")
    call([pipeline], "detection_latency", "evaluate.detection_latency")

    def roc_rows(points, args):
        c["evaluate.roc_points_rows"] += len(args[0])

    call([cli], "roc_points", "evaluate.roc_points", post=roc_rows)
    call([cli], "write_roc_csv", "evaluate.write_roc_csv")

    # ml
    call([ml, pipeline], "grid_search", "ml.grid_search")
    call([ml, pipeline], "fit_family", "ml.fit_family")

    def tree_nodes(tree, args):
        c["ml.cart_trees"] += 1
        c["ml.cart_nodes"] += _cart_nodes(tree)

    call([ml], "cart_fit", "ml.cart_fit", post=tree_nodes)
    call([ml], "rf_fit", "ml.rf_fit")
    call([ml], "smote_balance", "ml.smote_balance")
    call([ml], "nn_train", "ml.nn_train")
    call([ml], "knn_predict", "ml.knn_predict", hot=True)

    for attr in ("predict_labels", "predict_scores"):
        def rows(result, args, attr=attr):
            c["ml.predict_rows"] += len(result)
            if tracer.inside("pipeline.evaluate_model"):
                c["ml.predict_rows_in_evaluate"] += len(result)
        call([ml.FittedModel], attr, f"ml.{attr}", post=rows)

    # model_io
    def model_bytes(result, args):
        c["model_io.model_bytes"] += os.path.getsize(args[0])

    call([cli], "save_model", "model_io.save_model", post=model_bytes)
    call([cli], "load_model", "model_io.load_model")
