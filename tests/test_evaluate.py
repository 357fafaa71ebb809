"""Metric formulas, AUROC oracle, latency, and timing stats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmguard.bsm import in_window
from bsmguard.detectors import CusumConfig, CusumDetector
from bsmguard.evaluate import (
    ConfusionMatrix,
    auroc,
    confusion,
    detection_latency,
    metrics,
    roc_counts,
    roc_points,
    timed,
    timing_stats,
)

from reference import detection_latency as oracle_detection_latency
from reference import pairwise_auroc
from reference import roc_counts as oracle_roc_counts


class TestConfusion:
    def test_all_correct(self):
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        cm = confusion(labels, labels)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 7, 0, 0)

    def test_predict_all_clean(self):
        labels = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        cm = confusion(labels, [0] * 10)
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (0, 2, 8, 0)

    def test_flipped_predictions_swap_cells(self):
        labels = [1, 0, 1, 0, 0]
        preds = [1, 0, 0, 1, 0]
        cm = confusion(labels, preds)
        flipped = confusion(labels, [1 - p for p in preds])
        assert (flipped.tp, flipped.fn) == (cm.fn, cm.tp)
        assert (flipped.tn, flipped.fp) == (cm.fp, cm.tn)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1), st.randoms())
    def test_permutation_invariant(self, pairs, rnd):
        labels = [p[0] for p in pairs]
        preds = [p[1] for p in pairs]
        shuffled = pairs[:]
        rnd.shuffle(shuffled)
        a = confusion(labels, preds)
        b = confusion([p[0] for p in shuffled], [p[1] for p in shuffled])
        assert a == b
        assert metrics(a) == metrics(b)


class TestMetrics:
    def test_cited_formula_fixture(self):
        m = metrics(ConfusionMatrix(tp=8, tn=8, fp=2, fn=2))
        assert m.accuracy == pytest.approx(0.8)
        assert m.precision_attack == pytest.approx(0.8)
        assert m.detection_attack == pytest.approx(0.8)
        assert m.precision_macro == pytest.approx(0.8)
        assert m.detection_macro == pytest.approx(0.8)
        assert m.zero_denominator_flags == ()

    def test_perfect_precision_when_no_false_positives(self):
        m = metrics(ConfusionMatrix(tp=5, tn=10, fp=0, fn=3))
        assert m.precision_attack == 1.0

    def test_zero_denominator_flagged(self):
        m = metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert m.detection_attack == 0.0
        assert "detection_attack" in m.zero_denominator_flags
        assert "precision_attack" in m.zero_denominator_flags

    def test_macro_is_unweighted_mean(self):
        m = metrics(ConfusionMatrix(tp=9, tn=1, fp=9, fn=1))
        assert m.precision_macro == pytest.approx(
            (m.precision_attack + m.precision_clean) / 2
        )


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_half(self):
        assert auroc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    def test_exhaustive_small_datasets_match_pairwise_definition(self):
        # Every two-class label pattern for sizes 2..12, with tie-rich
        # quantized scores: compare against the all-pairs definition.
        rng = np.random.default_rng(0)
        checked = 0
        for n in range(2, 13):
            for bits in range(1, 2**n - 1):
                labels = [(bits >> i) & 1 for i in range(n)]
                scores = list(np.round(rng.uniform(0, 1, n) * 3) / 3.0)
                assert auroc(scores, labels) == pytest.approx(
                    pairwise_auroc(scores, labels), abs=1e-12
                )
                checked += 1
        assert checked == sum(2**n - 2 for n in range(2, 13))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.integers(0, 1)), min_size=2, max_size=40
        )
    )
    def test_invariant_under_strictly_increasing_transforms(self, pairs):
        labels = [l for _, l in pairs]
        if not (0 < sum(labels) < len(labels)):
            return
        # Quantized scores so float rounding cannot merge distinct values
        # under the transforms (which would genuinely change the tie set).
        scores = [round(s, 6) for s, _ in pairs]
        base = auroc(scores, labels)
        assert auroc([3 * s + 7 for s in scores], labels) == pytest.approx(base)
        assert auroc([np.tanh(s) for s in scores], labels) == pytest.approx(base)

    def test_roc_points_step_through_thresholds(self):
        cases = [
            ([0.9, 0.7, 0.7, 0.2], [1, 1, 0, 0]),
            ([0.5] * 6, [1, 0, 1, 0, 0, 1]),
            ([0.0, -0.0, 0.0, 1.0], [0, 1, 1, 0]),  # one row, spelled 0.0
            ([-0.0, 0.0, -1.0], [1, 0, 0]),  # one row, spelled -0.0
        ]
        rng = np.random.default_rng(3)
        while len(cases) < 300:
            n = int(rng.integers(2, 40))
            pool = [0.0, -0.0, 1.0, *rng.uniform(-3, 3, int(rng.integers(0, 8)))]
            labels = [int(v) for v in rng.integers(0, 2, n)]
            if 0 < sum(labels) < n:
                cases.append(([float(v) for v in rng.choice(pool, n)], labels))
        for scores, labels in cases:
            pts = roc_points(scores, labels)
            n_pos = sum(labels)
            n_neg = len(labels) - n_pos
            first = {}  # -0.0 == 0.0, so they share the key of the first one seen
            for s in scores:
                first.setdefault(s, s)
            assert pts[0] == (float("inf"), 0.0, 0.0)
            assert len(pts) == len(first) + 1
            assert {repr(t) for t, _, _ in pts[1:]} == {repr(s) for s in first.values()}
            assert [p[1:] for p in pts] == sorted(p[1:] for p in pts)
            for thr, fpr, tpr in pts:
                hits = [l for s, l in zip(scores, labels) if s >= thr]
                assert (fpr, tpr) == (hits.count(0) / n_neg, hits.count(1) / n_pos)
            area = sum((f - f0) * (t + t0) / 2 for (_, f0, t0), (_, f, t) in zip(pts, pts[1:]))
            assert auroc(scores, labels) == pytest.approx(area, abs=1e-12)
            # Handed the counts, both give the same numbers without a sort.
            counts = roc_counts(scores, labels)
            assert repr(roc_points(scores, labels, counts)) == repr(pts)
            assert repr(auroc(scores, labels, counts)) == repr(auroc(scores, labels))
            assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3, 3),
                           st.integers(0, 1) | st.booleans()), max_size=40),
        st.sampled_from([0, 0, 0, 1]),
    )
    @example([], 0)  # empty
    @example([(0.5, 1), (0.2, 0)], 1)  # length mismatch
    @example([(0.5, 1), (0.2, True)], 0)  # one class
    @example([(0.0, 0), (-0.0, 1), (-0.0, True), (0.0, False)], 0)  # one row, spelled 0.0
    @example([(-0.0, 1), (0.0, 0), (-1.0, 0)], 0)  # one row, spelled -0.0
    def test_roc_counts_match_the_sorted_groupby_reference(self, pairs, cut):
        # Rows equal by repr (threshold spelling, Python int counts) or the
        # same ValueError; ``cut`` drops labels to make a length mismatch.
        scores = [s for s, _ in pairs]
        labels = [label for _, label in pairs][cut:]

        def outcome(roc):
            try:
                return repr(roc(scores, labels))
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(roc_counts) == outcome(oracle_roc_counts)


class TestLatency:
    def test_flag_at_window_start_zero_delay(self):
        stats = detection_latency([1.0, 2.0, 3.0], [0, 1, 0], [(2.0, 4.0)])
        assert stats.delays == (0.0,)
        assert stats.mean == 0.0

    def test_undetected_window_excluded_from_mean(self):
        stats = detection_latency(
            [1.0, 2.0, 3.0, 10.0, 11.0],
            [0, 0, 1, 0, 0],
            [(2.0, 4.0), (10.0, 12.0)],
        )
        assert stats.detected == 1
        assert stats.undetected == 1
        assert stats.mean == pytest.approx(1.0)

    def test_known_offsets_fixture(self):
        times = [float(t) for t in range(20)]
        flags = [0] * 20
        flags[5] = 1  # window (3, 8): delay 2
        flags[14] = 1  # window (12, 16): delay 2... and 15 also flagged
        flags[15] = 1
        stats = detection_latency(times, flags, [(3.0, 8.0), (12.0, 16.0)])
        assert stats.delays == (2.0, 2.0)
        assert stats.max == 2.0
        assert stats.undetected == 0

    def test_flag_outside_window_does_not_count(self):
        stats = detection_latency([1.0, 5.0], [1, 0], [(4.0, 6.0)])
        assert stats.undetected == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_sample_loop(self, data):
        # Times on the 0.1 s grid, some nudged to within 1e-9 of a window
        # bound, against windows whose bounds sit on that grid.
        n = data.draw(st.integers(0, 60))
        nudge = st.sampled_from([0.0, 0.0, 0.0, -1e-9, 1e-9, -5e-10, 5e-10, -2e-9, 2e-9])
        times = sorted({round(0.1 * i, 9) + data.draw(nudge) for i in range(n)})
        flags = data.draw(st.lists(st.sampled_from([0, 1, True, False]),
                                   min_size=len(times), max_size=len(times)))
        cuts = sorted(data.draw(st.lists(st.integers(0, 70), max_size=6)))
        windows = [(round(0.1 * a, 9), round(0.1 * b, 9)) for a, b in zip(cuts[::2], cuts[1::2])]
        stats = detection_latency(times, flags, windows)
        assert repr(stats) == repr(oracle_detection_latency(times, flags, windows))
        assert all(type(d) is float for d in stats.delays)


@pytest.mark.parametrize("t, covered", [
    (10.0, True), (10.0 - 5e-10, True), (10.0 - 1e-9, True), (10.0 - 2e-9, False),
    (15.0, True), (20.0 - 2e-9, True), (20.0 - 1e-9, False), (20.0 - 5e-10, False),
    (20.0, False), (20.0 + 5e-10, False), (9.0, False),
])
def test_attack_window_rule_within_1e_9_of_its_bounds(t, covered):
    # [10, 20) covers t when 10 - 1e-9 <= t < 20 - 1e-9: a time that drifts
    # just below a tick counts as on it, at either end.
    assert in_window(t, 10.0, 20.0) == covered
    assert in_window(np.array([t, t]), 10.0, 20.0).tolist() == [covered, covered]


class TestReportText:
    def test_fields_present_with_and_without_timing(self):
        from bsmguard.evaluate import EvalReport

        base = EvalReport(
            subject="cusum",
            cm=ConfusionMatrix(tp=1, tn=8, fp=0, fn=1),
            quality=metrics(ConfusionMatrix(tp=1, tn=8, fp=0, fn=1)),
            auroc_value=0.9,
        )
        text = base.to_text()
        for field in ("report_version = 1", "subject = cusum", "accuracy =",
                      "precision_macro =", "detection_macro =", "auroc ="):
            assert field in text
        assert "timing_mean_ms" not in text  # wall clock stays opt-in


class TestTiming:
    @staticmethod
    def run(step, stream):
        timings = []
        observe = timed(step, timings)
        assert [observe(item) for item in stream] == [step(item) for item in stream]
        return timing_stats(timings)

    def test_warmup_excluded_by_definition(self):
        stats = self.run(lambda v: v, range(350))
        assert stats.n_measured == 250

    def test_stream_shorter_than_warmup_rejected(self):
        with pytest.raises(ValueError, match="warm-up"):
            self.run(lambda v: v, range(100))

    def test_fields_present_and_ordered(self):
        stats = self.run(lambda v: sum(range(50)), range(500))
        assert stats.mean_ms > 0
        assert stats.p99_ms >= stats.median_ms

    def test_cusum_per_sample_cost_is_flat_in_stream_length(self):
        # O(1) state: doubling the stream cannot grow the per-sample cost.
        rng = np.random.default_rng(0)

        def run(n):
            timings = []
            observe = timed(CusumDetector(CusumConfig()).observe, timings)
            for y in rng.normal(0, 1, n).tolist():
                observe(y)
            return timing_stats(timings).median_ms

        short = min(run(2000) for _ in range(3))
        long = min(run(4000) for _ in range(3))
        assert long <= 5 * short + 1e-4
