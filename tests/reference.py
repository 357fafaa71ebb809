"""One plain reference implementation of bsmguard's data path, for the tests.

Each function here is the straight-line form of a product function: one
record, row, tick, sample or array step at a time, with the arithmetic
written out. Most of them are the code the product replaced when it was made
faster or smaller. The oracle tests compare the product against them, bit
for bit unless a test states a tolerance, and a later change to the product
is checked against this one copy rather than a new one of its own.

The path runs: scenario -> records (``run_scenario``) -> CSV text
(``write_csv``) -> records (``read_bsm_csv``, one vehicle's with
``vehicle_records``) -> samples (``aggregate``) ->
detector input (``feature_stream``) -> decisions (``bocpd_decisions``,
``em_decisions``, ``naive_cusum``) -> decisions CSV
(``read_decisions_csv``) -> report counts (``confusion``, ``roc_counts``);
and labeled samples -> model input (``model_dataset``, ``stratified_folds``)
-> models (``knn_scores``, ``reference_cart_fit``, ``smote_balance``,
``nn_train``) -> model file (``model_text``).

From ``bsmguard`` this module imports only constants, record and config
types, and the product functions an oracle builds on, each listed with its
reason in ``tests/test_reference.py``, so no oracle calls the function it
checks.
"""

import csv
import dataclasses
import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np

from bsmguard.bsm import (
    ATTACK,
    BSM_PERIOD_S,
    CSV_HEADER,
    MAX_FIELD_MAGNITUDE,
    NO_ATTACK,
    STDEV_FLOOR,
    BsmRecord,
    DataError,
    NonMonotonicTimestampError,
    StandardizationParams,
)
from bsmguard.detectors import (
    EM_ATTACK_ANCHORS,
    EM_ATTACK_MEAN,
    EM_ATTACK_STDEV,
    EM_CLEAN_ANCHORS,
    EM_INIT_WEIGHT,
    EM_MAX_ITER,
    EM_TOL,
    EM_WARMUP,
    SIGMA_FLOOR,
    BocpdConfig,
    DetectorDecision,
    EmConfig,
    student_t_logpdf,
)
from bsmguard.evaluate import LatencyStats
from bsmguard.ml import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CartNode, _impurity_vec, nn_init
from bsmguard.pipeline import DECISIONS_HEADER
from bsmguard.simulate import DEFAULT_VEHICLE_ID


class AggregatedSample(NamedTuple):
    """One aggregated sample: the mean speed and acceleration over the window
    that ends at ``t``, and label 1 if any record in it was attacked. The
    product holds samples as the columns of a ``SampleBlock``."""

    t: float
    avg_speed: float
    avg_accel: float
    label: int


# ---------------------------------------------------------------------------
# Scenario -> records
# ---------------------------------------------------------------------------


def window_end(k, window):
    """The end of aggregation window ``k``; at ``BSM_PERIOD_S``, the time of tick ``k``."""
    return round(k * window, 9)


def base_trace(profile, n):
    """The noise-free speed at each of ``n`` ticks, one tick at a time."""
    if not profile.segments:
        return np.full(n, profile.base_speed)
    values = np.empty(n)
    speed = profile.base_speed
    seg_iter = iter(profile.segments)
    seg = next(seg_iter, None)
    seg_start = 0.0
    for i in range(n):
        t = (i + 1) * BSM_PERIOD_S
        while seg is not None and t > seg_start + seg.length_s:
            if seg.kind != "cruise":
                speed = seg.target_speed
            seg_start += seg.length_s
            seg = next(seg_iter, None)
        if seg is None or seg.kind == "cruise":
            values[i] = speed
        else:
            frac = (t - seg_start) / seg.length_s
            values[i] = speed + (seg.target_speed - speed) * frac
    return values


def generate_stream(profile, seed, vehicle_id=DEFAULT_VEHICLE_ID):
    """A clean stream, one record per tick; acceleration is the speed's finite difference."""
    n = int(round(profile.duration_s / BSM_PERIOD_S))
    rng = np.random.default_rng(seed)
    speeds = base_trace(profile, n)
    if profile.noise_stdev > 0:
        speeds = speeds + rng.normal(0.0, profile.noise_stdev, n)
    speeds = np.maximum(speeds, 0.0)
    records = []
    prev = None
    for i in range(n):
        v = float(speeds[i])
        a = 0.0 if prev is None else (v - prev) / BSM_PERIOD_S
        records.append(BsmRecord(window_end(i + 1, BSM_PERIOD_S), vehicle_id, v, a, 0))
        prev = v
    return records


def inject_false_info(stream, spec):
    """The stream with each record inside an attack window rewritten and labeled."""
    rng = np.random.default_rng(spec.seed)
    bounds = [(start - 1e-9, end - 1e-9) for start, end in spec.windows]
    out = []
    for rec in stream:
        t = rec.t
        if not any(lo <= t < hi for lo, hi in bounds):
            out.append(rec)
            continue
        if spec.mode == "constant_replace":
            speed = spec.magnitude
        elif spec.mode == "offset":
            speed = max(0.0, rec.speed + spec.magnitude)
        else:  # noise_burst
            speed = max(0.0, rec.speed + float(rng.normal(0.0, spec.magnitude)))
        out.append(BsmRecord(t, rec.vehicle_id, speed, rec.accel, ATTACK))
    return out


def run_scenario(scenario):
    """The records ``simulate`` writes for ``scenario``."""
    stream = generate_stream(scenario.profile, scenario.seed)
    if scenario.attack is not None and scenario.attack.windows:
        return inject_false_info(stream, scenario.attack)
    return stream


# ---------------------------------------------------------------------------
# CSV text, written and read one row at a time. Two additions to a plain
# csv.reader: a csv.Error (a field over csv.field_size_limit()) is a
# DataError at the reader's line, and after a row's other checks, a number
# whose text holds whitespace, an underscore or a non-ASCII character is a
# DataError.
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    """``header`` and ``rows`` through ``csv.writer``, one ``writerow`` each; the row count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            n += 1
    return n


def check_plain(path, lineno, header, row, columns):
    for i in columns:
        if not row[i].isascii() or re.search(r"[_\s]", row[i]):
            raise DataError(f"{path}:{lineno}: {header[i]} {row[i]!r} holds whitespace, "
                            f"'_' or a non-ASCII character")


def read_csv(path, header):
    """``(line, row)`` for each data row of a CSV with ``header``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader, None)
                if first is None:
                    raise DataError(f"{path}: empty file")
                if tuple(first) != tuple(header):
                    raise DataError(f"{path}: bad header {first!r}, expected {','.join(header)}")
                for row in reader:
                    if len(row) == len(header):
                        yield reader.line_num, row
                    elif row:
                        raise DataError(f"{path}:{reader.line_num}: expected {len(header)} "
                                        f"columns, got {len(row)}")
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_bsm_csv(path):
    """The records of a BSM CSV, each row converted and checked on its own."""
    big = MAX_FIELD_MAGNITUDE
    for lineno, row in read_csv(path, CSV_HEADER):
        t, vehicle_id, speed, accel, label = row
        try:
            t = float(t)
            speed = float(speed)
            accel = float(accel)
            label = int(label)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not (-big <= t <= big and -big <= speed <= big and -big <= accel <= big):
            raise DataError(
                f"{path}:{lineno}: t, speed or accel is non-finite or beyond "
                f"{big:g} in {row!r}"
            )
        if label not in (NO_ATTACK, ATTACK):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {row[4]!r}")
        if speed < 0:
            raise DataError(f"{path}:{lineno}: negative speed {speed!r}")
        check_plain(path, lineno, CSV_HEADER, row, (0, 2, 3, 4))
        yield BsmRecord(t, vehicle_id, speed, accel, label)


def vehicle_records(path, vehicle=None):
    """One vehicle's records from a BSM CSV, one row at a time. Without
    ``vehicle`` the first record's vehicle is the one, and a record of
    another is an error."""
    wanted = vehicle
    found = False
    for record in read_bsm_csv(path):
        if wanted is None:
            wanted = record.vehicle_id
        if record.vehicle_id == wanted:
            found = True
            yield record
        elif vehicle is None:
            raise DataError(f"{path}: multiple vehicles present; pick one with --vehicle")
    if not found:
        detail = "" if vehicle is None else f" for vehicle {vehicle!r}"
        raise DataError(f"{path}: no records{detail}")


def read_decisions_csv(path, samples):
    """A decisions CSV's rows joined to ``samples``, row i to sample i."""
    pairs = []
    row_samples = iter(samples)
    for lineno, row in read_csv(path, DECISIONS_HEADER):
        t, score, attack, warmed_up = row
        try:
            t = float(t)
            score = float(score)
            attack = int(attack)
            warmed_up = int(warmed_up)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not (math.isfinite(t) and math.isfinite(score)):
            raise DataError(f"{path}:{lineno}: non-finite t or score in {row!r}")
        if attack not in (0, 1) or warmed_up not in (0, 1):
            raise DataError(f"{path}:{lineno}: attack and warmed_up must be 0 or 1 in {row!r}")
        sample = next(row_samples, None)
        if sample is not None and t != sample.t:
            raise DataError(f"{path}:{lineno}: t={t!r} does not match its sample's t={sample.t!r}")
        check_plain(path, lineno, DECISIONS_HEADER, row, range(4))
        pairs.append((sample, DetectorDecision(attack == 1, score, warmed_up == 1)))
    if len(pairs) != len(samples):
        raise DataError(
            f"{path}: decision count {len(pairs)} does not match sample count {len(samples)}"
        )
    return pairs


# ---------------------------------------------------------------------------
# Records -> samples -> detector input
# ---------------------------------------------------------------------------


def aggregate(records, window=BSM_PERIOD_S):
    """Mean speed and acceleration per window, one record at a time."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    key = None
    speed_sum = accel_sum = 0.0
    count = 0
    label = NO_ATTACK
    prev_t = None
    for idx, (t, vehicle_id, speed, accel, rec_label) in enumerate(records):
        if prev_t is not None and t <= prev_t:
            raise NonMonotonicTimestampError(
                f"record {idx} (vehicle {vehicle_id!r}, t={t!r}) does not "
                f"advance past previous t={prev_t!r}"
            )
        prev_t = t
        try:
            k = math.ceil(t / window - 1e-9)
        except OverflowError:
            raise DataError(f"record {idx} (vehicle {vehicle_id!r}, t={t!r}): t / window "
                            f"overflows at window {window!r}") from None
        if k != key:
            if count:
                yield AggregatedSample(
                    window_end(key, window), speed_sum / count, accel_sum / count, label
                )
            speed_sum = accel_sum = 0.0
            count = 0
            label = NO_ATTACK
            key = k
        speed_sum += speed
        accel_sum += accel
        count += 1
        if rec_label == ATTACK:
            label = ATTACK
    if count:
        yield AggregatedSample(window_end(key, window), speed_sum / count, accel_sum / count,
                               label)


def transform(speeds, accels):
    """The rolling control-variate transform of one full 10-sample window:
    first differences inside the window, the series ds - 0.99 (da - mean(da)),
    and its unbiased variance, with ``math.fsum`` means."""
    ds = [speeds[j] - speeds[j - 1] for j in range(1, 10)]
    da = [accels[j] - accels[j - 1] for j in range(1, 10)]
    da_mean = math.fsum(da) / len(da)
    z = [ds[j] - 0.99 * (da[j] - da_mean) for j in range(len(ds))]
    z_mean = math.fsum(z) / len(z)
    return math.fsum((v - z_mean) ** 2 for v in z) / (len(z) - 1)


def naive_transform(speeds, accels, coeff=0.99):
    """The same transform written independently of ``transform`` and the
    product: first differences inside the window, the control-variate
    series, unbiased variance, with plain left-to-right sums. Equal to them
    within rounding, not bit for bit."""
    assert len(speeds) == len(accels)
    ds = []
    da = []
    for j in range(1, len(speeds)):
        ds.append(speeds[j] - speeds[j - 1])
        da.append(accels[j] - accels[j - 1])
    da_bar = sum(da) / len(da)
    z = []
    for j in range(len(ds)):
        z.append(ds[j] - coeff * (da[j] - da_bar))
    zbar = sum(z) / len(z)
    acc = 0.0
    for v in z:
        acc += (v - zbar) ** 2
    return acc / (len(z) - 1)


def feature_stream(samples, mode):
    """Each sample's detector input in ``mode``: its speed, its speed
    standardized by the stream's Welford mean and population stdev, or the
    transform of the window it closes (None while the window fills)."""
    speeds = [s.avg_speed for s in samples]
    if mode == "speed":
        return speeds
    if mode == "standardized":
        mean = m2 = 0.0
        for count, v in enumerate(speeds, start=1):
            delta = v - mean
            mean += delta / count
            m2 += delta * (v - mean)
        stdev = max(math.sqrt(m2 / len(speeds)), STDEV_FLOOR)
        return [(v - mean) / stdev for v in speeds]
    accels = [s.avg_accel for s in samples]
    return [None if i < 9 else transform(speeds[i - 9:i + 1], accels[i - 9:i + 1])
            for i in range(len(samples))]


# ---------------------------------------------------------------------------
# bocpd: the batch Normal-Inverse-Gamma posterior, and the run-length
# posterior of Adams & MacKay (2007)
# ---------------------------------------------------------------------------


def nig_posterior(ys, mu0=0.0, kappa0=0.1, alpha0=1e-5, beta0=1e-5):
    """Closed-form batch Normal-Inverse-Gamma posterior after observing ys.

    Textbook update equations, written independently of the sequential code:
        kappa_n = kappa0 + n
        mu_n    = (kappa0 mu0 + n ybar) / kappa_n
        alpha_n = alpha0 + n / 2
        beta_n  = beta0 + ssd/2 + kappa0 n (ybar - mu0)^2 / (2 kappa_n)
    """
    n = len(ys)
    if n == 0:
        return mu0, kappa0, alpha0, beta0
    ybar = math.fsum(ys) / n
    ssd = math.fsum((y - ybar) ** 2 for y in ys)
    kappa_n = kappa0 + n
    mu_n = (kappa0 * mu0 + n * ybar) / kappa_n
    alpha_n = alpha0 + n / 2.0
    beta_n = beta0 + 0.5 * ssd + kappa0 * n * (ybar - mu0) ** 2 / (2.0 * kappa_n)
    return mu_n, kappa_n, alpha_n, beta_n


def bocpd_decisions(values, config=BocpdConfig()):
    """The single-trajectory detector's decisions: each value is scored by its
    Student-t predictive density under ``nig_posterior`` of the values accepted
    so far, and a flagged value (past warm-up, density below the threshold) is
    not accepted. O(n) per value. The scores agree with the sequential updates
    to about 1e-9, so a score that close to the threshold may flag either way."""
    accepted = []
    out = []
    for i, y in enumerate(values):
        mu, kappa, alpha, beta = nig_posterior(accepted, config.mu0, config.kappa,
                                               config.alpha, config.beta)
        scale = math.sqrt(beta * (kappa + 1) / (alpha * kappa))
        score = math.exp(student_t_logpdf(y, df=2 * alpha, mean=mu, scale=scale))
        warmed = i >= config.warmup
        attack = warmed and score < config.threshold
        if not attack:
            accepted.append(y)
        out.append(DetectorDecision(attack, score, warmed))
    return out


class RunLengthMatrixBocpd:
    """Full run-length-distribution variant.

    Tracks the joint over every run-length hypothesis with one NIG posterior
    per hypothesis, constant hazard. O(t) state per step.
    """

    def __init__(self, hazard=0.01, mu0=0.0, kappa0=0.1, alpha0=1e-5, beta0=1e-5):
        self.h = hazard
        self.prior = (mu0, kappa0, alpha0, beta0)
        self.mu = [mu0]
        self.kappa = [kappa0]
        self.alpha = [alpha0]
        self.beta = [beta0]
        self.joint = np.array([1.0])

    def step(self, y):
        preds = np.array(
            [
                math.exp(
                    student_t_logpdf(
                        y,
                        df=2 * a,
                        mean=m,
                        scale=math.sqrt(b * (k + 1) / (a * k)),
                    )
                )
                for m, k, a, b in zip(self.mu, self.kappa, self.alpha, self.beta)
            ]
        )
        growth = self.joint * preds * (1.0 - self.h)
        cp = float(np.sum(self.joint * preds * self.h))
        joint = np.concatenate([[cp], growth])
        self.joint = joint / np.sum(joint)
        # Every hypothesis absorbs y; a fresh prior heads the list.
        new_mu = [self.prior[0]]
        new_kappa = [self.prior[1]]
        new_alpha = [self.prior[2]]
        new_beta = [self.prior[3]]
        for m, k, a, b in zip(self.mu, self.kappa, self.alpha, self.beta):
            new_beta.append(b + k * (y - m) ** 2 / (2 * (k + 1)))
            new_mu.append((k * m + y) / (k + 1))
            new_kappa.append(k + 1)
            new_alpha.append(a + 0.5)
        self.mu, self.kappa, self.alpha, self.beta = new_mu, new_kappa, new_alpha, new_beta
        return int(np.argmax(self.joint))


# ---------------------------------------------------------------------------
# cusum
# ---------------------------------------------------------------------------


def naive_cusum(ys, delta=1.0, alpha=0.025, h=5.0, warmup=50):
    """Independent straight-line re-implementation of the adopted update.

    Estimates mu/sigma from the first ``warmup`` values, then walks the
    stream with plain floats. Returns the list of attack flags (one per
    observation, False during warm-up).
    """
    flags = []
    head = ys[:warmup]
    mu = sum(head) / warmup
    var = sum((v - mu) ** 2 for v in head) / (warmup - 1)
    sigma = max(math.sqrt(var), 1e-8)
    k = delta * sigma / 2.0
    ewma = mu
    cp = cn = 0.0
    for i, y in enumerate(ys):
        if i < warmup:
            flags.append(False)
            continue
        d = ewma - mu
        if d > k:
            cp = max(0.0, cp + (d / sigma**2) * (y - mu - d / 2.0))
        if d < -k:
            cn = max(0.0, cn + (-d / sigma**2) * (mu - y + d / 2.0))
        ewma = ewma + alpha * (y - ewma)
        alarm = cp > h or cn > h
        if alarm:
            cp = cn = 0.0
        flags.append(alarm)
    return flags


# ---------------------------------------------------------------------------
# em: the straightforward EM loop, one pass per quantity
# ---------------------------------------------------------------------------


def norm_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.9189385332046727


def responsibility(y, mu1, s1, mu2, s2, pi2):
    """Posterior probability that y came from the attack component (index 2)."""
    la = math.log(pi2) + norm_logpdf(y, mu2, s2) if pi2 > 0 else -math.inf
    lb = math.log(1.0 - pi2) + norm_logpdf(y, mu1, s1) if pi2 < 1 else -math.inf
    if la == -math.inf:
        return 0.0
    if lb == -math.inf:
        return 1.0
    m = max(la, lb)
    ea = math.exp(la - m)
    eb = math.exp(lb - m)
    return ea / (ea + eb)


def m_step(points, resp):
    n = len(points)
    w2 = math.fsum(resp)
    w1 = n - w2
    if w2 <= 0.0 or w1 <= 0.0:
        raise ValueError("degenerate responsibilities")
    mu2 = math.fsum(r * x for r, x in zip(resp, points)) / w2
    mu1 = math.fsum((1.0 - r) * x for r, x in zip(resp, points)) / w1
    var2 = math.fsum(r * (x - mu2) ** 2 for r, x in zip(resp, points)) / w2
    var1 = math.fsum((1.0 - r) * (x - mu1) ** 2 for r, x in zip(resp, points)) / w1
    s1 = max(math.sqrt(var1), SIGMA_FLOOR)
    s2 = max(math.sqrt(var2), SIGMA_FLOOR)
    return mu1, s1, mu2, s2, w2 / n


def loglik(points, mu1, s1, mu2, s2, pi2):
    total = 0.0
    for x in points:
        la = math.log(pi2) + norm_logpdf(x, mu2, s2) if pi2 > 0 else -math.inf
        lb = math.log(1.0 - pi2) + norm_logpdf(x, mu1, s1) if pi2 < 1 else -math.inf
        m = max(la, lb)
        total += m + math.log(math.exp(la - m) + math.exp(lb - m))
    return total


def em_fit(points, mu1, s1, mu2, s2, pi2):
    """E-step, M-step, then a separate log-likelihood pass, per iteration."""
    s1 = max(s1, SIGMA_FLOOR)
    s2 = max(s2, SIGMA_FLOOR)
    ll_history = []
    for _ in range(EM_MAX_ITER):
        resp = [responsibility(x, mu1, s1, mu2, s2, pi2) for x in points]
        try:
            new = m_step(points, resp)
        except ValueError:
            break
        delta = max(
            abs(new[0] - mu1), abs(new[1] - s1), abs(new[2] - mu2),
            abs(new[3] - s2), abs(new[4] - pi2),
        )
        mu1, s1, mu2, s2, pi2 = new
        ll_history.append(loglik(points, mu1, s1, mu2, s2, pi2))
        if delta < EM_TOL:
            break
    return (mu1, s1, mu2, s2, pi2), ll_history


def em_fits(values, seed=0):
    """Per value: None for the first EM_WARMUP, which seed the anchors, then
    ``(theta, ll_history, score)`` of ``em_fit`` on the anchors plus the value.

    The anchors are EM_CLEAN_ANCHORS draws from the warm-up's mean and sample
    stdev (floored) and EM_ATTACK_ANCHORS from the fixed attack component, in
    that order from one generator seeded with ``seed``; every fit starts from
    the warm-up mean and stdev and the attack component's prior.
    """
    head = list(values[:EM_WARMUP])
    fits = [None] * len(head)
    if len(values) <= EM_WARMUP:
        return fits
    mean = math.fsum(head) / len(head)
    stdev = max(math.sqrt(math.fsum((x - mean) ** 2 for x in head) / (len(head) - 1)),
                SIGMA_FLOOR)
    rng = np.random.default_rng(seed)
    anchors = [float(v) for v in rng.normal(mean, stdev, EM_CLEAN_ANCHORS)]
    anchors += [float(v) for v in rng.normal(EM_ATTACK_MEAN, EM_ATTACK_STDEV, EM_ATTACK_ANCHORS)]
    for y in values[EM_WARMUP:]:
        theta, ll = em_fit(anchors + [y], mean, stdev, EM_ATTACK_MEAN, EM_ATTACK_STDEV,
                           EM_INIT_WEIGHT)
        fits.append((theta, ll, responsibility(y, *theta)))
    return fits


def em_decisions(values, config=EmConfig()):
    """The mixture detector's decisions: a warmed-up value is flagged when its
    attack responsibility is above the threshold."""
    return [DetectorDecision(False, 0.0, False) if fit is None
            else DetectorDecision(fit[2] > config.threshold, fit[2], True)
            for fit in em_fits(values, config.seed)]


# ---------------------------------------------------------------------------
# Report: confusion, AUROC and latency
# ---------------------------------------------------------------------------


def confusion(labels, flags):
    """``(tp, tn, fp, fn)`` with attack (1) as the positive class."""
    pairs = list(zip(labels, flags))
    return (pairs.count((1, 1)), pairs.count((0, 0)), pairs.count((0, 1)),
            pairs.count((1, 0)))


def pairwise_auroc(scores, labels):
    """Direct average over all positive/negative pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


def roc_counts(scores, labels):
    """Cumulative (threshold, fp, tp) rows for predict-attack-when-score >=
    threshold: the ``inf`` endpoint, then one row per distinct score from a
    stable descending ``sorted``, spelled as its first occurrence and grouped
    with ``groupby``."""
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    rows = [(math.inf, 0, 0)]
    fp = tp = 0
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    for thr, group in itertools.groupby(ranked, key=scores.__getitem__):
        hits = [labels[i] for i in group]
        tp += hits.count(1)
        fp += len(hits) - hits.count(1)
        rows.append((thr, fp, tp))
    if fp == 0 or tp == 0:
        raise ValueError("ROC and AUROC need both classes present")
    return rows


def detection_latency(times, attack_flags, windows):
    """Each window's first in-window flag, found one sample at a time."""
    delays = []
    undetected = 0
    for start, end in windows:
        first = None
        for t, flag in zip(times, attack_flags):
            if flag and start - 1e-9 <= t < end - 1e-9:
                first = t
                break
        if first is None:
            undetected += 1
        else:
            delays.append(first - start)
    return LatencyStats(delays=tuple(delays), undetected=undetected)


# ---------------------------------------------------------------------------
# Labeled samples -> model input
# ---------------------------------------------------------------------------


def fit_standardizer(rows):
    """Per-feature mean and population stdev, reading each value with ``float()``."""
    if len(rows) == 0:
        raise ValueError("cannot fit a standardizer on an empty training set")
    n = len(rows)
    means, stdevs = [], []
    for j in range(len(rows[0])):
        col = [float(row[j]) for row in rows]
        mean = math.fsum(col) / n
        stdev = math.sqrt(math.fsum((x - mean) ** 2 for x in col) / n)
        means.append(mean)
        stdevs.append(STDEV_FLOOR if stdev < STDEV_FLOOR else stdev)
    return StandardizationParams(mean=tuple(means), stdev=tuple(stdevs))


def apply_standardizer(params, row):
    """One row standardized: a tuple of ``(float(x) - m) / s``."""
    if len(row) != len(params.mean):
        raise ValueError(f"expected {len(params.mean)} features, got {len(row)}")
    return tuple((float(x) - m) / s for x, m, s in zip(row, params.mean, params.stdev))


def stratified_split(y, test_fraction, seed):
    """Sorted train and test indices, each class's permutation cut at its test share."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        n_test = min(max(int(round(len(idx) * test_fraction)), 1), len(idx) - 1)
        test.append(idx[:n_test])
        train.append(idx[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def stratified_folds(y, folds, seed):
    """Sorted fold indices, each class's permutation dealt out one index at a time."""
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(folds)]
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        for pos, i in enumerate(idx):
            buckets[pos % folds].append(int(i))
    return [np.sort(np.array(b, dtype=int)) for b in buckets]


def model_dataset(samples, seed, test_fraction, std=None):
    """``(X_train, y_train, X_test, y_test, std)``, built and standardized row by row."""
    X_raw = np.array([[s.avg_speed, s.avg_accel] for s in samples], dtype=float)
    y = np.array([s.label for s in samples], dtype=int)
    if len(np.unique(y)) < 2:
        raise DataError("the train/test split needs both classes present in the data")
    train_idx, test_idx = stratified_split(y, test_fraction, seed)
    if std is None:
        std = fit_standardizer(X_raw[train_idx])
    X = np.array([apply_standardizer(std, row) for row in X_raw])
    return X[train_idx], y[train_idx], X[test_idx], y[test_idx], std


# ---------------------------------------------------------------------------
# KNN and SMOTE: full stable sorts
# ---------------------------------------------------------------------------


def knn_scores(X_train, y_train, Q, k):
    """Attack fraction among each query row's k nearest training rows: every
    distance row fully stable-sorted (ties by training index), first k kept."""
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=int)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    d2 = np.zeros((len(Q), len(X_train)))
    for j in range(X_train.shape[1]):
        d2 += (X_train[:, j] - Q[:, j, None]) ** 2
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.mean(y_train[order] == 1, axis=1)


def knn_predict(X_train, y_train, query, k):
    """``(label, score)`` of one query: attack only on a strict majority."""
    score = float(knn_scores(X_train, y_train, [query], k)[0])
    return (1 if score > 0.5 else 0, score)


def smote_balance(X, y, k=5, seed=0):
    """A (rows, rows, features) difference array, a full stable argsort of
    every distance row, ``rng.uniform()`` fractions and one synthetic row per
    loop step."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise DataError("balancing needs both classes present")
    minority = int(classes[np.argmin(counts)])
    majority = int(classes[np.argmax(counts)])
    n_min, n_maj = int(counts.min()), int(counts.max())
    if n_min == n_maj:
        return X.copy(), y.copy()
    if n_min < 2:
        raise DataError("minority class needs at least 2 samples for interpolation")
    rng = np.random.default_rng(seed)
    target = (n_min + n_maj) // 2
    keep_maj = rng.choice(np.flatnonzero(y == majority), size=target, replace=False)
    X_min = X[np.flatnonzero(y == minority)]
    d2 = np.sum((X_min[:, None, :] - X_min[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    k_eff = min(k, n_min - 1)
    neighbor_idx = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    n_new = target - n_min
    synth = np.empty((n_new, X.shape[1]))
    for s in range(n_new):
        i = int(rng.integers(0, n_min))
        j = int(neighbor_idx[i, int(rng.integers(0, k_eff))])
        frac = rng.uniform()
        synth[s] = X_min[i] + frac * (X_min[j] - X_min[i])
    X_out = np.concatenate([X[keep_maj], X_min, synth])
    y_out = np.concatenate(
        [np.full(target, majority, dtype=int), np.full(n_min + n_new, minority, dtype=int)]
    )
    return X_out, y_out


# ---------------------------------------------------------------------------
# CART: scalar impurity, brute-force and per-node split searches, row walks
# ---------------------------------------------------------------------------


def impurity(counts, criterion="gini"):
    """Node impurity from (possibly weighted) per-class counts, the scalar
    reference for ``ml._impurity_vec``.

    gini is sum_{c1 != c2} p(c1) p(c2); entropy is the usual -sum p log2 p.
    All-zero counts are rejected.
    """
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("impurity needs at least one counted sample")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    p = [float(c) / total for c in counts]
    if criterion == "gini":
        value = 0.0
        for c1 in range(len(p)):
            for c2 in range(len(p)):
                if c1 == c2:
                    continue
                value += p[c1] * p[c2]
        return value
    if criterion == "entropy":
        return -sum(pi * math.log2(pi) for pi in p if pi > 0.0)
    raise ValueError(f"unknown criterion {criterion!r}")


def brute_best_root_gain(X, y, w, criterion):
    """Exhaustive search: enumerate every midpoint of every feature and
    compute the weighted impurity decrease directly."""

    def imp(idx):
        w0 = sum(w[i] for i in idx if y[i] == 0)
        w1 = sum(w[i] for i in idx if y[i] == 1)
        if w0 + w1 == 0:
            return 0.0, 0.0
        return impurity((w0, w1), criterion), w0 + w1

    all_idx = list(range(len(y)))
    parent, total = imp(all_idx)
    best = 0.0
    for j in range(X.shape[1]):
        values = sorted(set(X[:, j]))
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2
            left = [i for i in all_idx if X[i, j] <= thr]
            right = [i for i in all_idx if X[i, j] > thr]
            il, wl = imp(left)
            ir, wr = imp(right)
            gain = parent - (wl / total) * il - (wr / total) * ir
            best = max(best, gain)
    return best


def root_gain(X, y, w, criterion, tree):
    """The weighted impurity decrease of ``tree``'s root split."""
    w0 = sum(w[i] for i in range(len(y)) if y[i] == 0)
    w1 = sum(w[i] for i in range(len(y)) if y[i] == 1)
    total = w0 + w1
    parent = impurity((w0, w1), criterion)
    left = [i for i in range(len(y)) if X[i, tree.feature] <= tree.threshold]
    right = [i for i in range(len(y)) if X[i, tree.feature] > tree.threshold]

    def imp(idx):
        a = sum(w[i] for i in idx if y[i] == 0)
        b = sum(w[i] for i in idx if y[i] == 1)
        return impurity((a, b), criterion), a + b

    il, wl = imp(left)
    ir, wr = imp(right)
    return parent - (wl / total) * il - (wr / total) * ir


def reference_split_gains(X, y, w, criterion, min_leaf):
    """Every candidate of one node as (gain, feature, threshold, left_rows):
    the node re-sorts its own rows and scans them in (feature, threshold) order."""
    n = len(y)
    w0_total = float(np.sum(w[y == 0]))
    w1_total = float(np.sum(w[y == 1]))
    total = w0_total + w1_total
    parent = float(_impurity_vec(np.array([w0_total]), np.array([w1_total]), criterion)[0])
    out = []
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        ws = w[order]
        cum0 = np.cumsum(np.where(ys == 0, ws, 0.0))
        cum1 = np.cumsum(np.where(ys == 1, ws, 0.0))
        boundary = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        boundary = boundary[(boundary >= min_leaf) & (boundary <= n - min_leaf)]
        left0 = cum0[boundary - 1]
        left1 = cum1[boundary - 1]
        right0 = w0_total - left0
        right1 = w1_total - left1
        wl = (left0 + left1) / total
        wr = (right0 + right1) / total
        gains = (
            parent
            - wl * _impurity_vec(left0, left1, criterion)
            - wr * _impurity_vec(right0, right1, criterion)
        )
        for pos, gain in zip(boundary, gains):
            out.append((gain, j, float((xs[pos - 1] + xs[pos]) / 2.0), order[:pos]))
    return out


def reference_cart_fit(X, y, criterion, max_depth, min_split, min_leaf, weights):
    """A tree grown node by node, each node's first best candidate of
    ``reference_split_gains`` winning unless a later one gains more by over 1e-15."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    w = np.array([1.0 if weights is None else float(weights[int(c)]) for c in y])

    def build(idx, depth):
        ys, ws = y[idx], w[idx]
        w0 = float(np.sum(ws[ys == 0]))
        w1 = float(np.sum(ws[ys == 1]))
        total = w0 + w1
        node = CartNode(
            impurity=float(_impurity_vec(np.array([w0]), np.array([w1]), criterion)[0]),
            counts=(w0, w1),
            n_samples=len(idx),
        )
        best = None
        if depth < max_depth and len(idx) >= min_split and w0 != 0.0 and w1 != 0.0:
            for cand in reference_split_gains(X[idx], ys, ws, criterion, min_leaf):
                if best is None or cand[0] > best[0] + 1e-15:
                    best = (float(cand[0]),) + cand[1:]
        if best is None:
            node.probs = (w0 / total, w1 / total)
            return node
        _, node.feature, node.threshold, left_rows = best
        left_mask = np.zeros(len(idx), dtype=bool)
        left_mask[left_rows] = True
        node.left = build(idx[left_mask], depth + 1)
        node.right = build(idx[~left_mask], depth + 1)
        return node

    return build(np.arange(len(y)), 0)


def bootstraps(n, n_trees, seed):
    """The row indices a forest of ``n_trees`` draws for each tree from ``n`` rows."""
    children = np.random.SeedSequence(seed).spawn(n_trees)
    return [np.random.default_rng(ss).integers(0, n, size=n) for ss in children]


def walk(node, x):
    """Recursive single-row descent to a leaf's attack probability."""
    if node.is_leaf:
        return node.probs[1]
    return walk(node.left if x[node.feature] <= node.threshold else node.right, x)


def forest_score(trees, x):
    """One row's mean attack probability over a forest's trees."""
    return float(np.mean([walk(t, x) for t in trees]))


def tree_depth(node):
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left), tree_depth(node.right))


# ---------------------------------------------------------------------------
# The network: per-array forward, loss and gradients, and Adam loop
# ---------------------------------------------------------------------------


def nn_logits(model, X):
    """The output logits and relu hidden layer of each row of ``X``."""
    hidden = np.maximum(X @ model.w_hidden + model.b_hidden, 0.0)
    return hidden @ model.w_out + model.b_out, hidden


def nn_forward(model, X):
    """Attack probability per row."""
    return 1.0 / (1.0 + np.exp(-nn_logits(model, np.asarray(X, dtype=float))[0]))


def nn_loss_and_grads(model, X, y):
    """Mean binary cross-entropy of one batch and its gradients, per array."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    logits, hidden = nn_logits(model, X)
    loss = float(np.mean(np.maximum(logits, 0.0) - y * logits + np.log1p(np.exp(-np.abs(logits)))))
    probs = 1.0 / (1.0 + np.exp(-logits))
    dlogits = (probs - y) / n
    grads = {"w_out": hidden.T @ dlogits, "b_out": float(np.sum(dlogits))}
    dhidden = np.outer(dlogits, model.w_out)
    dhidden[hidden <= 0.0] = 0.0
    grads["w_hidden"] = X.T @ dhidden
    grads["b_hidden"] = np.sum(dhidden, axis=0)
    return loss, grads


def nn_train(X, y, epochs, batch_size, lr, seed, n_hidden):
    """The per-array Adam loop: one parameter array at a time, each step."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    model = nn_init(X.shape[1], n_hidden, seed=int(rng.integers(2**32)))
    m = {k: 0.0 for k in ("w_hidden", "b_hidden", "w_out", "b_out")}
    v = {k: 0.0 for k in m}
    params = {"w_hidden": model.w_hidden, "b_hidden": model.b_hidden, "w_out": model.w_out}
    step = 0
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            loss, grads = nn_loss_and_grads(model, X[batch], y[batch])
            assert math.isfinite(loss)
            step += 1
            corr1 = 1.0 - ADAM_BETA1**step
            corr2 = 1.0 - ADAM_BETA2**step
            for key in ("w_hidden", "b_hidden", "w_out"):
                g = grads[key]
                m[key] = ADAM_BETA1 * m[key] + (1 - ADAM_BETA1) * g
                v[key] = ADAM_BETA2 * v[key] + (1 - ADAM_BETA2) * g * g
                params[key] -= lr * (m[key] / corr1) / (np.sqrt(v[key] / corr2) + ADAM_EPS)
            g = grads["b_out"]
            m["b_out"] = ADAM_BETA1 * m["b_out"] + (1 - ADAM_BETA1) * g
            v["b_out"] = ADAM_BETA2 * v["b_out"] + (1 - ADAM_BETA2) * g * g
            model.b_out -= lr * (m["b_out"] / corr1) / (math.sqrt(v["b_out"] / corr2) + ADAM_EPS)
    return model


# ---------------------------------------------------------------------------
# Fitted models: row scores and the model file
# ---------------------------------------------------------------------------


def row_scores(model, Q):
    """A fitted model's attack score of each row of ``Q``, one row at a time
    (the network, one matrix forward in any case, on all rows at once)."""
    if model.family == "knn":
        X, y = model.state
        return [knn_predict(X, y, q, model.params["k"])[1] for q in Q]
    if model.family == "cart":
        return [walk(model.state, q) for q in Q]
    if model.family == "rf":
        return [forest_score(model.state, q) for q in Q]
    return nn_forward(model.state, Q)


def tree_to_dict(node):
    """The node's set fields, children nested: the model file's tree schema."""
    d = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)
         if getattr(node, f.name) is not None}
    if not node.is_leaf:
        d["left"], d["right"] = tree_to_dict(node.left), tree_to_dict(node.right)
    return d


def payload(model):
    """A fitted model's state in the model file's dict schema."""
    state = model.state
    if model.family == "knn":
        return {"train_features": state[0].tolist(), "train_labels": state[1].tolist()}
    if model.family == "cart":
        return {"tree": tree_to_dict(state)}
    if model.family == "rf":
        return {"trees": [tree_to_dict(t) for t in state]}
    return {name: np.asarray(getattr(state, name)).tolist()
            for name in ("w_hidden", "b_hidden", "w_out", "b_out")}


def model_text(model, std, seed, test_fraction):
    """What ``save_model(path, model, std, seed, test_fraction)`` writes, by ``json.dumps``."""
    doc = {
        "format": "bsmguard-model",
        "version": 1,
        "family": model.family,
        "params": model.params,
        "seed": seed,
        "test_fraction": test_fraction,
        "standardizer": {"mean": list(std.mean), "stdev": list(std.stdev)},
        "payload": payload(model),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Seeded inputs and cases that tests in more than one module share
# ---------------------------------------------------------------------------


def model_data(seed=0, n=80):
    """Two standard-normal features; the label is the first one's sign under noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 2))
    y = ((X[:, 0] + rng.normal(0, 0.3, n)) > 0).astype(int)
    return X, y


#: (detector, input mode) pairs that claim to be online: they read no
#: statistic of a sample that comes later in the stream. Standardized input
#: is the documented exception: it standardizes with whole-stream statistics.
ONLINE_MODES = (("em", "speed"), ("bocpd", "speed"), ("bocpd", "transform"),
                ("cusum", "speed"), ("cusum", "transform"))


#: One small grid cell per family.
MODEL_PARAMS = {
    "knn": {"k": 5},
    "cart": {"criterion": "entropy", "max_depth": 4},
    "rf": {"n_trees": 8, "max_depth": 4, "min_split": 4, "min_leaf": 2},
    "nn": {"epochs": 3, "batch_size": 20, "lr": 0.05, "n_hidden": 10},
}
