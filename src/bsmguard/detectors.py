"""Online change-point detectors for scalar feature streams.

Three sequential state machines share one interface: ``observe(y)`` consumes
one value and returns a DetectorDecision. Each instance owns its state and
must not receive concurrent observe calls; independent instances are safe to
run on separate streams.

Score semantics differ per detector:

* bocpd:  posterior-predictive density of y (LOW means suspicious),
* em:     responsibility of the attack mixture component (high suspicious),
* cusum:  max of the one-sided control statistics (high suspicious).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DetectorDecision",
    "WARMUP_DECISION",
    "BocpdConfig",
    "EmConfig",
    "CusumConfig",
    "BocpdDetector",
    "EmDetector",
    "CusumDetector",
    "student_t_logpdf",
    "gmm_m_step",
    "make_detector",
    "DetectorKind",
    "DETECTORS",
    "DETECTOR_NAMES",
]

#: Lower bound on every estimated standard deviation inside the detectors,
#: so constant warm-up windows stay finite.
SIGMA_FLOOR = 1e-8


class DetectorDecision(NamedTuple):
    """Per-sample verdict: flag, continuous score, and warm-up marker."""

    attack: bool
    score: float
    warmed_up: bool


#: The decision for an observation a detector buffers, or the transform
#: window consumes, while it warms up.
WARMUP_DECISION = DetectorDecision(False, 0.0, False)


def _require_finite(y: float) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"observation must be finite, got {y!r}")
    return y


def _warmup_stats(values: list[float]) -> tuple[float, float]:
    """Mean and sample stdev (n - 1, floored at SIGMA_FLOOR) of a warm-up buffer."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
    return mean, max(math.sqrt(var), SIGMA_FLOOR)


def _complete_warmup(init: Callable[[list[float]], None], buffer: list[float], y: float) -> None:
    """Call ``init`` on the warm-up ``buffer`` plus its completing value ``y``.

    When it raises, y is left out of the buffer. The buffered values are
    dropped too when their own ``_warmup_stats`` raise, for every later
    completing value would then raise as well; so is a single buffered
    value, which alone cannot show whether it or y overflowed. The warm-up
    then starts again on the values that follow.
    """
    try:
        init(buffer + [y])
    except ArithmeticError:
        try:
            _warmup_stats(buffer)  # a ZeroDivisionError for one value
        except ArithmeticError:
            buffer.clear()
        raise


def student_t_logpdf(y: float, df: float, mean: float, scale: float) -> float:
    """Log density of the location-scale Student-t distribution.

    ``scale`` is the scale parameter sigma (not its square); the Bayesian
    detector passes sqrt(beta*(kappa+1)/(alpha*kappa)).
    """
    if not (df > 0) or not math.isfinite(df):
        raise ValueError(f"df must be positive and finite, got {df!r}")
    if not (scale > 0) or not math.isfinite(scale):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    z = (float(y) - float(mean)) / scale
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - math.log(scale)
        - (df + 1.0) / 2.0 * math.log1p(z * z / df)
    )


# ---------------------------------------------------------------------------
# Bayesian online change-point detector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BocpdConfig:
    """Normal-Inverse-Gamma prior and alarm threshold."""

    mu0: float = 0.0
    kappa: float = 0.1
    alpha: float = 1e-5
    beta: float = 1e-5
    threshold: float = 0.0002  # alarm when predictive density drops below
    warmup: int = 10  # updates consumed before alarms may fire

    def __post_init__(self) -> None:
        if self.kappa <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("kappa, alpha and beta must all be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")


class BocpdDetector:
    """Single-trajectory Bayesian online change-point detector.

    Maintains one Normal-Inverse-Gamma posterior over the in-control mean and
    variance. Each observation is scored by its posterior-predictive
    Student-t density; a density below the threshold is declared an attack
    and leaves the posterior untouched. Otherwise the conjugate updates
    advance:

        beta  += kappa * (y - mu)^2 / (2 * (kappa + 1))
        mu     = (kappa * mu + y) / (kappa + 1)
        kappa += 1
        alpha += 1/2

    ``tests/reference.py`` keeps the full run-length-distribution variant
    (``RunLengthMatrixBocpd``) as an oracle; this path is O(1) per observation.
    """

    def __init__(self, config: BocpdConfig | None = None):
        self.config = config or BocpdConfig()
        self.mu = self.config.mu0
        self.kappa = self.config.kappa
        self.alpha = self.config.alpha
        self.beta = self.config.beta
        self.observed = 0

    def predictive_logpdf(self, y: float) -> float:
        """Log predictive density of y under the current posterior."""
        scale = math.sqrt(self.beta * (self.kappa + 1.0) / (self.alpha * self.kappa))
        return student_t_logpdf(y, df=2.0 * self.alpha, mean=self.mu, scale=scale)

    def observe(self, y: float) -> DetectorDecision:
        y = _require_finite(y)
        p = math.exp(self.predictive_logpdf(y))
        warmed = self.observed >= self.config.warmup
        # A change point leaves the posterior untouched: it accumulates only
        # in-control data, so a sustained false regime stays suspicious for
        # its whole duration.
        attack = warmed and p < self.config.threshold
        if not attack:
            self.beta += self.kappa * (y - self.mu) ** 2 / (2.0 * (self.kappa + 1.0))
            self.mu = (self.kappa * self.mu + y) / (self.kappa + 1.0)
            self.kappa += 1.0
            self.alpha += 0.5
        self.observed += 1
        return DetectorDecision(attack, p, warmed)


# ---------------------------------------------------------------------------
# Mixture-responsibility detector (per-observation EM on a seeded anchor set)
# ---------------------------------------------------------------------------


#: Observations buffered to seed the anchor set.
EM_WARMUP = 10
EM_CLEAN_ANCHORS = 7
EM_ATTACK_ANCHORS = 3
#: The fixed attack component the attack anchors are drawn from.
EM_ATTACK_MEAN = 0.5
EM_ATTACK_STDEV = 1.0
#: Initial mixing proportion of the attack component.
EM_INIT_WEIGHT = 0.80
EM_TOL = 1e-8
EM_MAX_ITER = 200


@dataclass(frozen=True)
class EmConfig:
    """Responsibility alarm threshold and the anchor-draw seed."""

    threshold: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


#: log(sqrt(2 pi)), the normal log-density's constant term.
_LOG_SQRT_2PI = 0.9189385332046727


def _e_step(
    points: list[float], mu1: float, s1: float, mu2: float, s2: float, pi2: float
) -> tuple[list[float], float]:
    """Attack responsibilities of ``points`` and their mixture log-likelihood.

    The log-likelihood is the sum, in point order, of each point's log
    normaliser ``m + log(exp(la - m) + exp(lb - m))`` with ``m = max(la, lb)``,
    so it costs no extra pass. The larger term's exp is ``exp(0.0) = 1.0``, so
    each point computes only the other one. A point that both components rule
    out makes the total nan and gets responsibility 0.0. Both stdevs must be
    positive.
    """
    log_pa = math.log(pi2) if pi2 > 0 else -math.inf
    log_pb = math.log(1.0 - pi2) if pi2 < 1 else -math.inf
    log_s1 = math.log(s1)
    log_s2 = math.log(s2)
    c, exp, log = _LOG_SQRT_2PI, math.exp, math.log  # locals for the per-point loop
    resp: list[float] = []
    total = 0.0
    for x in points:
        za = (x - mu2) / s2
        zb = (x - mu1) / s1
        la = log_pa + (-0.5 * za * za - log_s2 - c)
        lb = log_pb + (-0.5 * zb * zb - log_s1 - c)
        if lb > la:
            e = exp(la - lb)
            total += lb + log(e + 1.0)
            resp.append(e / (e + 1.0))
        else:
            e = exp(lb - la)
            total += la + log(1.0 + e)
            resp.append(1.0 / (1.0 + e) if la != -math.inf else 0.0)
    return resp, total


def _clean_total(n: int, w2: float) -> float:
    """The clean component's total weight, given the attack one's, ``w2``."""
    w1 = n - w2
    if w2 <= 0.0 or w1 <= 0.0:
        raise ValueError("degenerate responsibilities: one component owns nothing")
    return w1


def _m_half(points: list[float], weights: list[float], total: float) -> tuple[float, float]:
    """One component's weighted mean and stdev (floored at SIGMA_FLOOR)."""
    mu = math.fsum(list(map(operator.mul, weights, points))) / total
    var = math.fsum([w * (x - mu) ** 2 for w, x in zip(weights, points)]) / total
    return mu, max(math.sqrt(var), SIGMA_FLOOR)


#: An M-step's clean half (weights 1 - r): its weights, their total, mean, stdev.
_Clean = tuple[list[float], float, float, float]
_Theta = tuple[float, float, float, float, float]


def _m_step(
    points: list[float], resp: list[float], clean: _Clean | None = None
) -> tuple[_Theta, _Clean]:
    """``gmm_m_step``'s theta and clean half, reusing ``clean`` (the previous
    M-step's) when its weight list and total equal these: equal inputs give
    equal outputs."""
    n = len(points)
    w2 = math.fsum(resp)
    w1, weights = _clean_total(n, w2), [1.0 - r for r in resp]
    if clean is None or clean[1] != w1 or clean[0] != weights:
        clean = (weights, w1, *_m_half(points, weights, w1))
    mu2, s2 = _m_half(points, resp, w2)
    return (clean[2], clean[3], mu2, s2, w2 / n), clean


def gmm_m_step(points: list[float], resp: list[float]) -> _Theta:
    """Weighted MLE of both Gaussian components given attack responsibilities.

    Returns (mu1, s1, mu2, s2, pi2) with both stdevs floored at SIGMA_FLOOR.
    The mixing proportion is the mean responsibility.
    """
    return _m_step(points, resp)[0]


def _em_from(
    points: list[float],
    resp: list[float],
    theta: _Theta,
    first_m_step=_m_step,
) -> tuple[_Theta, list[float], list[float]]:
    """EM iterations from ``resp``, the responsibilities of ``points`` under ``theta``.

    Each iteration is an M-step then an E-step; the E-step's log-likelihood
    joins the history. An M-step that returns the theta (``==``) whose E-step
    this loop already ran has reached its exact fixed point: that E-step would
    repeat, so the last history entry is appended again and the loop stops,
    as the full iteration would with a zero parameter change. Returns the
    fitted theta, the history and the responsibilities under the fitted theta.

    An M-step reuses the previous one's clean half (weights 1 - r) when its
    weight list and total are unchanged (``==``, exact here: E-step
    responsibilities are never nan or -0.0): equal inputs give equal outputs.
    The attack half is always computed: with ``resp`` unchanged, theta would
    repeat and the loop stop. ``first_m_step`` stands in for ``_m_step`` in
    the first iteration; ``EmDetector`` passes one that reuses its anchors' terms.
    """
    ll_history: list[float] = []
    m_step = first_m_step
    clean: _Clean | None = None
    for _ in range(EM_MAX_ITER):
        try:
            new, clean = m_step(points, resp, clean)
        except ValueError:
            break  # one component vanished; keep the last stable fit
        m_step = _m_step
        if ll_history and new == theta:
            # ``new`` still replaces ``theta``: ``==`` holds for 0.0 and -0.0.
            theta = new
            ll_history.append(ll_history[-1])
            break
        delta = max(abs(a - b) for a, b in zip(new, theta))
        theta = new
        resp, loglik = _e_step(points, *theta)
        ll_history.append(loglik)
        if delta < EM_TOL:
            break
    return theta, ll_history, resp


class EmDetector:
    """Per-observation mixture classifier seeded from the stream's opening.

    The first EM_WARMUP observations are buffered. Their mean and sample
    variance parameterize a draw of EM_CLEAN_ANCHORS clean anchors, joined by
    EM_ATTACK_ANCHORS anchors from the fixed attack component
    N(EM_ATTACK_MEAN, EM_ATTACK_STDEV^2).
    Every later observation y is classified by running EM to convergence on
    the anchors plus y and thresholding y's attack responsibility.
    ``last_ll_history`` holds that fit's log-likelihood per M-step; on a
    typical stream it has two entries, the second a repeat of the first,
    since the second M-step returns the first one's theta bit for bit.

    Every fit starts from the same theta, so its first M-step weights the
    anchors by the same responsibilities. The anchors' terms of that step's
    attack sums (r*x, and r*(x - mu2)^2 for the last mu2 seen) are kept as
    plain lists, to which y's term is appended before ``fsum``: the same
    terms in the same order as ``_m_step``'s, so the same double. Later
    M-steps reuse an unchanged clean half (see ``_em_from``); on a typical
    stream the second M-step's clean weights equal the first's, so it
    computes only its attack half.

    All randomness comes from the seed carried in the config, so decision
    sequences are bit-for-bit reproducible.
    """

    def __init__(self, config: EmConfig | None = None):
        self.config = config or EmConfig()
        self._buffer: list[float] = []
        self.anchors: list[float] | None = None
        self.seed_mean = 0.0
        self.theta: _Theta | None = None
        self.last_ll_history: list[float] = []

    def _build_anchors(self, buffer: list[float]) -> None:
        mean, stdev = _warmup_stats(buffer)
        rng = np.random.default_rng(self.config.seed)
        clean = rng.normal(mean, stdev, EM_CLEAN_ANCHORS)
        attack = rng.normal(EM_ATTACK_MEAN, EM_ATTACK_STDEV, EM_ATTACK_ANCHORS)
        anchors = [float(v) for v in clean] + [float(v) for v in attack]
        # Every fit starts from this theta (both stdevs are already at or
        # above SIGMA_FLOOR), so the anchors' part of its first E-step is fixed.
        theta0 = (mean, stdev, EM_ATTACK_MEAN, EM_ATTACK_STDEV, EM_INIT_WEIGHT)
        resp, _ = _e_step(anchors, *theta0)
        self._rx_terms = list(map(operator.mul, resp, anchors))
        self._var_share: tuple[float, list[float]] | None = None
        self._anchor_resp = resp
        self._anchor_clean = [1.0 - r for r in resp]
        self._theta0 = theta0
        self.seed_mean = mean
        self.anchors = anchors

    def _first_m_step(self, points: list[float], resp: list[float], _clean) -> tuple:
        """``_m_step`` at theta0: the anchors' terms of the attack mean and
        variance sums are built once, so only y's terms are computed here."""
        y, r = points[-1], resp[-1]
        n = len(points)
        w2 = math.fsum(resp)
        w1, weights = _clean_total(n, w2), self._anchor_clean + [1.0 - r]
        clean = (weights, w1, *_m_half(points, weights, w1))
        mu2 = math.fsum(self._rx_terms + [r * y]) / w2
        share = self._var_share
        # ``!=`` does not tell 0.0 from -0.0, and neither do the squares.
        if share is None or share[0] != mu2:
            terms = [q * (x - mu2) ** 2 for q, x in zip(self._anchor_resp, self.anchors)]
            share = self._var_share = (mu2, terms)
        var2 = math.fsum(share[1] + [r * (y - mu2) ** 2]) / w2
        return (clean[2], clean[3], mu2, max(math.sqrt(var2), SIGMA_FLOOR), w2 / n), clean

    def observe(self, y: float) -> DetectorDecision:
        y = _require_finite(y)
        if self.anchors is None:
            if len(self._buffer) + 1 == EM_WARMUP:
                _complete_warmup(self._build_anchors, self._buffer, y)
            self._buffer.append(y)
            return WARMUP_DECISION

        resp = self._anchor_resp + _e_step([y], *self._theta0)[0]
        self.theta, self.last_ll_history, resp = _em_from(
            self.anchors + [y], resp, self._theta0, self._first_m_step
        )
        score = resp[-1]
        return DetectorDecision(score > self.config.threshold, score, True)


# ---------------------------------------------------------------------------
# Adaptive CUSUM detector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CusumConfig:
    """Slack multiplier, EWMA weight, and alarm threshold in sigma units."""

    delta: float = 1.0
    alpha: float = 0.025  # EWMA weight of each new observation
    h_sigma: float = 5.0  # alarm threshold, in units of the estimated sigma
    warmup: int = 50  # observations used to estimate the in-control mean/sigma

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.h_sigma <= 0:
            raise ValueError("h_sigma must be positive")
        if self.warmup < 2:
            raise ValueError("warmup must be at least 2")


class CusumDetector:
    """Two-sided adaptive CUSUM with an EWMA drift estimate.

    The in-control target mu and scale sigma come from the first ``warmup``
    observations (sample stdev, floored); the slack K = delta * sigma / 2.
    Each step takes the drift estimate D = ewma - mu from the previous
    step's EWMA. Drifts inside the slack band are treated as in-control;
    beyond it, each side accumulates the log-likelihood-ratio increment for
    a mean shift of size D:

        c_pos = max(0, c_pos + (D/sigma^2) * (y - mu - D/2))    when D > K
        c_neg = max(0, c_neg + (-D/sigma^2) * (mu - y + D/2))   when D < -K

    after which the EWMA advances: ewma += alpha * (y - ewma). Both
    statistics are scale-free (sigma^2 in the denominator), so the alarm
    compares them against h_sigma directly and the decision sequence is
    invariant to rescaling the stream. An alarm resets both statistics to
    zero; the EWMA keeps tracking, so a sustained shift re-alarms
    immediately.
    """

    def __init__(self, config: CusumConfig | None = None):
        self.config = config or CusumConfig()
        self._buffer: list[float] = []
        self.mu = 0.0
        self.sigma = 1.0
        self.k = 0.0  # slack delta*sigma/2; drifts inside it do not accumulate
        self.ewma = 0.0
        self.c_pos = 0.0
        self.c_neg = 0.0
        self.ready = False

    def _init_from_buffer(self, buffer: list[float]) -> None:
        self.mu, self.sigma = _warmup_stats(buffer)
        self.k = self.config.delta * self.sigma / 2.0
        self.ewma = self.mu
        self.ready = True

    def observe(self, y: float) -> DetectorDecision:
        y = _require_finite(y)
        if not self.ready:
            if len(self._buffer) + 1 == self.config.warmup:
                _complete_warmup(self._init_from_buffer, self._buffer, y)
            self._buffer.append(y)
            return WARMUP_DECISION

        var = self.sigma * self.sigma
        drift = self.ewma - self.mu  # uses the EWMA from the previous step
        if drift > self.k:
            self.c_pos = max(0.0, self.c_pos + (drift / var) * (y - self.mu - drift / 2.0))
        if drift < -self.k:
            self.c_neg = max(0.0, self.c_neg + (-drift / var) * (self.mu - y + drift / 2.0))
        self.ewma += self.config.alpha * (y - self.ewma)

        score = max(self.c_pos, self.c_neg)
        attack = score > self.config.h_sigma
        if attack:
            self.c_pos = 0.0
            self.c_neg = 0.0
        return DetectorDecision(attack, score, True)


@dataclass(frozen=True)
class DetectorKind:
    """A detector's class, its config dataclass, default input mode and score sign."""

    cls: type
    config: type  # each field is one ``<name>.<field>`` config key
    input: str
    orientation: float  # sign that makes a larger score more suspicious


#: The one table of detectors. bocpd scores by predictive density, which
#: drops under attack, hence its negative orientation.
DETECTORS: dict[str, DetectorKind] = {
    "bocpd": DetectorKind(BocpdDetector, BocpdConfig, "standardized", -1.0),
    "em": DetectorKind(EmDetector, EmConfig, "speed", 1.0),
    "cusum": DetectorKind(CusumDetector, CusumConfig, "standardized", 1.0),
}

DETECTOR_NAMES = tuple(DETECTORS)


def make_detector(name: str, config=None):
    """Build a detector by name with its config (or defaults)."""
    if name not in DETECTORS:
        raise ValueError(f"unknown detector {name!r}; expected one of {DETECTOR_NAMES}")
    return DETECTORS[name].cls(config)
