"""Rolling control-variate transform against a naive re-implementation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.bsm import TransformWindow


def naive_transform(speeds, accels, coeff=0.99):
    """Direct evaluation of the adopted formula, written independently:
    first differences inside the window, control-variate series, unbiased
    variance. List arithmetic only."""
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


def indexed_transform(speeds, accels):
    """The transform as index loops over list copies of the window, with
    the same operations in the same order as TransformWindow: its bit-exact
    oracle."""
    s = list(speeds)
    a = list(accels)
    ds = [s[j] - s[j - 1] for j in range(1, 10)]
    da = [a[j] - a[j - 1] for j in range(1, 10)]
    da_mean = math.fsum(da) / len(da)
    z = [ds[j] - 0.99 * (da[j] - da_mean) for j in range(len(ds))]
    z_mean = math.fsum(z) / len(z)
    return math.fsum((v - z_mean) ** 2 for v in z) / (len(z) - 1)


def run_window(speeds, accels):
    w = TransformWindow()
    out = None
    for s, a in zip(speeds, accels):
        out = w.push(s, a)
    return out


def test_warmup_emits_nothing():
    w = TransformWindow()
    for i in range(9):
        assert w.push(float(i), 0.0) is None
    assert w.push(9.0, 0.0) is not None


def test_constant_window_is_zero():
    assert run_window([12.0] * 10, [0.3] * 10) == 0.0


def test_linear_ramp_constant_accel_is_zero():
    speeds = [10.0 + 0.5 * i for i in range(10)]
    assert run_window(speeds, [5.0] * 10) == pytest.approx(0.0, abs=1e-12)


def test_matches_naive_oracle_on_random_windows():
    rng = np.random.default_rng(42)
    for _ in range(200):
        speeds = list(rng.normal(15.0, 2.0, 10))
        accels = list(rng.normal(0.0, 3.0, 10))
        got = run_window(speeds, accels)
        want = naive_transform(speeds, accels)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_bit_exact_against_indexed_oracle(seed):
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150]
    n = 2000
    values = rng.normal(15.0, 2.0, (2, n)).tolist()
    for row in values:
        for i in rng.choice(n, n // 4, replace=False).tolist():
            row[i] = special[int(rng.integers(len(special)))]
    speeds, accels = values
    w = TransformWindow()
    got = [w.push(s, a) for s, a in zip(speeds, accels)]
    want = [None] * 9 + [
        indexed_transform(speeds[i : i + 10], accels[i : i + 10]) for i in range(n - 9)
    ]
    assert list(map(repr, got)) == list(map(repr, want))


def test_rolls_forward_one_sample_at_a_time():
    rng = np.random.default_rng(7)
    speeds = list(rng.normal(15.0, 2.0, 25))
    accels = list(rng.normal(0.0, 3.0, 25))
    w = TransformWindow()
    outputs = []
    for s, a in zip(speeds, accels):
        v = w.push(s, a)
        if v is not None:
            outputs.append(v)
    assert len(outputs) == 25 - 9
    for i, got in enumerate(outputs):
        want = naive_transform(speeds[i : i + 10], accels[i : i + 10])
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-20, 20), min_size=10, max_size=10),
    st.lists(st.floats(-20, 20), min_size=10, max_size=10),
    st.floats(-50, 50),
)
def test_invariant_to_constant_speed_shift(self_speeds, accels, shift):
    base = run_window(self_speeds, accels)
    shifted = run_window([s + shift for s in self_speeds], accels)
    scale = max(1.0, abs(base))
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9 * scale)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-20, 20), min_size=10, max_size=10),
    st.lists(st.floats(-20, 20), min_size=10, max_size=10),
)
def test_never_negative(speeds, accels):
    assert run_window(speeds, accels) >= 0.0
