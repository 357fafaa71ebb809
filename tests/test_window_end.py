"""Window ends and tick times from exact integer arithmetic.

``bsm._exact_window`` spells a window with at most 9 decimals as ``W / D``
and bounds the window counts ``k`` for which ``k * W / D`` is
``round(k * window, 9)``. ``aggregate`` and ``generate_stream`` take their
times from it; the oracles are the ``round`` versions they replaced
(``reference.window_end``, ``aggregate`` and ``generate_stream``), and every
sample and tick must come out the same, ``repr`` for ``repr``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmguard import simulate
from bsmguard.bsm import (
    BSM_PERIOD_S,
    AggregatedSample,
    BsmRecord,
    DataError,
    NonMonotonicTimestampError,
    _exact_window,
    _window_end,
    aggregate,
)
from bsmguard.simulate import DrivingProfile, generate_stream

from reference import aggregate as oracle_aggregate


#: Windows of at most 9 decimals: a count of nanoseconds, at most 1e6 s.
NINE_DECIMALS = st.integers(1, 10**15).map(lambda ns: float(Fraction(ns, 10**9)))


@settings(max_examples=300, deadline=None)
@given(window=NINE_DECIMALS, data=st.data())
@example(window=0.1, data=None)
@example(window=1.0, data=None)
@example(window=123.456, data=None)
@example(window=1e-9, data=None)
def test_exact_form_matches_round_up_to_the_bound(window, data):
    whole, denom, kmax = _exact_window(window)
    assert Fraction(whole, denom) == Fraction(repr(window))
    assert 0 <= kmax <= 2**53
    ks = [kmax, kmax - 1, 1, 0]
    if data is not None:
        ks += data.draw(st.lists(st.integers(0, kmax), max_size=20))
    for k in {k for k in ks if 0 <= k <= kmax}:
        for signed in (k, -k):
            assert repr(signed * whole / denom) == repr(round(signed * window, 9)), signed
            assert repr(_window_end(signed, window)) == repr(round(signed * window, 9))


def test_exact_form_of_the_native_window():
    assert _exact_window(0.1) == (1, 10, 30023997)
    assert _exact_window(123.456)[:2] == (15432, 125)
    assert (simulate._TICK_WHOLE, simulate._TICK_DENOM, simulate._TICK_KMAX) == (1, 10, 30023997)


@pytest.mark.parametrize("window", [1 / 3, 2 / 3, 1e-10, 0.1 + 0.2, math.pi, math.inf, math.nan])
def test_window_without_the_form_always_rounds(window):
    assert _exact_window(window)[2] == -1
    if math.isfinite(window):
        for k in (1, 7, 10**6, -3):
            assert repr(_window_end(k, window)) == repr(round(k * window, 9))


@pytest.mark.parametrize("window", [1, True, 0.0, -0.1])
def test_only_positive_floats_have_the_form(window):
    assert _exact_window(window)[2] == -1


def first_miss(window):
    """A count past the bound where ``k * W / D`` is not ``round``'s end, if
    one turns up in a coarse scan of the next nine bounds' worth."""
    whole, denom, kmax = _exact_window(window)
    for k in range(kmax + 1, 10 * kmax, max(kmax // 1000, 1)):
        if k * whole / denom != round(k * window, 9):
            return k
    return None


def test_count_past_the_bound_takes_the_round_path():
    kmax = _exact_window(0.1)[2]
    miss = first_miss(0.1)
    assert miss is not None  # the bound does bind
    for k in (kmax + 1, miss, -miss, kmax + 10**6, 2**60, -(kmax + 1)):
        assert repr(_window_end(k, 0.1)) == repr(round(k * 0.1, 9))


WINDOWS = [0.1, 1.0, 0.3, 1 / 3, 123.456]

#: Per window, window counts to start a stream from: the first two, either
#: side of the bound, and where the exact form would miss, if anywhere.
STARTS = {}
for _w in WINDOWS:
    _kmax = _exact_window(_w)[2]
    STARTS[_w] = [0, 1, max(_kmax - 5, 0), _kmax + 3]
    if first_miss(_w) is not None:
        STARTS[_w].append(first_miss(_w) - 2)


@st.composite
def streams(draw, window):
    """A time-ordered stream of one vehicle: runs of records in one window
    and gaps of many, from one of the window's ``STARTS``."""
    start = draw(st.sampled_from(STARTS[window]))
    t = draw(st.sampled_from([-0.05, 0.0])) + start * window
    speed = st.sampled_from([0.0, -0.0, 0.05, 15.6, 40.0])
    records = []
    for _ in range(draw(st.integers(0, 40))):
        t += window * draw(st.sampled_from([0.013, 0.25, 0.5, 1.0, 1.0, 3.0, 17.0]))
        if records and t <= records[-1].t:
            continue
        records.append(BsmRecord(t, "v", draw(speed), draw(speed), draw(st.sampled_from([0, 1]))))
    return records


@settings(max_examples=200, deadline=None)
@given(window=st.sampled_from(WINDOWS), data=st.data())
def test_aggregate_matches_the_per_record_loop(window, data):
    records = data.draw(streams(window))
    assert repr(list(aggregate(records, window))) == repr(list(oracle_aggregate(records, window)))


@pytest.mark.parametrize("window", WINDOWS)
def test_aggregate_of_a_simulated_stream_matches_the_loop(window):
    records = generate_stream(DrivingProfile(duration_s=300.0), seed=4)
    assert repr(list(aggregate(records, window))) == repr(list(oracle_aggregate(records, window)))


def test_aggregate_stays_lazy_and_fails_at_the_same_record():
    records = [BsmRecord(0.1, "v", 1.0, 0.0, 0), BsmRecord(0.2, "v", 2.0, 0.0, 0),
               BsmRecord(0.15, "v", 3.0, 0.0, 0)]
    samples = aggregate(iter(records))
    assert next(samples) == AggregatedSample(0.1, 1.0, 0.0, 0)
    with pytest.raises(NonMonotonicTimestampError, match="record 2"):
        next(samples)
    huge = [BsmRecord(1e12, "v", 1.0, 0.0, 0)]
    with pytest.raises(DataError, match="record 0 .* overflows at window 5e-324"):
        list(aggregate(huge, 5e-324))


def test_generate_stream_times_are_the_rounded_ticks(monkeypatch):
    profile = DrivingProfile(duration_s=2000.0, noise_stdev=0.0)
    want = [round((i + 1) * BSM_PERIOD_S, 9) for i in range(profile.ticks)]
    assert repr([r.t for r in generate_stream(profile, 0)]) == repr(want)
    # Past the bound the times come from round itself.
    monkeypatch.setattr(simulate, "_TICK_KMAX", 10)
    assert repr([r.t for r in generate_stream(profile, 0)]) == repr(want)
