"""Aggregation, standardization, and CSV schema tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.bsm import (
    AggregatedSample,
    BsmRecord,
    DataError,
    NonMonotonicTimestampError,
    aggregate,
    apply_standardizer,
    fit_standardizer,
    read_bsm_csv,
    write_bsm_csv,
)


def rec(t, speed, accel=0.0, label=0):
    return BsmRecord(t=t, vehicle_id="v1", speed=speed, accel=accel, label=label)


def make_stream(values, labels=None):
    labels = labels or [0] * len(values)
    return [
        rec(round((i + 1) * 0.1, 9), v, label=l)
        for i, (v, l) in enumerate(zip(values, labels))
    ]


class TestAggregate:
    def test_single_record_window(self):
        out = list(aggregate([rec(0.1, 10.0, 0.0)], window=0.1))
        assert out == [AggregatedSample(t=0.1, avg_speed=10.0, avg_accel=0.0, label=0)]

    def test_two_records_one_window_mean(self):
        records = [rec(0.05, 10.0), rec(0.1, 20.0)]
        out = list(aggregate(records, window=0.1))
        assert len(out) == 1
        assert out[0].avg_speed == pytest.approx(15.0)

    def test_native_rate_2000_records_2000_samples(self):
        records = make_stream([15.0] * 2000)
        out = list(aggregate(records, window=0.1))
        assert len(out) == 2000

    def test_label_or_propagation(self):
        records = [rec(0.05, 10.0, label=0), rec(0.1, 20.0, label=1)]
        out = list(aggregate(records, window=0.1))
        assert out[0].label == 1

    def test_non_monotonic_rejected_with_position(self):
        records = [rec(0.1, 10.0), rec(0.3, 10.0), rec(0.2, 10.0)]
        with pytest.raises(NonMonotonicTimestampError, match="record 2"):
            list(aggregate(records))

    def test_non_monotonic_message_names_vehicle_and_both_times(self):
        records = [rec(0.1, 10.0), rec(0.3, 10.0), rec(0.2, 10.0)]
        with pytest.raises(NonMonotonicTimestampError) as excinfo:
            list(aggregate(records))
        assert str(excinfo.value) == (
            "record 2 (vehicle 'v1', t=0.2) does not advance past previous t=0.3"
        )

    def test_equal_timestamps_rejected(self):
        records = [rec(0.1, 10.0), rec(0.1, 11.0)]
        with pytest.raises(NonMonotonicTimestampError):
            list(aggregate(records))

    def test_bad_window(self):
        with pytest.raises(ValueError):
            list(aggregate([rec(0.1, 1.0)], window=0.0))

    def test_empty_windows_skipped(self):
        records = [rec(0.1, 10.0), rec(0.5, 20.0)]
        out = list(aggregate(records, window=0.1))
        assert [o.t for o in out] == pytest.approx([0.1, 0.5])

    def test_wider_window_groups(self):
        records = make_stream([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        out = list(aggregate(records, window=0.3))
        assert len(out) == 2
        assert out[0].avg_speed == pytest.approx(2.0)
        assert out[1].avg_speed == pytest.approx(5.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=80))
    def test_idempotent_at_native_period(self, speeds):
        records = make_stream(speeds)
        once = list(aggregate(records, window=0.1))
        again_records = [
            rec(s.t, s.avg_speed, s.avg_accel, s.label) for s in once
        ]
        twice = list(aggregate(again_records, window=0.1))
        assert twice == once


class TestStandardizer:
    def test_two_point_train(self):
        params = fit_standardizer([(0.0,), (2.0,)])
        assert apply_standardizer(params, (2.0,)) == pytest.approx((1.0,))

    def test_identity_at_mean(self):
        params = fit_standardizer([(3.0,), (5.0,), (7.0,)])
        assert apply_standardizer(params, (5.0,)) == pytest.approx((0.0,))

    def test_constant_feature_floored(self):
        with pytest.warns(UserWarning, match="zero variance"):
            params = fit_standardizer([(5.0,), (5.0,), (5.0,)])
        assert apply_standardizer(params, (5.0,)) == pytest.approx((0.0,))
        assert params.stdev[0] == 1e-12

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer([])

    def test_feature_count_mismatch(self):
        params = fit_standardizer([(0.0, 1.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            apply_standardizer(params, (1.0,))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=3,
            max_size=60,
        )
    )
    def test_roundtrip_zero_mean_unit_stdev(self, rows):
        spread0 = max(r[0] for r in rows) - min(r[0] for r in rows)
        spread1 = max(r[1] for r in rows) - min(r[1] for r in rows)
        if spread0 < 1e-3 or spread1 < 1e-3:
            return  # degenerate case covered by the flooring test
        params = fit_standardizer(rows)
        z = [apply_standardizer(params, r) for r in rows]
        for j in range(2):
            col = [v[j] for v in z]
            mean = sum(col) / len(col)
            stdev = math.sqrt(sum((v - mean) ** 2 for v in col) / len(col))
            assert abs(mean) < 1e-9
            assert abs(stdev - 1.0) < 1e-9


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path):
        records = make_stream([15.123456789012, 16.0], labels=[0, 1])
        path = tmp_path / "x.csv"
        n = write_bsm_csv(path, records)
        assert n == 2
        back = list(read_bsm_csv(path))
        assert back == records  # repr round-trips floats bit-exactly

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(Exception, match="bad header"):
            list(read_bsm_csv(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,vehicle_id,speed_mps,accel_mps2,label\n0.1,v1,1.0,0.0,7\n")
        with pytest.raises(Exception, match="label"):
            list(read_bsm_csv(path))

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "x.csv"
        write_bsm_csv(path, make_stream([1.0]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


HEADER = "t,vehicle_id,speed_mps,accel_mps2,label\n"


#: The rejection of a number that float() or int() would take but write_csv never writes.
LOOSE = "holds whitespace, '_' or a non-ASCII character"


def beyond(line):
    """The magnitude rejection of data line ``line`` (line 2 of the file)."""
    return f":2: t, speed or accel is non-finite or beyond 1e+12 in {line.split(',')!r}"


@pytest.mark.parametrize(
    "body, message",
    [
        (b"", ": empty file"),
        (
            b"a,b,c\n1,2,3\n",
            ": bad header ['a', 'b', 'c'], expected t,vehicle_id,speed_mps,accel_mps2,label",
        ),
        (HEADER + "0.1,v1,1.0,0.0\n", ":2: expected 5 columns, got 4"),
        (HEADER + "0.1,v1,1.0,0.0,0,x\n", ":2: expected 5 columns, got 6"),
        (HEADER + "x,v1,1.0,0.0,0\n", ":2: could not convert string to float: 'x'"),
        (HEADER + "0.1,v1,fast,0.0,0\n", ":2: could not convert string to float: 'fast'"),
        (HEADER + "0.1,v1,1.0,up,0\n", ":2: could not convert string to float: 'up'"),
        (HEADER + "0.1,v1,1.0,0.0,0.5\n", ":2: invalid literal for int() with base 10: '0.5'"),
        (HEADER + "0.1,v1,nan,0.0,0\n", beyond("0.1,v1,nan,0.0,0")),
        (HEADER + "0.1,v1,1.0,inf,0\n", beyond("0.1,v1,1.0,inf,0")),
        (HEADER + "1e13,v1,1.0,0.0,0\n", beyond("1e13,v1,1.0,0.0,0")),
        (HEADER + "0.1,v1,1.0,0.0,2\n", ":2: label must be 0 or 1, got '2'"),
        (HEADER + "0.1,v1,-1.0,0.0,0\n", ":2: negative speed -1.0"),
        # Fails the magnitude and the sign check: the earlier check reports.
        (HEADER + "0.1,v1,-1e13,0.0,0\n", beyond("0.1,v1,-1e13,0.0,0")),
        # The line number counts the header and skipped blank lines.
        (HEADER + "0.1,v1,1.0,0.0,0\n\n0.2,v1,1.0,0.0,3\n", ":4: label must be 0 or 1, got '3'"),
        # ... and the line breaks inside quoted fields: the bad row ends on line 7.
        (HEADER + "".join(f'0.{i},"a\nb",{s},0.0,0\n' for i, s in ((1, 1.0), (2, 1.0), (3, "x"))),
         ":7: could not convert string to float: 'x'"),
        (HEADER + '0.1,"a\nb",1.0,0.0,0\n0.2,"a\nb",1.0\n', ":5: expected 5 columns, got 3"),
        (HEADER.encode() + b"0.1,v\xff,1.0,0.0,0\n", ": not UTF-8 text (invalid start byte)"),
        # float() and int() take these; write_csv never writes them.
        (HEADER + "0.1,v1,1_6.04,0.0,0\n", ":2: speed_mps '1_6.04' " + LOOSE),
        (HEADER + "0.1,v1, 16.04,0.0,0\n", ":2: speed_mps ' 16.04' " + LOOSE),
        (HEADER + "0.1 ,v1,16.04,0.0,0\n", ":2: t '0.1 ' " + LOOSE),
        (HEADER + "0.1,v1,16.04,\u0661,0\n", ":2: accel_mps2 '\u0661' " + LOOSE),
        (HEADER + "0.1,v1,16.04,0.0, 1\n", ":2: label ' 1' " + LOOSE),
        (HEADER + "0.1,v1,16.04,0.0,\u0660\n", ":2: label '\u0660' " + LOOSE),
        # A vehicle id is text, not a number: only the label is reported.
        (HEADER + "0.1,v 1_\u00e9,16.04,0.0,0_1\n", ":2: label '0_1' " + LOOSE),
        # The checks that were there first report first.
        (HEADER + "0.1,v1, 16.04,0.0,2\n", ":2: label must be 0 or 1, got '2'"),
    ],
)
def test_read_bsm_csv_rejection_messages(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    if isinstance(body, str):
        path.write_text(body, encoding="utf-8")
    else:
        path.write_bytes(body)
    with pytest.raises(DataError) as excinfo:
        list(read_bsm_csv(str(path)))
    assert str(excinfo.value) == f"{path}{message}"
