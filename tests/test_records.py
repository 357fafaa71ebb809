"""The record and decision types, and the sample block a CSV round trip joins."""

from bsmguard.bsm import (
    BsmRecord,
    SampleBlock,
    aggregate,
    join_samples,
    read_bsm_csv,
    write_bsm_csv,
)
from bsmguard.detectors import DetectorDecision
from bsmguard.simulate import default_scenario

from product_calls import aggregate_records, sample_rows


def test_field_names_and_order():
    assert BsmRecord._fields == ("t", "vehicle_id", "speed", "accel", "label")
    assert SampleBlock._fields == ("t", "avg_speed", "avg_accel", "label")
    assert DetectorDecision._fields == ("attack", "score", "warmed_up")


def test_keyword_construction_matches_positional():
    assert BsmRecord(t=0.1, vehicle_id="v1", speed=2.0, accel=-0.5, label=1) == BsmRecord(
        0.1, "v1", 2.0, -0.5, 1
    )
    assert DetectorDecision(attack=True, score=0.25, warmed_up=True).score == 0.25


def test_csv_round_trip_aggregates_to_the_same_samples(tmp_path):
    records = default_scenario(seed=3).run()
    path = tmp_path / "bsm.csv"
    write_bsm_csv(str(path), records)
    for window in (0.1, 1.0):
        direct = list(aggregate_records(records, window))
        via_csv = join_samples(aggregate(read_bsm_csv(str(path)), window))
        assert type(via_csv) is SampleBlock
        assert {type(column) for column in via_csv} == {list}
        assert sample_rows(via_csv) == direct
        assert any(s.label for s in direct) and not all(s.label for s in direct)
