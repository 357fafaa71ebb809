"""The block CSV readers against the row-at-a-time readers they replaced.

``bsm.read_csv`` splits plain blocks with ``str.split`` and hands the rest of
a file to ``csv.reader``; ``read_bsm_csv`` and ``read_decisions_csv`` convert
and check a block a column at a time. The oracles are the per-row readers
they replaced (``reference.read_csv``, ``read_bsm_csv`` and
``read_decisions_csv``), so every file, well formed or not, must give the
same rows, records and decisions (joined to their samples as the oracle's
pairs by ``product_calls.read_decision_pairs``), or the same error after the
same prefix, at every block size.
"""

import csv
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.bsm import (
    CSV_HEADER,
    BsmRecord,
    DataError,
    RecordBlock,
    read_bsm_csv,
    read_csv,
)
from bsmguard.pipeline import DECISIONS_HEADER

from product_calls import at_every_block_size, read_records
from product_calls import read_decision_pairs as read_decisions_csv
from reference import AggregatedSample
from reference import read_bsm_csv as oracle_read_bsm_csv
from reference import read_csv as oracle_read_csv
from reference import read_decisions_csv as oracle_read_decisions_csv

LIMIT = csv.field_size_limit()

def sample_t(i):
    """The ``t`` of sample i (from 0), which a decisions row that joins repeats."""
    return round(0.1 * (i + 1), 9)


SPECIAL = [
    '"a,b"', '"a\nb"', '"a\r\nb"', '"x""y"', 'a"b', '"', "v\r", "\r", " ", "",
    "v" * (LIMIT - 1), "v" * LIMIT, "v" * (LIMIT + 1), "é",
]
NUMBERS = ["-0.0", "1e12", "-1e12", "1e13", "-1e13", "nan", "-nan", "inf", "-inf", "1e999",
           "-1.0", "x", " 1.5", "1.5\t", "1_0", "1\xa0", "\u0661.5", '"2.5"', '"2.5\n"',
           "0x1p3", " nan"]
FLAGS = ["0", "1", " 1", "1\x0c", "01", "2", "-0", "+1", "-1", "0.5", "True", "", '"1"',
         "1_1", "\u0660", "\uff11"]


@st.composite
def row(draw, columns):
    """One data row: good fields, or one field bad or special, or a field
    short or long."""
    fields = [draw(good) for good, _ in columns]
    kind = draw(st.sampled_from(["good"] * 3 + ["bad", "special", "short", "long"]))
    at = draw(st.integers(0, len(columns) - 1))
    if kind == "bad":
        fields[at] = draw(st.sampled_from(columns[at][1]))
    elif kind == "special":
        fields[at] = draw(st.sampled_from(SPECIAL))
    elif kind == "short":
        del fields[-1]
    elif kind == "long":
        fields.append("0")
    return ",".join(fields)


@st.composite
def csv_bytes(draw, header, columns, filler):
    """A CSV file: ``header``, rows of ``columns``, blank and whitespace lines,
    mixed line ends, and maybe an undecodable byte anywhere.

    ``filler(i)`` is a plain, valid row i; a run of them at the start makes a
    file longer than one 8 KiB decoder chunk, so a bad byte can come after
    rows the reader has already yielded.
    """
    n_filler = draw(st.sampled_from([0, 0, 3, 250, 600]))
    lines = [draw(st.sampled_from([
        ",".join(header), ",".join(header), ",".join(header), ",".join(header[::-1]),
        ",".join(f'"{h}"' for h in header), "v" * (LIMIT + 1)]))]
    lines += [",".join(filler(i)) for i in range(n_filler)]
    lines += draw(st.lists(st.one_of(row(columns), row(columns), row(columns), row(columns),
                                     st.sampled_from(["", "  "])), max_size=16))
    ends = [draw(st.sampled_from(["\n"] * 10 + ["\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line break after the last line
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if draw(st.booleans()):
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[at:]


def flatten(blocks):
    """``read_csv``'s blocks as ``(line, row)`` pairs."""
    for lines, block_rows in blocks:
        yield from zip(lines, block_rows)


def outcome(items):
    """What a reader yields, and the type and message of what it raises."""
    got = []
    try:
        for item in items:
            got.append(item)
    except Exception as exc:
        return got, (type(exc), str(exc))
    return got, None


def returned(call):
    """What ``call()`` returns, and the type and message of what it raises."""
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """The file each example writes over."""
    return tmp_path_factory.mktemp("csv") / "data.csv"


BSM_COLUMNS = [
    (st.sampled_from(["0.1", "0.2", "1000.0", "5e-324"]), NUMBERS + ["0.1"]),
    (st.sampled_from(["cv1", "v2", "é", "x y"]), ["", " v", "0.1"]),
    (st.floats(0, 40).map(repr), NUMBERS),
    (st.floats(-5, 5).map(repr), NUMBERS),
    (st.sampled_from(["0", "1"]), FLAGS),
]


def bsm_filler(i):
    return [repr(sample_t(i)), "cv1", "15.6", "-0.25", str(i % 2)]


@settings(max_examples=150, deadline=None)
@given(data=csv_bytes(CSV_HEADER, BSM_COLUMNS, bsm_filler))
def test_bsm_readers_match_the_row_readers(csv_path, data):
    csv_path.write_bytes(data)
    path = str(csv_path)
    rows_expected = outcome(oracle_read_csv(path, CSV_HEADER))
    records_expected = outcome(oracle_read_bsm_csv(path))
    for got in at_every_block_size(lambda: outcome(flatten(read_csv(path, CSV_HEADER)))):
        assert got == rows_expected
    for blocks, error in at_every_block_size(lambda: outcome(read_bsm_csv(path))):
        assert all(type(block) is RecordBlock and block.t for block in blocks)
        records = [BsmRecord(*fields) for block in blocks for fields in zip(*block)]
        assert (records, error) == records_expected


def one_bad_field(columns, header):
    """Every (column, bad or special value), with an id that stays short."""
    return [pytest.param(at, value, id=f"{header[at]}-{value[:12]!r}-{len(value)}")
            for at, (_, bad) in enumerate(columns) for value in bad + SPECIAL]


#: The row of a seven-row file that gets the bad field: line 6.
BAD_ROW = 4


@pytest.mark.parametrize("at, value", one_bad_field(BSM_COLUMNS, CSV_HEADER))
def test_one_bad_bsm_field_matches_the_row_readers(csv_path, at, value):
    rows = [bsm_filler(i) for i in range(7)]
    rows[BAD_ROW][at] = value
    csv_path.write_text("".join(",".join(r) + "\n" for r in [list(CSV_HEADER), *rows]))
    rows_expected = outcome(oracle_read_csv(str(csv_path), CSV_HEADER))
    records_expected = outcome(oracle_read_bsm_csv(str(csv_path)))
    for got in at_every_block_size(
            lambda: outcome(flatten(read_csv(str(csv_path), CSV_HEADER)))):
        assert got == rows_expected
    for got in at_every_block_size(lambda: outcome(read_records(str(csv_path)))):
        assert got == records_expected


#: A row's ``t`` written as its sample's ``repr(t)``, so the row joins.
JOINED = "joined"

DECISION_COLUMNS = [
    (st.just(JOINED), NUMBERS + ["0.1", "0.30000000000000004"]),
    (st.floats(-50, 50).map(repr), NUMBERS),
    (st.sampled_from(["0", "1"]), FLAGS),
    (st.sampled_from(["0", "1"]), FLAGS),
]


def decision_filler(i):
    return [JOINED, "0.5", str(i % 2), "1"]


@settings(max_examples=150, deadline=None)
@given(data=csv_bytes(DECISIONS_HEADER, DECISION_COLUMNS, decision_filler),
       extra_samples=st.integers(-2, 1))
def test_decisions_reader_matches_the_row_reader(csv_path, data, extra_samples):
    # The i-th JOINED field becomes the i-th sample's t; the file's row count,
    # give or take a sample or two, is the sample count.
    n_joined = data.count(JOINED.encode())
    for i in range(n_joined):
        data = data.replace(JOINED.encode(), repr(sample_t(i)).encode(), 1)
    samples = [AggregatedSample(sample_t(i), 15.0, 0.0, 0)
               for i in range(max(0, n_joined + extra_samples))]
    csv_path.write_bytes(data)
    expected = returned(lambda: oracle_read_decisions_csv(str(csv_path), samples))
    for got in at_every_block_size(lambda: returned(
            lambda: read_decisions_csv(str(csv_path), samples))):
        assert got == expected


@pytest.mark.parametrize("at, value", one_bad_field(DECISION_COLUMNS, DECISIONS_HEADER))
def test_one_bad_decisions_field_matches_the_row_reader(csv_path, at, value):
    rows = [decision_filler(i) for i in range(7)]
    for i, r in enumerate(rows):
        r[0] = repr(sample_t(i))
    rows[BAD_ROW][at] = value
    csv_path.write_text("".join(",".join(r) + "\n" for r in [list(DECISIONS_HEADER), *rows]))
    samples = [AggregatedSample(sample_t(i), 15.0, 0.0, 0) for i in range(7)]
    expected = returned(lambda: oracle_read_decisions_csv(str(csv_path), samples))
    for got in at_every_block_size(lambda: returned(
            lambda: read_decisions_csv(str(csv_path), samples))):
        assert got == expected


def two_bad_fields(bad):
    """Every pair of (column, value) from ``bad`` in two different columns: each
    value fails one of a row's checks, so the pair pins the checks' order."""
    fields = [(at, value) for at, values in bad.items() for value in values]
    return [pytest.param(first, second, id=f"{first}-{second}")
            for first, second in itertools.combinations(fields, 2) if first[0] != second[0]]


#: One value per check a BSM field can fail: conversion, magnitude, label,
#: sign and plain text.
BSM_BAD = {0: ["x", "inf", " 1.5"], 2: ["x", "inf", "-1.0", "1_0"],
           3: ["x", "1e13", "\u0661.5"], 4: ["x", "2", " 1"]}


@pytest.mark.parametrize("first, second", two_bad_fields(BSM_BAD))
def test_a_bsm_row_with_two_bad_fields_fails_its_first_check(csv_path, first, second):
    rows = [bsm_filler(i) for i in range(7)]
    for at, value in (first, second):
        rows[BAD_ROW][at] = value
    csv_path.write_text("".join(",".join(r) + "\n" for r in [list(CSV_HEADER), *rows]))
    expected = outcome(oracle_read_bsm_csv(str(csv_path)))
    assert expected[1][0] is DataError
    for got in at_every_block_size(lambda: outcome(read_records(str(csv_path)))):
        assert got == expected


#: One value per check a decisions field can fail: conversion, finiteness,
#: flag value, the join to its sample's t, and plain text.
DECISIONS_BAD = {0: ["x", "nan", "0.5", " " + repr(sample_t(BAD_ROW))], 1: ["x", "inf", "1_0"],
                 2: ["x", "2", " 1"], 3: ["x", "2", "\u0661"]}


@pytest.mark.parametrize("first, second", two_bad_fields(DECISIONS_BAD))
def test_a_decisions_row_with_two_bad_fields_fails_its_first_check(csv_path, first, second):
    rows = [[repr(sample_t(i)), *decision_filler(i)[1:]] for i in range(7)]
    for at, value in (first, second):
        rows[BAD_ROW][at] = value
    csv_path.write_text("".join(",".join(r) + "\n" for r in [list(DECISIONS_HEADER), *rows]))
    samples = [AggregatedSample(sample_t(i), 15.0, 0.0, 0) for i in range(7)]
    expected = returned(lambda: oracle_read_decisions_csv(str(csv_path), samples))
    assert expected[1][0] is DataError
    for got in at_every_block_size(lambda: returned(
            lambda: read_decisions_csv(str(csv_path), samples))):
        assert got == expected


def test_a_blank_line_is_skipped_under_a_one_column_header(csv_path):
    # A blank line splits to one empty field, as wide as a one-column header;
    # csv.reader reads it as no row at all.
    csv_path.write_text("a\n1\n\n2\n")
    expected = list(oracle_read_csv(str(csv_path), ("a",)))
    assert expected == [(2, ["1"]), (4, ["2"])]
    for got in at_every_block_size(lambda: list(flatten(read_csv(str(csv_path), ("a",))))):
        assert got == expected
