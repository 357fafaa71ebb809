"""The block CSV writer against the row-at-a-time ``csv.writer`` it replaced.

``bsm.write_csv`` writes a plain block of rows as one formatted string and
hands any other block to ``csv.writer``. The oracle is the writer it
replaced, ``reference.write_csv``, one ``writerow`` per row, so any rows
must give the same file bytes, the same row count, or the same error after
the same rows, at every block size.
"""

import csv
from collections import namedtuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmguard import bsm
from bsmguard.bsm import DataError, write_csv

from reference import write_csv as oracle_write_csv

BLOCK_SIZES = (1, 2, 3, 512)

HEADER = ("a", "b", "c", "d", "e")


def rows_then_raise(rows, at):
    """``rows`` up to ``at``, then a DataError, as a reader that meets a bad line."""
    yield from rows[:at]
    raise DataError(f"bad row {at}")


def outcome(write, path, rows, at):
    """The bytes ``write`` leaves, what it returns, and the type and message of
    what it raises; ``at`` is where the rows raise, or None."""
    if at is not None:
        rows = rows_then_raise(rows, at)
    try:
        result = write(str(path), HEADER, rows), None
    except Exception as exc:
        result = None, (type(exc), str(exc))
    return path.read_bytes(), result


#: Plain fields of each column type the fast path formats.
PLAIN = {
    float: st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]),
    int: st.integers(-(2**70), 2**70),
    str: st.text(st.characters(blacklist_characters=',"\r\n'), min_size=1, max_size=4),
}

#: Fields the fast path must hand back to csv.writer.
ODD = st.sampled_from(
    ["", ",", '"', "\r", "\n", "a,b", 'x"y', "a\r\nb", " ", True, False, None,
     np.float64(1.5), np.float64("nan"), np.int64(3), 10**5000, 1.5, 7, "cv1"]
) | st.text(max_size=3)

#: How a row is passed: a tuple mostly, else as a list, a NamedTuple, one
#: field short or long, a string, or a number csv.writer cannot iterate.
SHAPES = ["tuple"] * 8 + ["list", "record", "short", "long", "string", "scalar"]


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from([float, int, str]), min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(PLAIN[kind]) for kind in kinds]
        if draw(st.integers(0, 7)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD)
        shape = draw(st.sampled_from(SHAPES))
        if shape == "tuple":
            row = tuple(row)
        elif shape == "record":
            row = namedtuple("Row", HEADER[: len(row)])(*row)
        elif shape == "short":
            row = tuple(row[:-1])
        elif shape == "long":
            row = (*row, 0.5)
        elif shape == "string":
            row = "xy"
        elif shape == "scalar":
            row = 5
        rows.append(row)
    at = draw(st.none() | st.integers(0, len(rows)))
    return rows, at


@settings(max_examples=300, deadline=None)
@given(tables())
@example(([(0.1, "cv1", 15.6, -0.25, 0)] * 5, None))
@example(([(0.1, "cv1", 15.6, -0.25, 0)] * 5, 4))
@example(([(1.0, 2), (3.0, 10**5000), (5.0, 6)], None))
@example(([(1.0,), (np.float64(2.0),), (3.0,)], None))
@example(([(True, 1), (1, 1)], None))
@example(([("a", ""), ("b", "c")], None))
@example(([(), ()], None))
def test_write_csv_matches_csv_writer_at_every_block_size(tmp_path_factory, table):
    rows, at = table
    path = tmp_path_factory.mktemp("w") / "out.csv"
    want = outcome(oracle_write_csv, path, rows, at)
    for size in BLOCK_SIZES:
        with mock.patch.object(bsm, "READ_BLOCK_LINES", size):
            assert outcome(write_csv, path, rows, at) == want, size


def test_plain_blocks_skip_csv_writer(tmp_path, monkeypatch):
    # Every row of a plain block is formatted at once; a block with one odd
    # field goes to csv.writer whole, and the blocks around it do not.
    blocks = []

    def spy(fh, **kwargs):
        writer = csv_writer(fh, **kwargs)
        return mock.Mock(writerow=writer.writerow,
                         writerows=lambda rows: (blocks.append(rows), writer.writerows(rows)))

    csv_writer = csv.writer
    monkeypatch.setattr(csv, "writer", spy)
    monkeypatch.setattr(bsm, "READ_BLOCK_LINES", 4)
    rows = [(i / 10, "cv1", float(i), -0.0, i % 2) for i in range(12)]
    rows[5] = (0.5, "cv1", 5.0, -0.0, True)
    assert write_csv(str(tmp_path / "out.csv"), HEADER, rows) == 12
    assert blocks == [rows[4:8]]
