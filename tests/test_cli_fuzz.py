"""Mutated input files keep the CLI's exit-code contract: 0, 2 or 3, never a traceback.

The bytes of a small BSM CSV, a decisions CSV, a detector config and a saved
model file are mutated and fed to ``detect``, ``report`` and ``evaluate``.
Scenario configs are not fuzzed: a mutated ``duration_s`` can ask for
billions of records.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.cli import main

SCENARIO = "duration_s = 6\nseed = 2\nattack.windows = 3:4\n"
DETECTOR_CONFIG = (
    "bocpd.threshold = 0.0002\nbocpd.input = standardized\n"
    "em.seed = 3\ncusum.h_sigma = 5.0\ncusum.warmup = 20\n"
)
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# One edit: (kind, position, byte). Bytes lean towards the characters the
# formats are made of, so mutations reach past the first parse error.
EDITS = st.lists(
    st.tuples(
        st.sampled_from("rid"),
        st.integers(0, 1 << 16),
        st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789.-+e,=\n :"{}[]')),
    ),
    min_size=1,
    max_size=6,
)


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, byte in edits:
        pos %= len(out) + 1
        if kind == "i" or pos == len(out):
            out.insert(pos, byte)
        elif kind == "r":
            out[pos] = byte
        else:
            del out[pos]
    return bytes(out)


def run(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "scenario.cfg").write_text(SCENARIO)
    (d / "det.cfg").write_text(DETECTOR_CONFIG)
    assert main(["simulate", "--config", str(d / "scenario.cfg"), "--out", str(d / "bsm.csv")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["detect", str(d / "bsm.csv"), "--detector", "cusum",
                     "--out", str(d / "decisions.csv")]) == 0
        assert main(["train", str(d / "bsm.csv"), "--model", "cart", "--folds", "2",
                     "--grid", '{"max_depth": [2]}', "--out", str(d / "model.json")]) == 0
    return d


@FUZZ
@given(edits=EDITS, detector=st.sampled_from(["bocpd", "em", "cusum"]))
def test_mutated_csv(base, edits, detector):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "bsm.csv"
        csv.write_bytes(mutate((base / "bsm.csv").read_bytes(), edits))
        run(["detect", csv, "--detector", detector, "--out", Path(tmp) / "out.csv"])
        run(["report", base / "decisions.csv", csv, "--detector", "cusum"])
        run(["evaluate", base / "model.json", csv])
        decisions = Path(tmp) / "decisions.csv"
        decisions.write_bytes(mutate((base / "decisions.csv").read_bytes(), edits))
        run(["report", decisions, base / "bsm.csv", "--detector", "cusum", "--windows", "3:4",
             "--roc-out", Path(tmp) / "roc.csv"])


@FUZZ
@given(edits=EDITS, detector=st.sampled_from(["bocpd", "em", "cusum"]))
def test_mutated_detector_config(base, edits, detector):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "det.cfg"
        cfg.write_bytes(mutate(DETECTOR_CONFIG.encode(), edits))
        run(["detect", base / "bsm.csv", "--detector", detector, "--config", cfg,
             "--out", Path(tmp) / "out.csv"])


@FUZZ
@given(edits=EDITS)
def test_mutated_model_file(base, edits):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_bytes(mutate((base / "model.json").read_bytes(), edits))
        run(["evaluate", model, base / "bsm.csv"])
