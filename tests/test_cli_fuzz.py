"""Mutated input files keep the CLI's exit-code contract: 0, 2 or 3, never a traceback.

The bytes of a small BSM CSV, a decisions CSV, a detector config and a saved
model file are mutated and fed to ``detect``, ``report`` and ``evaluate``.
Single values of a detector config are mutated and fed to ``detect``, so
the edits get past the parser to the config checks and the detectors.
Mutated scenario configs are fed to ``simulate``, whose CSV must then read
back; a mutated ``duration_s`` above 1,000 s is skipped, since it can ask for
billions of records.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsmguard.bsm import read_bsm_csv
from bsmguard.cli import main
from bsmguard.config import get_value, parse_flat_config

SCENARIO = "duration_s = 6\nseed = 2\nattack.windows = 3:4\n"
DETECTOR_VALUES = {
    "bocpd.threshold": "0.0002", "bocpd.input": "standardized", "em.seed": "3",
    "cusum.h_sigma": "5.0", "cusum.warmup": "20",
}
SCENARIO_VALUES = {
    "duration_s": "6", "seed": "2", "base_speed_mps": "15.6", "noise_stdev": "0.25",
    "attack.windows": "3:4,5:5.5", "attack.mode": "offset", "attack.magnitude": "-3.0",
}
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

# Edits to one config value, in the characters numbers and windows are made of.
VALUE_EDITS = st.lists(
    st.tuples(st.sampled_from("rid"), st.integers(0, 16), st.sampled_from(b"0123456789.-+e:,")),
    min_size=1,
    max_size=4,
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


def _config_text(values) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


DETECTOR_CONFIG = _config_text(DETECTOR_VALUES)


def run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


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
@given(key=st.sampled_from(sorted(DETECTOR_VALUES)), edits=VALUE_EDITS)
def test_mutated_detector_value(base, key, edits):
    value = mutate(DETECTOR_VALUES[key].encode(), edits).decode()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "det.cfg"
        cfg.write_text(_config_text({**DETECTOR_VALUES, key: value}))
        # The detector the edited key configures, so the value reaches its arithmetic.
        run(["detect", base / "bsm.csv", "--detector", key.split(".")[0], "--config", cfg,
             "--out", Path(tmp) / "out.csv"])


@FUZZ
@given(edits=EDITS)
def test_mutated_model_file(base, edits):
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_bytes(mutate((base / "model.json").read_bytes(), edits))
        run(["evaluate", model, base / "bsm.csv"])


def simulate_reads_back(text: bytes) -> None:
    """``simulate`` on ``text`` exits 0, 2 or 3; on 0 its CSV reads back, else it is
    not written. A config whose ``duration_s`` exceeds 1,000 s is skipped."""
    try:
        duration = get_value(parse_flat_config(text.decode("utf-8")), "duration_s", float)
    except (UnicodeDecodeError, ValueError):
        duration = None  # simulate rejects the file before it allocates a record
    assume(duration is None or duration <= 1000)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_bytes(text)
        out = Path(tmp) / "bsm.csv"
        if run(["simulate", "--config", cfg, "--out", out]) == 0:
            assert list(read_bsm_csv(str(out)))
        else:
            assert not out.exists()


@FUZZ
@given(edits=EDITS)
def test_mutated_scenario_config(edits):
    simulate_reads_back(mutate(_config_text(SCENARIO_VALUES).encode(), edits))


@FUZZ
@given(key=st.sampled_from(sorted(SCENARIO_VALUES)), edits=VALUE_EDITS)
def test_mutated_scenario_value(key, edits):
    value = mutate(SCENARIO_VALUES[key].encode(), edits).decode()
    simulate_reads_back(_config_text({**SCENARIO_VALUES, key: value}).encode())
