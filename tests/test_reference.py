"""The reference implementation's independence, and the CLI against it end to end.

``tests/reference.py`` is the one place an oracle is defined. It may import
from ``bsmguard`` only what ``ALLOWED`` lists, so no oracle quietly calls the
function it checks, and no test module imports another. The end-to-end test
runs ``simulate``, ``detect`` and ``report`` on small scenarios, at the
native and coarser aggregation windows, and checks their files against the
reference's data path.
"""

import ast
import contextlib
import io
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmguard.bsm import BSM_PERIOD_S, CSV_HEADER
from bsmguard.cli import main
from bsmguard.detectors import DETECTORS, BocpdConfig, CusumConfig
from bsmguard.pipeline import DECISIONS_HEADER
from bsmguard.simulate import ATTACK_MODES, scenario_from_mapping

import reference

TESTS = Path(__file__).resolve().parent

CONSTANT = "a constant that sets the output the oracles reproduce"
TYPE = "a record, config or error type the oracles build, read or raise"

#: Every name ``tests/reference.py`` may import from ``bsmguard``, with its reason.
ALLOWED = {
    **dict.fromkeys([("bsmguard.bsm", name) for name in (
        "ATTACK", "BSM_PERIOD_S", "CSV_HEADER", "MAX_FIELD_MAGNITUDE", "NO_ATTACK",
        "STDEV_FLOOR")], CONSTANT),
    **dict.fromkeys([("bsmguard.detectors", name) for name in (
        "EM_ATTACK_ANCHORS", "EM_ATTACK_MEAN", "EM_ATTACK_STDEV", "EM_CLEAN_ANCHORS",
        "EM_INIT_WEIGHT", "EM_MAX_ITER", "EM_TOL", "EM_WARMUP", "SIGMA_FLOOR")], CONSTANT),
    **dict.fromkeys([("bsmguard.ml", name) for name in (
        "ADAM_BETA1", "ADAM_BETA2", "ADAM_EPS")], CONSTANT),
    ("bsmguard.pipeline", "DECISIONS_HEADER"): CONSTANT,
    ("bsmguard.simulate", "DEFAULT_VEHICLE_ID"): CONSTANT,
    **dict.fromkeys([("bsmguard.bsm", name) for name in (
        "AggregatedSample", "BsmRecord", "DataError", "NonMonotonicTimestampError",
        "StandardizationParams")], TYPE),
    **dict.fromkeys([("bsmguard.detectors", name) for name in (
        "BocpdConfig", "DetectorDecision", "EmConfig")], TYPE),
    ("bsmguard.evaluate", "LatencyStats"): TYPE,
    ("bsmguard.ml", "CartNode"): (
        "the tree type reference_cart_fit builds, so its trees and cart_fit's compare "
        "through one tree_to_dict"),
    ("bsmguard.ml", "_impurity_vec"): (
        "the per-node CART reference scores its candidates with the product's impurity; "
        "test_cart.py and acceptance criterion 8 check cart_fit's root gains against the "
        "scalar reference.impurity by brute force"),
    ("bsmguard.ml", "nn_init"): (
        "the Adam reference starts from the product's seeded uniform draw, which holds no "
        "arithmetic to check; test_nn.py checks its range"),
    ("bsmguard.detectors", "student_t_logpdf"): (
        "the predictive density of RunLengthMatrixBocpd and bocpd_decisions; test_student_t.py "
        "checks it on its own by symmetry, the normal limit and scipy quadrature"),
}


def imports(path):
    """``(module, name)`` of each name ``path`` imports; ``name`` is None for ``import module``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {(node.module or "", alias.name) for alias in node.names}
    return found


def test_reference_imports_only_the_allowed_bsmguard_names():
    used = {(module, name) for module, name in imports(TESTS / "reference.py")
            if module.split(".")[0] == "bsmguard"}
    assert used - set(ALLOWED) == set(), "add each new name to ALLOWED, with its reason"
    assert set(ALLOWED) - used == set(), "drop the names reference.py no longer imports"


def test_no_test_module_imports_another():
    crossed = [(path.name, module) for path in sorted(TESTS.glob("*.py"))
               for module, _ in imports(path) if module.split(".")[0].startswith("test_")]
    assert crossed == []


# ---------------------------------------------------------------------------
# simulate -> detect -> report against the reference
# ---------------------------------------------------------------------------


@st.composite
def scenarios(draw):
    """A scenario config: 0.5-25 s, any seed, and up to two attack windows on
    the tick grid, each of any mode."""
    duration = draw(st.sampled_from([0.5, 3.0, 7.3, 12.0, 25.0]))
    cfg = {
        "duration_s": repr(duration),
        "seed": str(draw(st.integers(0, 2**32 - 1))),
        "base_speed_mps": repr(draw(st.sampled_from([0.4, 15.6, 30.0]))),
        "noise_stdev": repr(draw(st.sampled_from([0.0, 0.25, 2.0]))),
    }
    ticks = round(duration / BSM_PERIOD_S)
    cuts = sorted(set(draw(st.lists(st.integers(0, ticks), max_size=4))))
    windows = [f"{a / 10!r}:{b / 10!r}" for a, b in zip(cuts[::2], cuts[1::2])]
    if windows:
        mode = draw(st.sampled_from(ATTACK_MODES))
        magnitudes = [0.0, 2.0, 9.0] + ([-3.0] if mode == "offset" else [])
        cfg.update({"attack.windows": ",".join(windows), "attack.mode": mode,
                    "attack.magnitude": repr(draw(st.sampled_from(magnitudes)))})
    return cfg


def reference_decisions(name, values):
    """``(attack, score, warmed_up)`` per value; cusum's score is not reproduced (None)."""
    if name == "bocpd":
        return reference.bocpd_decisions(values)
    if name == "em":
        return reference.em_decisions(values)
    cfg = CusumConfig()
    flags = reference.naive_cusum(values, cfg.delta, cfg.alpha, cfg.h_sigma, cfg.warmup)
    return [(flag, None, i >= cfg.warmup) for i, flag in enumerate(flags)]


def ambiguous(name, score):
    """Whether bocpd's flag may go either way: its reference score, from the
    batch NIG posterior, is within that oracle's 1e-9 of the threshold."""
    return name == "bocpd" and abs(score - BocpdConfig().threshold) <= 1e-9


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(arg) for arg in argv]) == 0


@settings(max_examples=20, deadline=None)
@given(cfg=scenarios(), window=st.sampled_from([0.1, 0.1, 0.3, 1.0]))
@example(cfg={"duration_s": "20.0", "seed": "0", "attack.windows": "10.0:15.0"}, window=0.1)
def test_cli_files_follow_the_reference_data_path(tmp_path_factory, cfg, window):
    d = tmp_path_factory.mktemp("e2e")
    (d / "scenario.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    run("simulate", "--config", d / "scenario.cfg", "--out", d / "bsm.csv")
    reference.write_csv(d / "want.csv", CSV_HEADER,
                        reference.run_scenario(scenario_from_mapping(cfg)))
    assert (d / "bsm.csv").read_bytes() == (d / "want.csv").read_bytes()

    samples = list(reference.aggregate(reference.read_bsm_csv(d / "bsm.csv"), window))
    for name, kind in DETECTORS.items():
        dec, rep = d / f"{name}.csv", d / f"{name}.txt"
        run("detect", d / "bsm.csv", "--detector", name, "--window", window, "--out", dec)
        run("report", dec, d / "bsm.csv", "--detector", name, "--window", window, "--out", rep)
        want = reference_decisions(name, reference.feature_stream(samples, kind.input))
        rows = [row for _, row in reference.read_csv(dec, DECISIONS_HEADER)]
        assert len(rows) == len(samples)
        flags = []
        for sample, row, (attack, score, warmed_up) in zip(samples, rows, want):
            if ambiguous(name, score):
                attack = row[2] == "1"
            assert (row[0], row[2], row[3]) == (repr(sample.t), str(int(attack)),
                                                str(int(warmed_up))), (name, sample.t)
            flags.append(int(attack))
        if name == "em":  # every em column is bit-exact, so the whole file is
            reference.write_csv(d / "want_em.csv", DECISIONS_HEADER,
                                [(s.t, score, int(attack), int(warmed_up))
                                 for s, (attack, score, warmed_up) in zip(samples, want)])
            assert dec.read_bytes() == (d / "want_em.csv").read_bytes()

        report = dict(line.split(" = ", 1) for line in rep.read_text().splitlines())
        tp, tn, fp, fn = reference.confusion([s.label for s in samples], flags)
        assert [report[k] for k in ("samples", "tp", "tn", "fp", "fn")] == [
            str(v) for v in (len(samples), tp, tn, fp, fn)], name
