"""End-to-end CLI behavior: schemas, exit codes, byte reproducibility."""

import json
import os
import stat
import subprocess
import sys
import threading
import warnings

import pytest

from bsmguard import cli, evaluate, pipeline
from bsmguard.bsm import CSV_HEADER, DataError, aggregate, join_samples, read_bsm_csv
from bsmguard.cli import main
from bsmguard.config import DetectorSettings
from bsmguard.evaluate import roc_counts, roc_points
from bsmguard.pipeline import (
    detector_report,
    read_decisions_csv,
    scored_decisions,
)

import reference
from product_calls import at_every_block_size, detect_pairs, pairs_report
from reference import ONLINE_MODES

SCENARIO = """\
duration_s = 30.0
base_speed_mps = 15.6
noise_stdev = 0.25
attack.windows = 10.0:15.0
attack.mode = constant_replace
attack.magnitude = 0.0
seed = 7
"""


#: The rejection of a number that float() or int() would take but no command writes.
LOOSE = "holds whitespace, '_' or a non-ASCII character"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


@pytest.fixture
def bsm_csv(tmp_path, scenario_file):
    out = tmp_path / "bsm.csv"
    assert main(["simulate", "--config", str(scenario_file), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_row_count_is_duration_times_ten_plus_header(self, bsm_csv):
        lines = bsm_csv.read_text().splitlines()
        assert len(lines) == 301
        assert lines[0] == "t,vehicle_id,speed_mps,accel_mps2,label"

    def test_rerun_byte_identical(self, tmp_path, scenario_file, bsm_csv):
        again = tmp_path / "again.csv"
        main(["simulate", "--config", str(scenario_file), "--out", str(again)])
        assert again.read_bytes() == bsm_csv.read_bytes()

    def test_missing_required_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("duration_s = 10\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_malformed_line_exits_2_with_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("duration_s = 10\nnot a config line\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path, scenario_file, bsm_csv):
        other = tmp_path / "other.csv"
        main(["simulate", "--config", str(scenario_file), "--seed", "8", "--out", str(other)])
        assert other.read_bytes() != bsm_csv.read_bytes()


    @pytest.mark.parametrize(
        "line, message",
        [
            ("noise_stdv = 5",
             "bad.cfg:3: unknown scenario key 'noise_stdv'; did you mean 'noise_stdev'"),
            ("attack.windws = 1:2", "did you mean 'attack.windows'"),
            ("duration_s = -5", "'duration_s'"),
            ("seed = -1", "'seed'"),
            ("noise_stdev = -1", "'noise_stdev'"),
            ("attack.windows = nan:nan", "'attack.windows': window 'nan:nan' has a non-finite"),
            ("attack.windows = 1:2\nattack.mode = noise_burst\nattack.magnitude = -1",
             "attack.magnitude"),
        ],
    )
    def test_bad_scenario_key_or_value_exits_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        base = {"duration_s": "10", "seed": "1"}
        for key in base:
            if line.startswith(key + " "):
                del base[key]
                break
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + line + "\n")
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "lines, message",
        [
            # Each would write rows read_bsm_csv rejects, or none, or fail mid-run.
            ("base_speed_mps = 1e308", "key 'base_speed_mps': 1e+308 must be at most"),
            ("attack.windows = 1:2\nattack.mode = offset\nattack.magnitude = 1e308",
             "key 'attack.magnitude': 1e+308 must be at most"),
            ("duration_s = 1e300", "key 'duration_s': 1e+300 puts the last record past"),
            ("duration_s = 0.04", "key 'duration_s': 0.04 rounds to zero 0.1 s ticks"),
            # Within the 1e12 s limit, but numpy refuses its 73 TiB speed trace at once.
            ("duration_s = 1e12",
             "key 'duration_s': 1000000000000.0 asks for 10000000000000 records, more than fit"),
            # The last record of a 100.04 s stream is at t = 100.0.
            ("duration_s = 100.04\nattack.windows = 100.0:100.04",
             "key 'attack.windows': (100.0, 100.04) falls outside the 100.0 s stream"),
        ],
    )
    def test_scenario_that_cannot_write_a_readable_csv_exits_2(self, tmp_path, capsys, lines,
                                                               message):
        cfg = tmp_path / "bad.cfg"
        duration = "" if lines.startswith("duration_s") else "duration_s = 10\n"
        cfg.write_text(f"seed = 1\n{duration}{lines}\n")
        key = message.split("'")[1]
        line = next(n for n, text in enumerate(cfg.read_text().splitlines(), start=1)
                    if text.startswith(f"{key} ="))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {cfg}:{line}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDetect:
    @pytest.mark.parametrize("detector", ["bocpd", "em", "cusum"])
    def test_decision_rows_match_sample_count(self, tmp_path, bsm_csv, detector):
        out = tmp_path / f"{detector}.csv"
        assert main(["detect", str(bsm_csv), "--detector", detector, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,score,attack,warmed_up"
        assert len(lines) == 301

    def test_rerun_byte_identical(self, tmp_path, bsm_csv):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["detect", str(bsm_csv), "--detector", "bocpd", "--out", str(a)])
        main(["detect", str(bsm_csv), "--detector", "bocpd", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_detector_exits_2(self, tmp_path, bsm_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", str(bsm_csv), "--detector", "hmm", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_config_overrides_threshold(self, tmp_path, bsm_csv):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("bocpd.threshold = 0.0\n")
        out = tmp_path / "quiet.csv"
        main(["detect", str(bsm_csv), "--detector", "bocpd", "--config", str(cfg), "--out", str(out)])
        assert all(line.split(",")[2] == "0" for line in out.read_text().splitlines()[1:])

    def test_bad_config_key_exits_2(self, tmp_path, bsm_csv, capsys):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("bocpd.kappa = -1\n")
        code = main(["detect", str(bsm_csv), "--detector", "bocpd", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, bsm_csv, capsys):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("bocpd.lambda = 0.5\n")
        code = main(["detect", str(bsm_csv), "--detector", "bocpd", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{cfg}:1: unknown detector key 'bocpd.lambda'" in capsys.readouterr().err

    def test_non_monotonic_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "t,vehicle_id,speed_mps,accel_mps2,label\n"
            "0.2,v1,10.0,0.0,0\n0.1,v1,10.0,0.0,0\n"
        )
        code = main(["detect", str(bad), "--detector", "cusum", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "advance" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["bocpd", "em", "cusum"])
    def test_clean_stream_stays_silent(self, tmp_path, detector):
        # Monte-Carlo calibration fixture: seeds 0..2 produce zero flags for
        # every detector on a 60 s no-attack stream at default settings.
        for seed in range(3):
            cfg = tmp_path / f"clean{seed}.cfg"
            cfg.write_text(f"duration_s = 60.0\nseed = {seed}\n")
            csv_path = tmp_path / f"clean{seed}.csv"
            main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
            out = tmp_path / f"d{seed}.csv"
            main(["detect", str(csv_path), "--detector", detector, "--out", str(out)])
            attacks = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
            assert attacks == ["0"] * 600

    def test_wider_aggregation_window(self, tmp_path, bsm_csv):
        out = tmp_path / "w.csv"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--window", "1.0",
              "--out", str(out)])
        # 300 records over 30 s collapse into 30 one-second windows.
        assert len(out.read_text().splitlines()) == 31

    def test_multi_vehicle_needs_selector(self, tmp_path, capsys):
        path = tmp_path / "multi.csv"
        path.write_text(
            "t,vehicle_id,speed_mps,accel_mps2,label\n"
            "0.1,a,10.0,0.0,0\n0.1,b,11.0,0.0,0\n"
            "0.2,a,10.0,0.0,0\n0.2,b,11.0,0.0,0\n"
        )
        code = main(["detect", str(path), "--detector", "cusum", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "--vehicle" in capsys.readouterr().err
        out = tmp_path / "a.csv"
        code = main(["detect", str(path), "--detector", "cusum", "--vehicle", "a",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_vehicle_exits_3(self, tmp_path, bsm_csv):
        code = main(["detect", str(bsm_csv), "--detector", "cusum",
                     "--vehicle", "ghost", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_timing_sidecar(self, tmp_path, bsm_csv):
        out = tmp_path / "d.csv"
        timing = tmp_path / "timing.txt"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(out),
              "--timing-out", str(timing)])
        text = timing.read_text()
        assert "timing_mean_ms" in text

    def test_unwritable_timing_file_keeps_the_earlier_decisions(self, tmp_path, bsm_csv,
                                                                capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "d.csv"
        out.write_text("earlier decisions\n")
        code = main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(out),
                     "--timing-out", str(tmp_path / "nodir" / "t.txt")])
        assert code == 3
        assert "io error" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["d.csv"]
        assert out.read_text() == "earlier decisions\n"

    def test_timing_on_short_stream_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("duration_s = 5.0\nseed = 0\n")
        csv_path = tmp_path / "short.csv"
        main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
        code = main(["detect", str(csv_path), "--detector", "cusum",
                     "--out", str(tmp_path / "d.csv"),
                     "--timing-out", str(tmp_path / "t.txt")])
        assert code == 3
        assert "warm-up" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["speed", "standardized", "transform"])
    def test_timing_observes_the_decision_inputs(self, tmp_path, bsm_csv, monkeypatch, mode):
        # The decision pass itself is timed: one detector, and every observe
        # past the warm-up is one timed sample.
        from bsmguard.detectors import CusumDetector

        seen: dict[CusumDetector, list[str]] = {}  # keyed by instance, one per run
        observe = CusumDetector.observe

        def spy(self, y):
            seen.setdefault(self, []).append(float(y).hex())
            return observe(self, y)

        monkeypatch.setattr(CusumDetector, "observe", spy)
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"cusum.input = {mode}\n")
        timing = tmp_path / "t.txt"
        code = main(["detect", str(bsm_csv), "--detector", "cusum", "--config", str(cfg),
                     "--out", str(tmp_path / "d.csv"), "--timing-out", str(timing)])
        assert code == 0
        (decision_run,) = seen.values()
        assert len(decision_run) > 100
        assert f"timing_samples = {len(decision_run) - 100}\n" in timing.read_text()

    def test_non_finite_csv_values_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "nan.csv"
        bad.write_text(
            "t,vehicle_id,speed_mps,accel_mps2,label\n"
            "0.1,v1,10.0,0.0,0\n0.2,v1,nan,inf,0\n"
        )
        code = main(["detect", str(bad), "--detector", "cusum", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{bad}:3" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("detector", ["bocpd", "em", "cusum"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_detect_leaves_no_decisions_file(
        self, tmp_path, bsm_csv, capsys, detector, existing
    ):
        # The timestamp goes backwards half-way through the stream, after the
        # first decisions could have been written.
        lines = bsm_csv.read_text().splitlines()
        fields = lines[151].split(",")
        fields[0] = "0.05"
        lines[151] = ",".join(fields)
        bad = tmp_path / "half.csv"
        bad.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "decisions.csv"
        if existing:
            out.write_bytes(b"earlier decisions\n")
        code = main(["detect", str(bad), "--detector", detector, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "advance" in err and "Traceback" not in err
        assert [p.name for p in out_dir.iterdir()] == (["decisions.csv"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier decisions\n"


    def test_non_utf8_csv_exits_3(self, tmp_path, bsm_csv, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(bsm_csv.read_bytes().replace(b"cv1", b"c\xe91", 1))
        code = main(["detect", str(bad), "--detector", "em", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

    def test_over_limit_field_exits_3_with_line(self, tmp_path, bsm_csv, capsys):
        # csv.reader refuses a field longer than csv.field_size_limit() (131,072).
        lines = bsm_csv.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace("cv1", "v" * 140_000)
        bad = tmp_path / "long.csv"
        bad.write_text("".join(lines))
        code = main(["detect", str(bad), "--detector", "cusum", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{bad}:4: field larger than field limit (131072)" in err
        assert "Traceback" not in err

    def test_non_utf8_config_exits_2_with_line(self, tmp_path, bsm_csv, capsys):
        cfg = tmp_path / "det.cfg"
        cfg.write_bytes(b"# detector\ncusum.h_sigma = 4\xb5\n")
        code = main(["detect", str(bsm_csv), "--detector", "cusum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{cfg}:2: not UTF-8 text" in err and "Traceback" not in err


    @pytest.mark.parametrize("field, value", [(0, "1e200"), (2, "1.7e308"), (3, "-1e13")])
    def test_csv_values_beyond_range_exit_3(self, tmp_path, bsm_csv, capsys, field, value):
        # Finite but huge values would overflow the stream's sums and squares.
        lines = bsm_csv.read_text().splitlines()
        fields = lines[100].split(",")
        fields[field] = value
        lines[100] = ",".join(fields)
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["detect", str(bad), "--detector", "bocpd", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{bad}:101: t, speed or accel is non-finite or beyond 1e+12" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("field, value", [(2, "1_6.04"), (2, " 16.04"), (4, " 1"),
                                              (4, "\u0660")])
    def test_numbers_the_csv_writer_never_writes_exit_3(self, tmp_path, bsm_csv, capsys, field,
                                                        value):
        # float() and int() take digit-group underscores, surrounding
        # whitespace and non-ASCII digits; the reader does not.
        lines = bsm_csv.read_text().splitlines()
        fields = lines[100].split(",")
        fields[field] = value
        lines[100] = ",".join(fields)
        bad = tmp_path / "loose.csv"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["detect", str(bad), "--detector", "bocpd", "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{bad}:101: {CSV_HEADER[field]} {value!r} {LOOSE}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["speed", "transform", "standardized"])
    @pytest.mark.parametrize("timing", [False, True])
    def test_detect_reads_its_csv_once_in_every_mode(
        self, tmp_path, bsm_csv, monkeypatch, mode, timing
    ):
        # The README's Performance notes: one read in every input mode, with
        # or without --timing-out.
        opened = []
        read_bsm_csv = cli.read_bsm_csv

        def spy(path):
            opened.append(path)
            return read_bsm_csv(path)

        monkeypatch.setattr(cli, "read_bsm_csv", spy)
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"cusum.input = {mode}\n")
        argv = ["detect", str(bsm_csv), "--detector", "cusum", "--config", str(cfg),
                "--out", str(tmp_path / "d.csv")]
        if timing:
            argv += ["--timing-out", str(tmp_path / "t.txt")]
        assert main(argv) == 0
        assert opened == [str(bsm_csv)]

    @pytest.mark.parametrize("name, mode", ONLINE_MODES)
    def test_online_detect_on_a_prefix_writes_the_full_files_first_rows(
        self, tmp_path, bsm_csv, name, mode
    ):
        # At the native window each record is one sample, so an online mode's
        # decisions on the first k records are the full file's first k rows.
        # Standardized input is the documented exception: its statistics come
        # from the whole stream. k = 125 is inside the 10-15 s attack window.
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"{name}.input = {mode}\n")
        full = tmp_path / "full.csv"
        assert main(["detect", str(bsm_csv), "--detector", name, "--config", str(cfg),
                     "--out", str(full)]) == 0
        full_lines = full.read_text().splitlines(keepends=True)
        bsm_lines = bsm_csv.read_text().splitlines(keepends=True)
        for k in (1, 60, 125):
            prefix, out = tmp_path / f"prefix{k}.csv", tmp_path / f"d{k}.csv"
            prefix.write_text("".join(bsm_lines[:k + 1]))
            assert main(["detect", str(prefix), "--detector", name, "--config", str(cfg),
                         "--out", str(out)]) == 0
            assert out.read_text() == "".join(full_lines[:k + 1]), k

    @pytest.mark.parametrize("line", ["bocpd.mu0 = 1e300", "bocpd.kappa = 1e-320"])
    def test_config_the_detector_cannot_compute_with_exits_3(self, tmp_path, bsm_csv, capsys,
                                                             line):
        cfg = tmp_path / "det.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        code = main(["detect", str(bsm_csv), "--detector", "bocpd", "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "bocpd cannot score the sample at t=0.1" in err and "Traceback" not in err
        assert not out.exists()


    def test_decisions_through_a_symlink_replace_its_target(self, tmp_path, bsm_csv):
        target = tmp_path / "target.csv"
        target.write_text("earlier decisions\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("t,score,attack,warmed_up\n")

    def test_decisions_to_a_pipe_are_written_in_place(self, tmp_path, bsm_csv):
        # A pipe (like /dev/stdout) must be written through, never replaced.
        fifo = tmp_path / "decisions.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code = main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(fifo)])
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # unblock the reader if detect never opened the pipe
                with open(fifo, "wb"):
                    pass
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        direct = tmp_path / "direct.csv"
        assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(direct)]) == 0
        assert received == [direct.read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bsm.csv", "decisions.fifo", "direct.csv", "scenario.cfg"
        ]


class TestReport:
    def test_report_fields_and_roc(self, tmp_path, bsm_csv):
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "bocpd", "--out", str(dec)])
        rep = tmp_path / "report.txt"
        roc = tmp_path / "roc.csv"
        code = main([
            "report", str(dec), str(bsm_csv), "--detector", "bocpd",
            "--windows", "10.0:15.0", "--out", str(rep), "--roc-out", str(roc),
        ])
        assert code == 0
        text = rep.read_text()
        for field in (
            "report_version = 1",
            "accuracy =",
            "precision_macro =",
            "detection_macro =",
            "auroc =",
            "latency_mean_s =",
        ):
            assert field in text
        assert roc.read_text().startswith("threshold,fpr,tpr")

    def test_undetected_windows_give_nan_latency(self, tmp_path, bsm_csv):
        # The window lies in cusum's warm-up, where it never flags.
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)])
        rep = tmp_path / "r.txt"
        assert main(["report", str(dec), str(bsm_csv), "--detector", "cusum",
                     "--windows", "1.0:2.0", "--out", str(rep)]) == 0
        lines = rep.read_text().splitlines()
        assert "latency_windows_detected = 0" in lines
        assert "latency_windows_undetected = 1" in lines
        assert "latency_mean_s = nan" in lines
        assert "latency_max_s = nan" in lines

    def test_exclude_warmup_drops_rows(self, tmp_path, bsm_csv):
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)])
        rep = tmp_path / "r.txt"
        main(["report", str(dec), str(bsm_csv), "--detector", "cusum",
              "--exclude-warmup", "--out", str(rep)])
        text = rep.read_text()
        assert "samples = 250" in text  # 300 samples minus 50 warm-up

    def test_non_finite_window_bound_exits_2(self, tmp_path, bsm_csv, capsys):
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)])
        code = main(["report", str(dec), str(bsm_csv), "--windows", "nan:5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'--windows': window 'nan:5' has a non-finite bound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "windows,message",
        [
            ("5:3", "'--windows': empty or inverted attack window (5.0, 3.0)"),
            ("1:2,1.5:3", "'--windows': attack windows (1.0, 2.0) and (1.5, 3.0) overlap"),
        ],
    )
    def test_inverted_or_overlapping_windows_exit_2(self, tmp_path, bsm_csv, capsys, windows,
                                                    message):
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)])
        out = tmp_path / "report.txt"
        code = main(["report", str(dec), str(bsm_csv), "--windows", windows, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mismatched_decisions_exit_3(self, tmp_path, bsm_csv):
        dec = tmp_path / "dec.csv"
        dec.write_text("t,score,attack,warmed_up\n0.1,0.0,0,1\n")
        code = main(["report", str(dec), str(bsm_csv)])
        assert code == 3

    def test_decisions_of_another_stream_exit_3(self, tmp_path, bsm_csv, capsys):
        # A 30 s clip at 0.1 s windows and a 300 s stream at 1 s windows both
        # give 300 samples; the clip's decisions start at t=0.1, the stream's
        # samples at t=1.0.
        cfg = tmp_path / "long.cfg"
        cfg.write_text("duration_s = 300.0\nseed = 1\nattack.windows = 100.0:105.0\n")
        long_csv = tmp_path / "long.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(long_csv)]) == 0
        dec = tmp_path / "dec.csv"
        assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)]) == 0
        capsys.readouterr()
        code = main(["report", str(dec), str(long_csv), "--window", "1.0"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{dec}:2: t=0.1 does not match its sample's t=1.0" in err

    @pytest.mark.parametrize("detector", ["bocpd", "em", "cusum"])
    def test_report_matches_the_library_on_the_same_samples(self, tmp_path, bsm_csv,
                                                              capsys, detector):
        dec = tmp_path / "dec.csv"
        assert main(["detect", str(bsm_csv), "--detector", detector, "--out", str(dec)]) == 0
        capsys.readouterr()
        assert main(["report", str(dec), str(bsm_csv), "--detector", detector,
                     "--windows", "10.0:15.0"]) == 0
        samples = list(reference.aggregate(reference.read_bsm_csv(bsm_csv)))
        pairs = detect_pairs(samples, detector, DetectorSettings())
        report = pairs_report(detector, pairs, ((10.0, 15.0),))
        assert capsys.readouterr().out == report.to_text()

    def test_roc_report_sorts_the_scores_once(self, tmp_path, bsm_csv, capsys, monkeypatch):
        dec, roc = tmp_path / "dec.csv", tmp_path / "roc.csv"
        assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)]) == 0
        capsys.readouterr()
        report_argv = ["report", str(dec), str(bsm_csv), "--detector", "cusum"]
        assert main(report_argv) == 0
        plain = capsys.readouterr().out
        sorts = []
        sort = evaluate._roc_columns

        def counted(scores, labels):
            sorts.append(len(scores))
            return sort(scores, labels)

        # roc_counts and auroc both rank through evaluate's _roc_columns.
        monkeypatch.setattr(evaluate, "_roc_columns", counted)
        assert main(report_argv) == 0
        assert len(sorts) == 1
        capsys.readouterr()
        assert main([*report_argv, "--roc-out", str(roc)]) == 0
        assert len(sorts) == 2
        out = capsys.readouterr().out
        assert out.startswith(plain) and "auroc = " in plain
        samples = join_samples(aggregate(read_bsm_csv(str(bsm_csv))))
        labels, _, scores = scored_decisions("cusum", samples.label,
                                             read_decisions_csv(str(dec), samples))
        with open(roc, newline="") as fh:
            assert fh.read().splitlines()[1:] == [
                f"{t!r},{f!r},{p!r}" for t, f, p in roc_points(roc_counts(scores, labels))]

    @pytest.mark.parametrize("exclude_warmup", [[], ["--exclude-warmup"]])
    @pytest.mark.parametrize("roc_out", [False, True])
    def test_report_selects_the_scored_decisions_once(self, tmp_path, bsm_csv, capsys,
                                                      monkeypatch, exclude_warmup, roc_out):
        # The ROC rows and the report score the same decisions, so one
        # scored_decisions call serves both, wherever its name is bound.
        dec, rep, roc = tmp_path / "dec.csv", tmp_path / "rep.txt", tmp_path / "roc.csv"
        assert main(["detect", str(bsm_csv), "--detector", "bocpd", "--out", str(dec)]) == 0
        calls = []
        select = pipeline.scored_decisions

        def counted(*args):
            calls.append(args)
            return select(*args)

        monkeypatch.setattr(pipeline, "scored_decisions", counted)
        monkeypatch.setattr(cli, "scored_decisions", counted)
        roc_argv = ["--roc-out", str(roc)] if roc_out else []
        assert main(["report", str(dec), str(bsm_csv), "--detector", "bocpd", *exclude_warmup,
                     "--windows", "10.0:15.0", "--out", str(rep), *roc_argv]) == 0
        assert len(calls) == 1
        samples = join_samples(aggregate(read_bsm_csv(str(bsm_csv))))
        decisions = read_decisions_csv(str(dec), samples)
        scored = labels, _, scores = select("bocpd", samples.label, decisions,
                                            bool(exclude_warmup))
        want = detector_report("bocpd", samples.t, decisions[0], scored, ((10.0, 15.0),),
                               bool(exclude_warmup))
        assert rep.read_text() == want.to_text()
        if roc_out:
            with open(roc, newline="") as fh:
                assert fh.read().splitlines()[1:] == [
                    f"{t!r},{f!r},{p!r}" for t, f, p in roc_points(roc_counts(scores, labels))]

    def test_roc_on_single_class_truth_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text("duration_s = 30.0\nseed = 0\n")
        csv_path = tmp_path / "clean.csv"
        main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
        dec = tmp_path / "dec.csv"
        main(["detect", str(csv_path), "--detector", "cusum", "--out", str(dec)])
        code = main(["report", str(dec), str(csv_path), "--detector", "cusum",
                     "--roc-out", str(tmp_path / "roc.csv")])
        assert code == 3
        assert "both classes" in capsys.readouterr().err

    @staticmethod
    def early_attack_cusum(tmp_path):
        """A CSV and its cusum decisions whose only attack lies in the warm-up."""
        cfg = tmp_path / "early.cfg"
        cfg.write_text("duration_s = 30.0\nseed = 0\nattack.windows = 1.0:4.0\n")
        csv_path = tmp_path / "early.csv"
        main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
        dec = tmp_path / "dec.csv"
        main(["detect", str(csv_path), "--detector", "cusum", "--out", str(dec)])
        return csv_path, dec

    def test_roc_on_single_class_scored_pairs_exits_3(self, tmp_path, capsys):
        # The only attack window lies inside cusum's 5 s warm-up, so the
        # decisions --exclude-warmup keeps are all clean.
        csv_path, dec = self.early_attack_cusum(tmp_path)
        code = main(["report", str(dec), str(csv_path), "--detector", "cusum",
                     "--exclude-warmup", "--roc-out", str(tmp_path / "roc.csv")])
        assert code == 3
        assert "both classes" in capsys.readouterr().err

    def test_failed_roc_leaves_no_report_file(self, tmp_path, capsys):
        csv_path, dec = self.early_attack_cusum(tmp_path)
        rep, roc = tmp_path / "rep.txt", tmp_path / "roc.csv"
        code = main(["report", str(dec), str(csv_path), "--detector", "cusum",
                     "--exclude-warmup", "--out", str(rep), "--roc-out", str(roc)])
        assert code == 3
        assert "both classes" in capsys.readouterr().err
        assert not rep.exists()
        assert not roc.exists()

    def test_unwritable_roc_file_leaves_no_report_file(self, tmp_path, bsm_csv, capsys):
        dec = tmp_path / "dec.csv"
        assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)]) == 0
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["report", str(dec), str(bsm_csv), "--detector", "cusum",
                     "--out", str(out_dir / "rep.txt"),
                     "--roc-out", str(tmp_path / "nodir" / "c.csv")])
        out, err = capsys.readouterr()
        assert code == 3
        assert "io error" in err
        assert "auroc" not in out
        assert list(out_dir.iterdir()) == []

    def test_report_without_detector_warns_on_stderr(self, tmp_path, bsm_csv, capsys):
        dec = tmp_path / "dec.csv"
        main(["detect", str(bsm_csv), "--detector", "bocpd", "--out", str(dec)])
        capsys.readouterr()
        rep = tmp_path / "rep.txt"
        assert main(["report", str(dec), str(bsm_csv), "--out", str(rep)]) == 0
        out, err = capsys.readouterr()
        assert out == rep.read_text()
        assert "auroc = 0.0\n" in out  # bocpd's density read as if high were suspicious
        assert len(err.splitlines()) == 1
        assert "--detector" in err
        assert main(["report", str(dec), str(bsm_csv), "--detector", "bocpd"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("detector", ["bocpd", "em", "cusum"])
    @pytest.mark.parametrize("flags", [[], ["--exclude-warmup"]])
    def test_roc_area_equals_report_auroc(self, tmp_path, bsm_csv, detector, flags):
        dec = tmp_path / "dec.csv"
        assert main(["detect", str(bsm_csv), "--detector", detector, "--out", str(dec)]) == 0
        rep, roc = tmp_path / "rep.txt", tmp_path / "roc.csv"
        assert main(["report", str(dec), str(bsm_csv), "--detector", detector, *flags,
                     "--out", str(rep), "--roc-out", str(roc)]) == 0
        fields = dict(line.split(" = ") for line in rep.read_text().splitlines())
        rows = [tuple(map(float, line.split(","))) for line in roc.read_text().splitlines()[1:]]
        area = sum((f - f0) * (t + t0) / 2 for (_, f0, t0), (_, f, t) in zip(rows, rows[1:]))
        assert area == pytest.approx(float(fields["auroc"]), abs=1e-12)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,score,attack,warmed_up\n0.1,nan,0,1\n", ":2: non-finite"),
            ("t,score,attack,warmed_up\n0.1,0.5,7,1\n",
             ":2: attack and warmed_up must be 0 or 1"),
            ("t,score,attack,warmed_up\n0.1,\xff,0,1\n", ": not UTF-8 text"),
            ("t,score,attack,warmed_up\n0.1,0.5,0,1,junk\n", ":2: expected 4 columns, got 5"),
            ("t,score,attack,warmed_up\n0.1,0.5,0\n", ":2: expected 4 columns, got 3"),
            ("", ": empty file"),
            pytest.param("t,score,attack,warmed_up\n0.1," + "5" * 140_000 + ",0,1\n",
                         ":2: field larger than field limit (131072)", id="over-limit-field"),
            ("t,score,flag,warmed_up\n0.1,0.5,0,1\n",
             ": bad header ['t', 'score', 'flag', 'warmed_up'], "
             "expected t,score,attack,warmed_up"),
            # Numbers float() and int() take but detect never writes.
            ("t,score,attack,warmed_up\n0.1,0.5_0,0,1\n", ":2: score '0.5_0' " + LOOSE),
            ("t,score,attack,warmed_up\n0.1 ,0.5,0,1\n", ":2: t '0.1 ' " + LOOSE),
            ("t,score,attack,warmed_up\n0.1,0.5, 1,1\n", ":2: attack ' 1' " + LOOSE),
            # The file holds the UTF-8 bytes of an Arabic-Indic one.
            ("t,score,attack,warmed_up\n0.1,0.5,0," + "\u0661".encode().decode("latin-1")
             + "\n", ":2: warmed_up '\u0661' " + LOOSE),
        ],
    )
    def test_bad_decision_values_exit_3(self, tmp_path, bsm_csv, capsys, text, message):
        dec = tmp_path / "dec.csv"
        dec.write_bytes(text.encode("latin-1"))
        code = main(["report", str(dec), str(bsm_csv)])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{dec}{message}" in err
        assert "Traceback" not in err


BSM_HEADER = ",".join(CSV_HEADER) + "\n"


def reference_exit(csv, vehicle=None, window=0.1):
    """The exit code and stderr of the reference row path on ``csv``: one
    vehicle's records (``reference.vehicle_records``), then ``aggregate``."""
    try:
        list(reference.aggregate(reference.vehicle_records(str(csv), vehicle), window))
    except DataError as exc:
        return 3, f"data error: {exc}\n"
    return 0, ""


def run_on_bsm(tmp_path, capsys, command, csv, *options):
    """``detect`` or ``report`` on ``csv`` with ``options``: the exit code, the
    stderr, and the files the command left in its output directory."""
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    if command == "detect":
        argv = ["detect", str(csv), "--detector", "cusum", "--out", str(out / "d.csv")]
    else:
        decisions = tmp_path / "decisions.csv"
        decisions.write_text("t,score,attack,warmed_up\n")
        argv = ["report", str(decisions), str(csv), "--detector", "cusum",
                "--out", str(out / "r.txt"), "--roc-out", str(out / "roc.csv")]
    code = main([*argv, *options])
    return code, capsys.readouterr().err, sorted(p.name for p in out.iterdir())


class TestBlockErrors:
    """A whole block is read, checked and split by vehicle at once; its
    errors must still be those of the reference row path, in row order."""

    @pytest.mark.parametrize("command", ["detect", "report"])
    @pytest.mark.parametrize("bad, message", [
        ("0.2,b,nan,0.0,0", "t, speed or accel is non-finite or beyond 1e+12 in"),
        ("0.2,b,11.0,0.0,2", "label must be 0 or 1, got '2'"),
        ("0.2,b,1_1.0,0.0,0", "speed_mps '1_1.0' holds whitespace, '_' or a non-ASCII"),
    ])
    def test_another_vehicles_bad_row_is_still_checked(self, tmp_path, capsys, command, bad,
                                                        message):
        csv = tmp_path / "mv.csv"
        csv.write_text(BSM_HEADER + "0.1,a,10.0,0.0,0\n0.1,b,11.0,0.0,0\n" + bad + "\n"
                       + "0.2,a,10.0,0.0,0\n")
        code, err, left = run_on_bsm(tmp_path, capsys, command, csv, "--vehicle", "a")
        assert (code, err) == reference_exit(csv, "a")
        assert err.startswith(f"data error: {csv}:4: {message}")
        assert left == []

    @pytest.mark.parametrize("command", ["detect", "report"])
    @pytest.mark.parametrize("rows, options, message", [
        pytest.param(["0.1,a,10.0,0.0,0", "0.2,a,10.0,0.0,0", "0.15,a,10.0,0.0,0",
                      "0.3,a,x,0.0,0"], [], "record 2 (vehicle 'a', t=0.15) does not advance",
                     id="non-monotonic-before-malformed"),
        pytest.param(["0.1,a,10.0,0.0,0", "0.2,a,x,0.0,0", "0.15,a,10.0,0.0,0"], [],
                     "mv.csv:3: could not convert string to float: 'x'",
                     id="malformed-before-non-monotonic"),
        pytest.param(["0.1,a,10.0,0.0,0", "0.2,b,10.0,0.0,0", "0.15,a,10.0,0.0,0"], [],
                     "multiple vehicles present", id="second-vehicle-before-non-monotonic"),
        pytest.param(["0.1,a,10.0,0.0,0", "0.2,a,10.0,0.0,0", "0.15,a,10.0,0.0,0",
                      "0.3,b,10.0,0.0,0"], [], "record 2 (vehicle 'a', t=0.15) does not advance",
                     id="second-vehicle-after-non-monotonic"),
        pytest.param(["0.1,a,10.0,0.0,0", "0.3,b,10.0,0.0,0", "0.2,b,10.0,0.0,0",
                      "0.05,a,10.0,0.0,0"], ["--vehicle", "a"],
                     "record 1 (vehicle 'a', t=0.05) does not advance",
                     id="selected-vehicle-non-monotonic"),
        pytest.param(["0.0,a,10.0,0.0,0", "0.1,a,10.0,0.0,0", "0.2,a,x,0.0,0"],
                     ["--window", "5e-324"],
                     "record 1 (vehicle 'a', t=0.1): t / window overflows at window 5e-324",
                     id="window-overflow-before-malformed"),
    ])
    def test_error_precedence_inside_one_block(self, tmp_path, capsys, command, rows, options,
                                               message):
        csv = tmp_path / "mv.csv"
        csv.write_text(BSM_HEADER + "".join(row + "\n" for row in rows))
        vehicle = options[1] if options[:1] == ["--vehicle"] else None
        window = float(options[1]) if options[:1] == ["--window"] else 0.1
        code, err, left = run_on_bsm(tmp_path, capsys, command, csv, *options)
        assert (code, err) == reference_exit(csv, vehicle, window)
        assert message in err
        assert left == []


def test_whole_stream_commands_write_the_same_bytes_at_every_block_size(tmp_path):
    # report, train and evaluate join a stream's sample blocks into one; a
    # block the join dropped or repeated would change their files at 1 or 7
    # rows a block, where every window straddles blocks.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("duration_s = 30.0\nseed = 3\nattack.windows = 8.0:11.0,20.0:24.5\n")
    bsm, dec = tmp_path / "bsm.csv", tmp_path / "dec.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(bsm)]) == 0
    assert main(["detect", str(bsm), "--detector", "cusum", "--out", str(dec)]) == 0
    outputs = [tmp_path / name for name in ("rep.txt", "roc.csv", "model.json", "train.txt",
                                            "eval.txt")]
    rep, roc, model, train, evaluated = outputs

    def run_all():
        for argv in (["report", dec, bsm, "--detector", "cusum", "--windows",
                      "8.0:11.0,20.0:24.5", "--out", rep, "--roc-out", roc],
                     ["train", bsm, "--model", "cart", "--grid", '{"max_depth": [3]}',
                      "--folds", "3", "--out", model, "--report-out", train],
                     ["evaluate", model, bsm, "--out", evaluated]):
            assert main([str(arg) for arg in argv]) == 0
        return [path.read_bytes() for path in outputs]

    first, *rest = at_every_block_size(run_all, sizes=(1, 7, 512))
    assert all(first)
    assert rest == [first, first]


class TestTrainEvaluate:
    def test_train_then_evaluate_reproduces_report(self, tmp_path, bsm_csv):
        model = tmp_path / "model.json"
        report = tmp_path / "train_report.txt"
        code = main([
            "train", str(bsm_csv), "--model", "cart", "--seed", "5",
            "--out", str(model), "--report-out", str(report),
        ])
        assert code == 0
        eval_report = tmp_path / "eval_report.txt"
        code = main(["evaluate", str(model), str(bsm_csv), "--out", str(eval_report)])
        assert code == 0
        assert eval_report.read_text() == report.read_text()

    def test_unwritable_report_file_leaves_no_model_file(self, tmp_path, bsm_csv, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["train", str(bsm_csv), "--model", "cart", "--out", str(out_dir / "m.json"),
                     "--report-out", str(tmp_path / "nodir" / "r.txt")])
        assert code == 3
        assert "io error" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_train_rerun_byte_identical(self, tmp_path, bsm_csv):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        main(["train", str(bsm_csv), "--model", "knn", "--seed", "3", "--out", str(m1)])
        main(["train", str(bsm_csv), "--model", "knn", "--seed", "3", "--out", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_custom_grid_folds_and_fraction(self, tmp_path, bsm_csv):
        model = tmp_path / "m.json"
        code = main([
            "train", str(bsm_csv), "--model", "knn", "--seed", "2",
            "--grid", '{"k": [1, 3]}', "--folds", "3", "--test-fraction", "0.25",
            "--out", str(model),
        ])
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["params"]["k"] in (1, 3)
        assert doc["test_fraction"] == 0.25

    def test_bad_grid_json_exits_2(self, tmp_path, bsm_csv, capsys):
        code = main([
            "train", str(bsm_csv), "--model", "knn", "--grid", "{not json",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_diverging_nn_exits_2(self, tmp_path, bsm_csv, capsys):
        model = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", str(bsm_csv), "--model", "nn", "--grid",
                         '{"lr": [1e300], "epochs": [3]}', "--out", str(model)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert code == 2
        assert "the learning rate 1e+300 is likely too high" in err
        assert "Traceback" not in err
        assert not model.exists()

    def test_grid_too_large_for_memory_exits_2(self, tmp_path, bsm_csv, capsys):
        # 1e17 hidden units ask for about 1.4 EiB at once; a size that fits the
        # address space could be overcommitted and then filled page by page.
        model = tmp_path / "m.json"
        code = main(["train", str(bsm_csv), "--model", "nn", "--grid",
                     f'{{"n_hidden": [{10**17}]}}', "--out", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: nn training ran out of memory: Unable to allocate")
        assert err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("family, grid, message", [
        ("rf", f'{{"n_trees": [{10**30}]}}', "too large to convert"),
        ("nn", f'{{"n_hidden": [{2**62}]}}', "array is too big"),
        ("nn", f'{{"n_hidden": [{2**63}]}}', "Maximum allowed dimension exceeded"),
    ], ids=["rf-1e30-trees", "nn-2**62-hidden", "nn-2**63-hidden"])
    def test_grid_too_large_for_numpy_exits_2(self, tmp_path, bsm_csv, capsys, family, grid,
                                              message):
        # numpy raises OverflowError or ValueError for these before it allocates.
        model = tmp_path / "m.json"
        code = main(["train", str(bsm_csv), "--model", family, "--grid", grid,
                     "--out", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {family} training cannot run this grid: ")
        assert message in err
        assert err.count("\n") == 1
        assert not model.exists()

    def test_single_class_data_exits_3(self, tmp_path, scenario_file):
        clean_cfg = tmp_path / "clean.cfg"
        clean_cfg.write_text("duration_s = 30.0\nseed = 1\n")
        clean_csv = tmp_path / "clean.csv"
        main(["simulate", "--config", str(clean_cfg), "--out", str(clean_csv)])
        code = main(["train", str(clean_csv), "--model", "cart", "--out", str(tmp_path / "m")])
        assert code == 3

    def test_beats_majority_baseline_end_to_end(self, tmp_path):
        # Longer stream so the test split carries attack samples.
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "duration_s = 120.0\nnoise_stdev = 0.25\nseed = 2\n"
            "attack.windows = 40.0:55.0\nattack.mode = constant_replace\n"
            "attack.magnitude = 0.0\n"
        )
        csv_path = tmp_path / "s.csv"
        main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
        report = tmp_path / "r.txt"
        main(["train", str(csv_path), "--model", "cart", "--seed", "0",
              "--out", str(tmp_path / "m.json"), "--report-out", str(report)])
        text = report.read_text()
        acc = float(next(l for l in text.splitlines() if l.startswith("accuracy")).split("=")[1])
        # Majority baseline: 1050/1200 clean = 0.875
        assert acc > 0.875

    @pytest.mark.parametrize(
        "family,grid,message",
        [
            ("cart", '{"max_dept": [2]}', "'max_dept'; did you mean 'max_depth'?"),
            ("knn", '{"kk": [5]}', "'kk'; did you mean 'k'?"),
            ("knn", '{"k": [0]}', "'k': 0 is out of range"),
            ("knn", '{"k": [5.0]}', "'k': 5.0 is out of range"),
            ("knn", '{"k": []}', "non-empty list"),
            ("knn", "{}", "knn needs parameter 'k'"),
            ("nn", '{"lr": [NaN]}', "'lr': nan is out of range"),
            ("knn", '{"k": [5], "k": [7]}', "--grid: duplicate key 'k'"),
            pytest.param("knn", '{"k": ' + "[" * 100_000, "--grid is not valid JSON: maximum "
                         "recursion depth exceeded", id="knn-nested-past-the-recursion-limit"),
        ],
    )
    def test_bad_grid_key_or_value_exits_2(self, tmp_path, bsm_csv, capsys, family, grid,
                                           message):
        model = tmp_path / "m.json"
        code = main(["train", str(bsm_csv), "--model", family, "--grid", grid,
                     "--out", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--folds", "100"], "infeasible stratification"),
            (["--grid", '{"k": [100000]}'], "k must be in"),
        ],
    )
    def test_limit_the_data_cannot_meet_exits_3(self, tmp_path, bsm_csv, capsys, extra, message):
        code = main(["train", str(bsm_csv), "--model", "knn", "--out", str(tmp_path / "m.json"),
                     *extra])
        err = capsys.readouterr().err
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    def test_too_few_attack_samples_to_interpolate_exits_3(self, tmp_path, capsys):
        # 3 attack samples: 2 reach training, so each 2-fold split trains on 1.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("duration_s = 20.0\nseed = 1\nattack.windows = 10.0:10.3\n")
        csv_path = tmp_path / "tiny.csv"
        main(["simulate", "--config", str(cfg), "--out", str(csv_path)])
        code = main(["train", str(csv_path), "--model", "knn", "--folds", "2",
                     "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "minority class" in err
        assert "Traceback" not in err


#: A minimal well-formed knn model document; the malformed cases below
#: each break one part of it.
GOOD_MODEL = {
    "format": "bsmguard-model",
    "version": 1,
    "family": "knn",
    "params": {"k": 1},
    "seed": 0,
    "test_fraction": 0.2,
    "standardizer": {"mean": [0.0, 0.0], "stdev": [1.0, 1.0]},
    "payload": {"train_features": [[0.0, 0.0]], "train_labels": [0]},
}


def _without(key):
    return {k: v for k, v in GOOD_MODEL.items() if k != key}


LEAF = {"impurity": 0.0, "counts": [1.0, 0.0], "n_samples": 1, "probs": [1.0, 0.0]}


def _cart_model(right):
    """A cart document whose root sends the zero row left, to a leaf, and the
    rest to ``right``, a node that load's one-row scoring never reaches."""
    return json.dumps({**GOOD_MODEL, "family": "cart", "params": {}, "payload": {"tree": {
        "impurity": 1.0, "counts": [1.0, 1.0], "n_samples": 2, "feature": 0,
        "threshold": 0.0, "left": LEAF, "right": right}}})


def _split(feature, threshold=0.0):
    return {"impurity": 0.0, "counts": [1.0, 0.0], "n_samples": 1, "feature": feature,
            "threshold": threshold, "left": LEAF, "right": LEAF}


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[" * 100_000 + "]" * 100_000,
        '{"a": 1}',
        "[1, 2]",
        '{"format": "bsmguard-model", "version": 1}',
        json.dumps({**GOOD_MODEL, "version": 2}),
        json.dumps(_without("standardizer")),
        json.dumps(_without("payload")),
        json.dumps({**GOOD_MODEL, "family": "svm"}),
        json.dumps({**GOOD_MODEL, "family": ["knn"]}),
        json.dumps({**GOOD_MODEL, "payload": {"train_features": "x", "train_labels": [0]}}),
        json.dumps({**GOOD_MODEL, "params": {"k": 5}}),
        json.dumps({**GOOD_MODEL, "test_fraction": 1.5}),
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[float("nan"), 0.0]],
                                              "train_labels": [0]}}),
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[10**400, 0.0]],
                                              "train_labels": [0]}}),
        json.dumps({**GOOD_MODEL, "standardizer": {"mean": [0.0], "stdev": [1.0]}}),
        json.dumps({**GOOD_MODEL, "family": "cart", "payload": {"tree": {
            "impurity": 0.0, "counts": [1.0, 0.0], "n_samples": 1,
            "feature": 0, "threshold": 0.0}}}),
        json.dumps({**GOOD_MODEL, "family": "nn", "payload": {
            "w_hidden": [[1.0]], "b_hidden": [0.0], "w_out": [1.0], "b_out": 0.0}}),
        # json reads an overflowing literal as inf.
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[0.5, 0.0]],
                                              "train_labels": [0]}}).replace("0.5", "1e999"),
        json.dumps({**GOOD_MODEL, "standardizer": {"mean": [0.5, 0.0], "stdev": [1.0, 1.0]}})
        .replace("0.5", "1e999"),
        _cart_model(_split(7)),
        _cart_model(_split(-1)),
        _cart_model(_split(1.0)),
        _cart_model(_split(True)),
        _cart_model(_split(1, 0.5)).replace("0.5", "1e999"),
        _cart_model(_split(1, None)),
        # knn counts only label 1 as attack; a leaf's attack probability is its score.
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[0.0, 0.0]],
                                              "train_labels": [7]}}),
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[0.0, 0.0]],
                                              "train_labels": [1.5]}}),
        json.dumps({**GOOD_MODEL, "payload": {"train_features": [[0.0, 0.0]],
                                              "train_labels": [True]}}),
        _cart_model({**LEAF, "probs": [0.0, 7.0]}),
        _cart_model({**LEAF, "probs": [1.0]}),
        # Node numbers cart_fit could not have written.
        _cart_model({**LEAF, "counts": [1.0, 2.0, 3.0], "n_samples": 2.5, "impurity": -7.0}),
        _cart_model({**LEAF, "counts": [1.0, 2.0, 3.0]}),
        _cart_model({**LEAF, "counts": [-1.0, 2.0]}),
        _cart_model({**LEAF, "n_samples": 2.5}),
        _cart_model({**LEAF, "n_samples": True}),
        _cart_model({**LEAF, "n_samples": 0}),
        _cart_model({**LEAF, "impurity": -7.0}),
    ],
)
def test_malformed_model_file_exits_3(tmp_path, bsm_csv, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    code = main(["evaluate", str(model), str(bsm_csv)])
    err = capsys.readouterr().err
    assert code == 3
    assert str(model) in err
    assert "Traceback" not in err


def _knn_features(value):
    return {**GOOD_MODEL, "payload": {"train_features": [[value, 0.0]], "train_labels": [0]}}


@pytest.mark.parametrize("doc, key", [
    # float() and int() would read each of these; a JSON number is required.
    ({**GOOD_MODEL, "seed": 2.7}, "seed"),
    ({**GOOD_MODEL, "seed": True}, "seed"),
    ({**GOOD_MODEL, "seed": "0"}, "seed"),
    ({**GOOD_MODEL, "test_fraction": "0.2"}, "test_fraction"),
    ({**GOOD_MODEL, "standardizer": {"mean": ["15.6", 0.0], "stdev": [1.0, 1.0]}}, "mean"),
    ({**GOOD_MODEL, "standardizer": {"mean": [0.0, 0.0], "stdev": [True, 1.0]}}, "stdev"),
    (_knn_features("1.5"), "train_features"),
    (_knn_features(True), "train_features"),
    ({**GOOD_MODEL, "family": "nn", "params": {}, "payload": {
        "w_hidden": [["0.5"], [0.5]], "b_hidden": [0.0], "w_out": [1.0], "b_out": 0.0}},
     "w_hidden"),
    (json.loads(_cart_model(_split(1, True))), "tree node numbers"),
], ids=["seed-float", "seed-bool", "seed-str", "test_fraction-str", "mean-str", "stdev-bool",
        "knn-feature-str", "knn-feature-bool", "nn-weight-str", "cart-threshold-bool"])
def test_model_numbers_that_are_not_json_numbers_exit_3(tmp_path, bsm_csv, capsys, doc, key):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = main(["evaluate", str(model), str(bsm_csv)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{model}: malformed model document" in err
    assert key in err
    assert "Traceback" not in err


def test_minimal_model_document_evaluates(tmp_path, bsm_csv):
    # The control for the malformed cases: the unbroken document is accepted.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(GOOD_MODEL))
    assert main(["evaluate", str(model), str(bsm_csv)]) == 0


def test_minimal_cart_model_document_evaluates(tmp_path, bsm_csv):
    # The control for the malformed tree nodes: a split on feature 1 is fine.
    model = tmp_path / "model.json"
    model.write_text(_cart_model(_split(1)))
    assert main(["evaluate", str(model), str(bsm_csv)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "in.csv", "--detector", "cusum", "--out", "d.csv", "--window", "0"],
        ["detect", "in.csv", "--detector", "cusum", "--out", "d.csv", "--window", "nan"],
        ["train", "in.csv", "--model", "knn", "--out", "m.json", "--window", "-1"],
        ["evaluate", "m.json", "in.csv", "--window", "inf"],
        ["report", "d.csv", "in.csv", "--window", "0"],
        ["train", "in.csv", "--model", "knn", "--out", "m.json", "--folds", "1"],
        ["train", "in.csv", "--model", "knn", "--out", "m.json", "--seed", "-1"],
        ["train", "in.csv", "--model", "knn", "--out", "m.json", "--test-fraction", "1.5"],
        ["train", "in.csv", "--model", "knn", "--out", "m.json", "--test-fraction", "0"],
    ],
)
def test_bad_numeric_argument_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture
def model_and_decisions(tmp_path, bsm_csv):
    """A cart model file and a cusum decisions file made from ``bsm_csv``."""
    model, dec = tmp_path / "model.json", tmp_path / "dec.csv"
    assert main(["train", str(bsm_csv), "--model", "cart", "--grid", '{"max_depth": [1]}',
                 "--out", str(model)]) == 0
    assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", str(dec)]) == 0
    return model, dec


@pytest.mark.parametrize("window", ["1e-308", "5e-324"])
@pytest.mark.parametrize("command", ["detect", "train", "evaluate", "report"])
def test_window_too_small_for_t_exits_3_naming_t_and_window(
    tmp_path, bsm_csv, model_and_decisions, capsys, command, window
):
    model, dec = model_and_decisions
    out = tmp_path / "out"
    argv = {
        "detect": ["detect", str(bsm_csv), "--detector", "cusum", "--out", str(out)],
        "train": ["train", str(bsm_csv), "--model", "cart", "--out", str(out)],
        "evaluate": ["evaluate", str(model), str(bsm_csv), "--out", str(out)],
        "report": ["report", str(dec), str(bsm_csv), "--detector", "cusum", "--out", str(out)],
    }[command]
    capsys.readouterr()
    code = main(argv + ["--window", window])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("data error: record ") and err.count("\n") == 1, err
    assert f"t / window overflows at window {float(window)!r}" in err
    assert not out.exists()


def _shared_path_cases(tmp_path, bsm_csv, dec):
    x, y = str(tmp_path / "x"), str(tmp_path / "y")
    y_again = str(tmp_path / ".." / tmp_path.name / "y")
    detect = ["detect", str(bsm_csv), "--detector", "cusum"]
    return {
        "detect-out-timing": (detect + ["--out", x, "--timing-out", x],
                              f"outputs {x} and {x} are the same file"),
        "train-out-report": (["train", str(bsm_csv), "--model", "cart", "--out", x,
                              "--report-out", x], f"outputs {x} and {x} are the same file"),
        # Two outputs that do not exist yet, one named through a parent-directory hop.
        "report-out-roc": (["report", str(dec), str(bsm_csv), "--detector", "cusum",
                            "--out", y, "--roc-out", y_again],
                           f"outputs {y} and {y_again} are the same file"),
        "detect-onto-input": (detect + ["--out", str(bsm_csv)],
                              f"output {bsm_csv} is the input {bsm_csv}"),
        "detect-through-link-onto-input": (
            detect + ["--out", str(tmp_path / "link")],
            f"output {tmp_path / 'link'} is the input {bsm_csv}"),
        "report-onto-decisions": (["report", str(dec), str(bsm_csv), "--roc-out", str(dec)],
                                  f"output {dec} is the input {dec}"),
        "simulate-onto-config": (["simulate", "--config", str(tmp_path / "scenario.cfg"),
                                  "--out", str(tmp_path / "scenario.cfg")],
                                 f"output {tmp_path / 'scenario.cfg'} is the input "
                                 f"{tmp_path / 'scenario.cfg'}"),
    }


@pytest.mark.parametrize("case", [
    "detect-out-timing", "train-out-report", "report-out-roc", "detect-onto-input",
    "detect-through-link-onto-input", "report-onto-decisions", "simulate-onto-config",
])
def test_output_sharing_a_file_exits_2_before_any_work(
    tmp_path, bsm_csv, model_and_decisions, capsys, case
):
    _, dec = model_and_decisions
    (tmp_path / "x").write_text("earlier output\n")
    (tmp_path / "link").symlink_to(bsm_csv)
    argv, message = _shared_path_cases(tmp_path, bsm_csv, dec)[case]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: {message}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_devices_may_take_more_than_one_output(bsm_csv, capsys):
    assert main(["detect", str(bsm_csv), "--detector", "cusum", "--out", os.devnull,
                 "--timing-out", os.devnull]) == 0


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _detect_from_stdin(stdin, *argv):
    """``bsmguard detect /dev/stdin ...`` in a new process, whose standard input
    is a pipe carrying ``stdin`` (bytes) or the open file ``stdin``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    feed = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    return subprocess.run([sys.executable, "-m", "bsmguard.cli", "detect", "/dev/stdin", *argv],
                          capture_output=True, env=env, timeout=120, **feed)


@pytest.mark.parametrize("detector, mode", [
    ("bocpd", None), ("cusum", None), ("em", None), ("cusum", "transform")])
@pytest.mark.parametrize("feed, timing", [("pipe", False), ("pipe", True), ("file", False)])
def test_detect_on_stdin_writes_the_file_bytes(tmp_path, bsm_csv, detector, mode, feed,
                                                timing):
    # Every input mode reads its CSV once, so a pipe, or a file redirected to
    # stdin, gives the bytes the named file does.
    config = []
    if mode is not None:
        cfg = tmp_path / "det.cfg"
        cfg.write_text(f"{detector}.input = {mode}\n")
        config = ["--config", str(cfg)]
    on_file = tmp_path / "file.csv"
    assert main(["detect", str(bsm_csv), "--detector", detector, *config,
                 "--out", str(on_file)]) == 0
    on_stdin = tmp_path / "stdin.csv"
    timing_args = ["--timing-out", str(tmp_path / "t.txt")] if timing else []
    argv = ["--detector", detector, *config, "--out", str(on_stdin), *timing_args]
    if feed == "pipe":
        done = _detect_from_stdin(bsm_csv.read_bytes(), *argv)
    else:
        with open(bsm_csv, "rb") as fh:
            done = _detect_from_stdin(fh, *argv)
    assert done.returncode == 0, done.stderr
    assert on_stdin.read_bytes() == on_file.read_bytes()
    assert (tmp_path / "t.txt").exists() == timing
