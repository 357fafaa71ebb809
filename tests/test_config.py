"""Flat config parsing and detector settings mapping."""

import pytest

from bsmguard.config import (
    ConfigError,
    detector_settings_from_mapping,
    get_value,
    parse_flat_config,
    parse_windows,
)


class TestParsing:
    def test_basic_keys_and_comments(self):
        cfg = parse_flat_config("# header\na = 1\n\nb.c = hello world\n")
        assert cfg == {"a": "1", "b.c": "hello world"}

    def test_malformed_line_reports_location(self):
        with pytest.raises(ConfigError, match=r"x\.cfg:3"):
            parse_flat_config("a = 1\n\nnot a line\n", source="x.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat_config("a = 1\na = 2\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="'seed'"):
            get_value({}, "seed", int)

    def test_type_conversion_error_named(self):
        with pytest.raises(ConfigError, match="'seed'"):
            get_value({"seed": "abc"}, "seed", int)

    def test_windows_parse_and_errors(self):
        assert parse_windows("1.0:2.0,3.5:4.0") == ((1.0, 2.0), (3.5, 4.0))
        assert parse_windows("") == ()
        with pytest.raises(ConfigError, match="start:end"):
            parse_windows("1.0-2.0")
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_windows("a:b")
        with pytest.raises(ConfigError, match="'--windows': window '0:inf' has a non-finite"):
            parse_windows("1:2,0:inf", "--windows")
        with pytest.raises(ConfigError, match=r"'--windows': empty or inverted .* \(2.0, 2.0\)"):
            parse_windows("2:2", "--windows")
        with pytest.raises(ConfigError, match=r"windows \(3.0, 5.0\) and \(4.0, 6.0\) overlap"):
            parse_windows("4:6,3:5")


class TestDetectorSettings:
    def test_defaults_are_published_values(self):
        s = detector_settings_from_mapping({})
        assert s.config("bocpd").mu0 == 0.0
        assert s.config("bocpd").kappa == 0.1
        assert s.config("bocpd").alpha == 1e-5
        assert s.config("bocpd").beta == 1e-5
        assert s.config("bocpd").threshold == 0.0002
        assert s.config("em").threshold == 0.01
        assert s.config("cusum").delta == 1.0
        assert s.config("cusum").alpha == 0.025
        assert s.config("cusum").h_sigma == 5.0
        assert s.input_mode("bocpd") == "standardized"
        assert s.input_mode("em") == "speed"
        assert s.input_mode("cusum") == "standardized"

    def test_every_key_reaches_its_field(self):
        s = detector_settings_from_mapping(
            {
                "bocpd.mu0": "2.0",
                "bocpd.kappa": "0.5",
                "bocpd.alpha": "0.25",
                "bocpd.beta": "0.125",
                "bocpd.threshold": "0.001",
                "bocpd.warmup": "20",
                "em.threshold": "0.05",
                "em.seed": "77",
                "cusum.delta": "2.0",
                "cusum.alpha": "0.1",
                "cusum.h_sigma": "4.0",
                "cusum.warmup": "10",
                "bocpd.input": "speed",
                "em.input": "transform",
                "cusum.input": "transform",
            }
        )
        assert s.config("bocpd").mu0 == 2.0
        assert s.config("bocpd").kappa == 0.5
        assert s.config("bocpd").alpha == 0.25
        assert s.config("bocpd").beta == 0.125
        assert s.config("bocpd").threshold == 0.001
        assert s.config("bocpd").warmup == 20
        assert s.config("em").threshold == 0.05
        assert s.config("em").seed == 77
        assert s.config("cusum").delta == 2.0
        assert s.config("cusum").alpha == 0.1
        assert s.config("cusum").h_sigma == 4.0
        assert s.config("cusum").warmup == 10
        assert s.input_mode("bocpd") == "speed"
        assert s.input_mode("em") == "transform"
        assert s.input_mode("cusum") == "transform"

    def test_unknown_key_rejected_with_suggestion(self):
        with pytest.raises(ConfigError, match=r"det\.cfg: .*'cusum\.h_sgma'.*'cusum\.h_sigma'"):
            detector_settings_from_mapping({"cusum.h_sgma": "0.001"}, source="det.cfg")
        # The hazard rate is not a setting: the detector has no use for it.
        with pytest.raises(ConfigError, match="'bocpd.lambda'"):
            detector_settings_from_mapping({"bocpd.lambda": "0.10"})

    def test_unknown_input_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            detector_settings_from_mapping({"em.input": "wavelet"})

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_with_key(self, raw):
        # A nan threshold would pass every range check and never alarm.
        with pytest.raises(ConfigError, match=r"'bocpd\.threshold'.*finite"):
            detector_settings_from_mapping({"bocpd.threshold": raw})

    def test_non_finite_scenario_float_rejected_with_key(self):
        from bsmguard.simulate import scenario_from_mapping

        with pytest.raises(ConfigError, match="'noise_stdev'.*finite"):
            scenario_from_mapping({"duration_s": "10", "seed": "1", "noise_stdev": "inf"})

    def test_negative_em_seed_rejected(self):
        # numpy seeds are non-negative; a negative one used to fail mid-stream.
        with pytest.raises(ConfigError, match="em: seed must be non-negative"):
            detector_settings_from_mapping({"em.seed": "-3"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            detector_settings_from_mapping({"bocpd.kappa": "-1"})
        with pytest.raises(ConfigError):
            detector_settings_from_mapping({"cusum.alpha": "1.5"})
