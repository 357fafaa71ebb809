"""The README's config key lists match what the parsers accept."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from bsmguard.config import ConfigError, detector_settings_from_mapping
from bsmguard.detectors import DETECTORS
from bsmguard.simulate import SCENARIO_KEYS, scenario_from_mapping

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_keys(opening: str) -> dict[str, str]:
    """``{key: default}`` from the README paragraph that starts with ``opening``:
    each key is backticked and followed by its default in parentheses, before
    any ``;``-separated remark."""
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (text,) = [p for p in paragraphs if p.startswith(opening)]
    pairs = re.findall(r"`([\w.]+)` \(([^;)]+)[;)]", " ".join(text.split()))
    keys = dict(pairs)
    assert len(keys) == len(pairs), "a key is listed twice"
    return keys


def test_detector_keys_and_defaults_match_settings():
    documented = documented_keys("Detector config keys")
    accepted = {
        f"{name}.{key}"
        for name, kind in DETECTORS.items()
        for key in [f.name for f in fields(kind.config)] + ["input"]
    }
    assert set(documented) == accepted
    defaults = detector_settings_from_mapping({})
    for key, raw in documented.items():
        name, attr = key.split(".")
        if attr == "input":
            value = defaults.input_mode(name)
        else:
            value = getattr(defaults.config(name), attr)
        assert value == type(value)(raw), key
    # Every documented key is accepted, at its documented default.
    assert detector_settings_from_mapping(documented) == defaults


def test_scenario_keys_and_defaults_match_scenario_from_mapping():
    documented = documented_keys("Scenario config")
    assert set(documented) == set(SCENARIO_KEYS)
    required = {"duration_s": "10", "seed": "0"}
    assert {k for k, v in documented.items() if v == "required"} == set(required)
    for key in required:
        with pytest.raises(ConfigError, match=repr(key)):
            scenario_from_mapping({k: v for k, v in required.items() if k != key})
    assert documented["attack.windows"] == "none"
    assert scenario_from_mapping(required).attack is None
    sc = scenario_from_mapping({**required, "attack.windows": "1:2"})
    actual = {
        "base_speed_mps": sc.profile.base_speed,
        "noise_stdev": sc.profile.noise_stdev,
        "attack.mode": sc.attack.mode,
        "attack.magnitude": sc.attack.magnitude,
    }
    for key, value in actual.items():
        assert value == type(value)(documented[key]), key
