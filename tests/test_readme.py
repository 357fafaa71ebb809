"""The README's config key lists match what the parsers accept, the code
names it cites exist, and its claims about what each detector catches hold."""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import pytest

import bsmguard
from bsmguard.bsm import aggregate
from bsmguard.config import ConfigError, DetectorSettings, detector_settings_from_mapping
from bsmguard.detectors import DETECTORS
from bsmguard.pipeline import run_detection
from bsmguard.simulate import (
    SCENARIO_KEYS,
    AttackSpec,
    DrivingProfile,
    Scenario,
    Segment,
    scenario_from_mapping,
)

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


def test_every_backticked_bsmguard_name_resolves():
    # `module.name` for the package's modules and `Class.attr` for its
    # classes, where an attribute of a fresh instance counts; code blocks aside.
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    modules = {m.name: importlib.import_module(f"bsmguard.{m.name}")
               for m in pkgutil.iter_modules(bsmguard.__path__)}
    classes = {name: obj for module in modules.values() for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__.startswith("bsmguard.")}
    cited = [m.groups() for span in re.findall(r"`([^`]+)`", text)
             if (m := re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", span, flags=re.S))
             and (m[1] in modules or m[1] in classes)]
    assert {("detectors", "_m_half"), ("EmDetector", "last_ll_history")} <= set(cited)
    missing = [f"{owner}.{attr}" for owner, attr in cited
               if not (hasattr(modules[owner], attr) if owner in modules
                       else hasattr(classes[owner], attr) or hasattr(classes[owner](), attr))]
    assert missing == []


def test_near_ambient_offsets_are_caught_by_bocpd_and_cusum_not_em():
    claim = ("Speed offsets that stay near ambient are outside its reach by "
             "construction; the Bayesian and CUSUM detectors cover those.")
    assert claim in " ".join(README.read_text(encoding="utf-8").split())
    # A 20 s window of +1 or -1 m/s (four noise sigmas) on the default
    # cruise, default settings. Over seeds 0-7 of each sign, em flagged
    # nothing, bocpd 17-40 true positives per seed and cusum 137-184.
    settings = DetectorSettings()
    for seed in range(8):
        attack = AttackSpec(windows=((100.0, 120.0),), mode="offset",
                            magnitude=1.0 if seed % 2 else -1.0)
        samples = list(aggregate(Scenario(DrivingProfile(duration_s=200.0), attack, seed).run()))
        hits = {}
        for name in DETECTORS:
            pairs = list(run_detection(samples, name, settings))
            hits[name] = (sum(d.attack for _, d in pairs),
                          sum(d.attack for s, d in pairs if s.label))
        assert hits["em"] == (0, 0), seed
        assert hits["bocpd"][1] >= 10, seed
        assert hits["cusum"][1] >= 100, seed


def test_a_legitimate_slowdown_keeps_every_detector_alarming():
    claim = ("A persistent legitimate regime change (a vehicle entering a slower "
             "corridor, say) is statistically indistinguishable from a sustained "
             "false-speed attack")
    assert claim in " ".join(README.read_text(encoding="utf-8").split())
    # No attack: a 15.6 m/s cruise, a decel to 11 m/s over [60, 70) s, then
    # cruise, default settings. Over seeds 0-4 nothing alarmed before the
    # ramp; from the ramp on, of 1,401 warmed samples per seed, bocpd
    # flagged 1,372-1,373, cusum 1,375-1,382 and em 1,325-1,355 (724 on seed 3).
    profile = DrivingProfile(duration_s=200.0, segments=(
        Segment("cruise", 60.0), Segment("decel", 10.0, 11.0), Segment("cruise", 130.0)))
    settings = DetectorSettings()
    for seed in range(3):
        samples = list(aggregate(Scenario(profile, None, seed).run()))
        for name in DETECTORS:
            pairs = list(run_detection(samples, name, settings))
            assert not any(d.attack for s, d in pairs if s.t < 60.0), (name, seed)
            after = [d.attack for s, d in pairs if s.t >= 60.0 and d.warmed_up]
            assert len(after) == 1401
            assert sum(after) >= 0.9 * len(after), (name, seed)
