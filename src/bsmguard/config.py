"""Flat key-value config files.

Scenario and detector settings share one format: ``key = value`` lines,
``#`` comments, UTF-8. Parsing errors carry the file name and line number;
the CLI turns them into exit code 2.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from bsmguard.bsm import WINDOW_SLACK_S
from bsmguard.detectors import DETECTORS


class ConfigError(ValueError):
    """Bad or missing configuration, with a line-precise message where possible."""


def parse_flat_config(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_flat_config(path: str) -> dict[str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    return parse_flat_config(text, source=path)


def reject_unknown_keys(keys: Iterable[str], known: Iterable[str], what: str) -> None:
    """Raise ConfigError ``what 'key'`` for the first key not in ``known``,
    with the nearest known key as a hint, so a typo cannot fall back silently."""
    known = list(known)
    for key in keys:
        if key not in known:
            near = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"{what} {key!r}{hint}")


_REQUIRED = object()


def get_value(cfg: Mapping[str, str], key: str, kind, default=_REQUIRED):
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = kind(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a finite number")
    return value


def check_windows(windows, key: str = "attack.windows") -> None:
    """Raise ConfigError naming ``key`` for an empty or inverted window or two
    windows that overlap."""
    ordered = sorted(windows)
    for start, end in ordered:
        if end <= start:
            raise ConfigError(f"key {key!r}: empty or inverted attack window ({start}, {end})")
    for (s1, e1), (s2, e2) in zip(ordered, ordered[1:]):
        if s2 < e1 - WINDOW_SLACK_S:
            raise ConfigError(f"key {key!r}: attack windows ({s1}, {e1}) and ({s2}, {e2}) overlap")


def window_pairs(raw: str, key: str = "attack.windows") -> tuple[tuple[float, float], ...]:
    """Parse 'start:end[,start:end...]' into (start, end) pairs of finite numbers."""
    if not raw.strip():
        return ()
    windows = []
    for part in raw.split(","):
        start_s, sep, end_s = part.partition(":")
        if not sep:
            raise ConfigError(f"key {key!r}: window {part!r} is not 'start:end'")
        try:
            start, end = float(start_s), float(end_s)
        except ValueError:
            raise ConfigError(f"key {key!r}: window {part!r} has non-numeric bounds") from None
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ConfigError(f"key {key!r}: window {part!r} has a non-finite bound")
        windows.append((start, end))
    return tuple(windows)


def parse_windows(raw: str, key: str = "attack.windows") -> tuple[tuple[float, float], ...]:
    """``window_pairs`` that pass ``check_windows``."""
    windows = window_pairs(raw, key)
    check_windows(windows, key)
    return windows


#: How each detector's input stream is produced from aggregated samples.
INPUT_MODES = ("speed", "standardized", "transform")


@dataclass(frozen=True)
class DetectorSettings:
    """Every detector's config and input mode, keyed by detector name."""

    configs: Mapping[str, object] = field(
        default_factory=lambda: {name: kind.config() for name, kind in DETECTORS.items()}
    )
    inputs: Mapping[str, str] = field(
        default_factory=lambda: {name: kind.input for name, kind in DETECTORS.items()}
    )

    def __post_init__(self) -> None:
        for name, mode in self.inputs.items():
            if mode not in INPUT_MODES:
                raise ConfigError(f"key '{name}.input': unknown mode {mode!r}, "
                                 f"expected one of {INPUT_MODES}")

    def config(self, detector: str):
        """The named detector's config, as ``make_detector`` takes it."""
        return self.configs[detector]

    def input_mode(self, detector: str) -> str:
        return self.inputs[detector]


def detector_settings_from_mapping(
    cfg: Mapping[str, str], source: str = "<config>"
) -> DetectorSettings:
    """Build DetectorSettings from flat keys, defaulting everything absent.

    Each detector in ``DETECTORS`` takes one ``<name>.<field>`` key per field
    of its config, typed by the field's default, plus ``<name>.input``. Any
    other key is an error naming ``source`` and the nearest valid key, so a
    misspelled setting cannot silently fall back to its default. A value a
    detector's config rejects is an error with the detector's name and the
    config's message.
    """
    known = [
        f"{name}.{key}"
        for name, kind in DETECTORS.items()
        for key in [f.name for f in fields(kind.config)] + ["input"]
    ]
    reject_unknown_keys(cfg, known, f"{source}: unknown detector key")
    configs, inputs = {}, {}
    for name, kind in DETECTORS.items():
        inputs[name] = get_value(cfg, f"{name}.input", str, kind.input)
        values = {f.name: get_value(cfg, f"{name}.{f.name}", type(f.default), f.default)
                  for f in fields(kind.config)}
        try:
            configs[name] = kind.config(**values)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return DetectorSettings(configs=configs, inputs=inputs)
