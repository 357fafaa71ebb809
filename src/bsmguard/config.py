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


def _convert(raw: str, key: str, kind):
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    return value


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
    return _convert(cfg[key], key, kind)


def parse_windows(raw: str, key: str = "attack.windows") -> tuple[tuple[float, float], ...]:
    """Parse 'start:end[,start:end...]' into (start, end) pairs."""
    raw = raw.strip()
    if not raw:
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
        windows.append((start, end))
    return tuple(windows)


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
    misspelled setting cannot silently fall back to its default.
    """
    known = [
        f"{name}.{key}"
        for name, kind in DETECTORS.items()
        for key in [f.name for f in fields(kind.config)] + ["input"]
    ]
    reject_unknown_keys(cfg, known, f"{source}: unknown detector key")
    configs, inputs = {}, {}
    for name, kind in DETECTORS.items():
        mode = get_value(cfg, f"{name}.input", str, kind.input)
        if mode not in INPUT_MODES:
            raise ConfigError(
                f"key '{name}.input': unknown mode {mode!r}, expected one of {INPUT_MODES}"
            )
        configs[name] = kind.config(
            **{
                f.name: get_value(cfg, f"{name}.{f.name}", type(f.default), f.default)
                for f in fields(kind.config)
            }
        )
        try:
            configs[name].validate()
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        inputs[name] = mode
    return DetectorSettings(configs=configs, inputs=inputs)
