"""Flat key-value config files.

Scenario and detector settings share one format: ``key = value`` lines,
``#`` comments, UTF-8. Parsing errors carry the file name and line number;
the CLI turns them into exit code 2.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from bsmguard.detectors import BocpdConfig, CusumConfig, EmConfig


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_flat_config(fh.read(), source=path)


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


def format_windows(windows) -> str:
    return ",".join(f"{a}:{b}" for a, b in windows)


#: How each detector's input stream is produced from aggregated samples.
INPUT_MODES = ("speed", "standardized", "transform")


@dataclass(frozen=True)
class DetectorSettings:
    """All three detectors' configs plus their input wiring."""

    bocpd: BocpdConfig = BocpdConfig()
    em: EmConfig = EmConfig()
    cusum: CusumConfig = CusumConfig()
    bocpd_input: str = "standardized"
    em_input: str = "speed"
    cusum_input: str = "standardized"

    def config(self, detector: str):
        """The named detector's config, as ``make_detector`` takes it."""
        return {"bocpd": self.bocpd, "em": self.em, "cusum": self.cusum}[detector]

    def input_mode(self, detector: str) -> str:
        return {"bocpd": self.bocpd_input, "em": self.em_input, "cusum": self.cusum_input}[
            detector
        ]


def detector_settings_from_mapping(
    cfg: Mapping[str, str], source: str = "<config>"
) -> DetectorSettings:
    """Build DetectorSettings from flat keys, defaulting everything absent.

    Any other key is an error naming ``source`` and the nearest valid key, so
    a misspelled setting cannot silently fall back to its default.
    """
    known: list[str] = []

    def get(key, kind, default):
        known.append(key)
        return get_value(cfg, key, kind, default)

    settings = DetectorSettings(
        bocpd=BocpdConfig(
            mu0=get("bocpd.mu0", float, BocpdConfig.mu0),
            kappa=get("bocpd.kappa", float, BocpdConfig.kappa),
            alpha=get("bocpd.alpha", float, BocpdConfig.alpha),
            beta=get("bocpd.beta", float, BocpdConfig.beta),
            threshold=get("bocpd.threshold", float, BocpdConfig.threshold),
            warmup=get("bocpd.warmup", int, BocpdConfig.warmup),
        ),
        em=EmConfig(
            threshold=get("em.threshold", float, EmConfig.threshold),
            seed=get("em.seed", int, EmConfig.seed),
        ),
        cusum=CusumConfig(
            delta=get("cusum.delta", float, CusumConfig.delta),
            alpha=get("cusum.alpha", float, CusumConfig.alpha),
            h_sigma=get("cusum.h_sigma", float, CusumConfig.h_sigma),
            warmup=get("cusum.warmup", int, CusumConfig.warmup),
        ),
        bocpd_input=get("bocpd.input", str, DetectorSettings.bocpd_input),
        em_input=get("em.input", str, DetectorSettings.em_input),
        cusum_input=get("cusum.input", str, DetectorSettings.cusum_input),
    )
    reject_unknown_keys(cfg, known, f"{source}: unknown detector key")
    for det in ("bocpd", "em", "cusum"):
        mode = settings.input_mode(det)
        if mode not in INPUT_MODES:
            raise ConfigError(
                f"key '{det}.input': unknown mode {mode!r}, expected one of {INPUT_MODES}"
            )
    try:
        settings.bocpd.validate()
        settings.em.validate()
        settings.cusum.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return settings
