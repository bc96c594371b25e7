"""Flat key=value configuration for the command-line harness.

One file, one namespace, no sections. Every run can echo its effective
configuration (defaults, then file, then command-line overrides) so any
reported number is reproducible from the echo alone.
"""

from __future__ import annotations

import math
from typing import Any

from .errors import ConfigError

# key -> (type tag, default). "float?" allows an empty value, meaning
# "derive at run time" (e.g. random-walk densities from the sample rate).
SCHEMA: dict[str, tuple[str, Any]] = {
    "detector": ("choice:shoe,are", "shoe"),
    "window_samples": ("int", 5),
    "sigma_a": ("float", 0.2),
    "sigma_w": ("float", 0.02),
    "gravity_mag": ("float", 9.81),
    "sigma_zupt": ("float", 0.01),
    "accel_psd": ("float?", None),
    "gyro_psd": ("float?", None),
    "threshold_mode": ("choice:adaptive,fixed", "adaptive"),
    "c1": ("float", -20.0),
    "c2": ("float", -1500.0),
    "c3": ("float", 0.0),
    "log_gamma": ("float?", None),
    "prior": ("choice:informative,uninformative", "uninformative"),
    "epsilon": ("float", 0.05),
    "dtau": ("float", 0.7),
    "gyro_unit": ("choice:rad,deg", "rad"),
    "accel_unit": ("choice:ms2,g", "ms2"),
    "seed": ("int", 0),
}


def default_config() -> dict[str, Any]:
    return {key: default for key, (_, default) in SCHEMA.items()}


def _coerce(key: str, raw: str) -> Any:
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split(",")
        if raw not in options:
            raise ConfigError(
                f"config key {key}: {raw!r} not one of {', '.join(options)}"
            )
        return raw
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {raw!r} is not an integer") from exc
    if kind in ("float", "float?"):
        if raw == "" and kind == "float?":
            return None
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {raw!r} is not a number") from exc
        if not math.isfinite(value):
            raise ConfigError(f"config key {key}: {raw!r} is not finite")
        return value
    raise ConfigError(f"config key {key}: unhandled kind {kind}")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse `key=value` lines; blank lines and # comments are skipped."""
    out: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def merge_config(*layers: dict[str, Any]) -> dict[str, Any]:
    """Later layers win; None values in override layers are ignored."""
    cfg = default_config()
    for layer in layers:
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                cfg[key] = value
    return cfg


def format_config(cfg: dict[str, Any]) -> str:
    lines = []
    for key in SCHEMA:
        value = cfg.get(key)
        lines.append(f"{key}={'' if value is None else value}")
    return "\n".join(lines) + "\n"
