"""Flat key=value configuration for the command-line harness, and the one
text codec behind every file the harness reads or writes.

One file, one namespace, no sections. Every run can echo its effective
configuration (defaults, then file, then command-line overrides) so any
reported number is reproducible from the echo alone. Config files, meta
sidecars, calibration output and run reports share one key=value grammar
(:func:`key_values`, :func:`format_key_values`), and every input file is
read by :func:`read_lines`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterable, Iterator

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


def read_lines(path: str, error: type[Exception]) -> list[str]:
    """Lines of a UTF-8 text file (a leading byte-order mark is dropped),
    without the blank lines at its end. Blank lines elsewhere stay, so a
    parser can name them. A file that cannot be read or decoded raises
    ``error``."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def key_values(lines: Iterable[str], source: str,
               error: type[Exception]) -> Iterator[tuple[int, str, str]]:
    """``(lineno, key, raw)`` for each ``key=value`` line, skipping blank
    lines and ``#`` comments. The key is stripped; ``raw`` is the text after
    the first ``=``, unstripped. A line without ``=`` raises ``error``."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise error(f"{source}:{lineno}: expected key=value, got {line!r}")
        yield lineno, key.strip(), raw


def format_value(value: Any) -> str:
    """The text of one value: floats by ``repr(float(x))``, so they re-parse
    exactly; tuples comma-joined; None empty; anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def format_key_values(items: Iterable[tuple[str, Any]]) -> str:
    """``key=value`` lines, each value written by :func:`format_value`."""
    return "".join(f"{key}={format_value(value)}\n" for key, value in items)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, Any]:
    """Parse `key=value` lines; blank lines and # comments are skipped."""
    out: dict[str, Any] = {}
    for lineno, key, raw in key_values(text.splitlines(), source, ConfigError):
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str) -> dict[str, Any]:
    return parse_config_text("\n".join(read_lines(path, ConfigError)), source=path)


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
    return format_key_values((key, cfg.get(key)) for key in SCHEMA)
