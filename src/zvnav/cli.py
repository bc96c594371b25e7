"""Command-line harness: run, sweep, calibrate, simulate.

A thin shell over the library. Every subcommand reads the same flat
key=value configuration (defaults, then ``--config`` file, then flag
overrides), can echo it with ``--print-config``, and exits with a coded
status: 0 success, 2 malformed input data, 3 bad configuration or usage,
4 numerical failure. Reports are line-oriented key=value text that
re-parses to the values that were written.

CSV exchange format: header ``t,ax,ay,az,gx,gy,gz`` with time in seconds,
specific force in m/s^2, angular rate in rad/s. Alternative units are
accepted via ``--gyro-unit deg`` and ``--accel-unit g`` or via unit
annotations in the header itself (``gx_deg``, ``ax(g)``); an annotation
the parser cannot classify is an error unless a flag settles it, and an
annotation that contradicts a flag is always an error. The g-unit
conversion uses standard gravity 9.80665 m/s^2, which is a property of
the file, deliberately distinct from the filter's local ``gravity_mag``.

Ground-truth labels travel in a sidecar CSV with header ``t,stationary``
and 0/1 values on the same time base as the main file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import warnings
from itertools import chain
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import SCHEMA, choices, default_config, format_config, format_key_values
from .config import format_value, key_values, load_config, merge_config, read_lines
from .core import PERIOD_REL_TOL, NoiseModel, Recording, validate_stream
from .detectors import check_gravity_direction, get_detector
from .errors import ConfigError, InputFormatError, NumericalError, StreamFormatError
from .gaitsim import (
    GaitProfile,
    extract_calibration_sets,
    fast_profile,
    normal_profile,
    simulate,
)
from .ins import RunReport, run_pipeline, run_recordings
from .threshold import ThresholdParams, calibrate

STANDARD_GRAVITY = 9.80665  # m/s^2, for g-unit file conversion only

REPORT_FORMAT = "zvnav-report-v1"

# Largest sweep grid. Every grid point is one filter lane per recording,
# holding a trajectory and traces as long as the recording.
MAX_GRID_POINTS = 1000

# The default sweep grid: acceptance criterion 7's 20 log-spaced values, -8 to -6000.
DEFAULT_GRID = tuple(float(c1) for c1 in -np.geomspace(8.0, 6000.0, 20))

_COLUMNS = ("t", "ax", "ay", "az", "gx", "gy", "gz")

# "gx", "gx_deg", "gx[deg/s]", "ax(g)", "t [s]" -> (base, annotation)
_HEADER_RE = re.compile(r"^([a-z]+)(?:[\s_\[(]\s*(.*?)\s*[\])]?)?$")


# ---------------------------------------------------------------------------
# CSV ingest


def _classify_gyro_annotation(ann: str) -> str | None:
    if "deg" in ann:
        return "deg"
    if "rad" in ann:
        return "rad"
    return None


def _classify_accel_annotation(ann: str) -> str | None:
    if "m/s" in ann or "ms2" in ann or "ms^2" in ann:
        return "ms2"
    if ann == "g":
        return "g"
    return None


def _resolve_unit(
    sensor: str,
    annotations: list[tuple[str, str]],
    flag: str | None,
    classify,
    default: str,
    path: str,
) -> str:
    """Combine header annotations with an explicit flag into one unit."""
    recognized: set[str] = set()
    for column, ann in annotations:
        kind = classify(ann)
        if kind is None:
            if flag is None:
                raise InputFormatError(
                    f"{path}: cannot tell {sensor} units from header annotation "
                    f"{ann!r} on column {column}; pass --{sensor}-unit"
                )
            continue  # an explicit flag overrides what we cannot read
        recognized.add(kind)
    if len(recognized) > 1:
        raise InputFormatError(
            f"{path}: conflicting {sensor} unit annotations in header: "
            f"{sorted(recognized)}"
        )
    if recognized:
        (kind,) = recognized
        if flag is not None and flag != kind:
            raise InputFormatError(
                f"{path}: header annotates {sensor} in {kind} "
                f"but --{sensor}-unit={flag}"
            )
        return kind
    return flag if flag is not None else default


def _parse_field(path: str, r: int, text: str) -> float:
    """One finite number from data row r, or an error naming the row."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        raise InputFormatError(f"{path}: row {r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{path}: row {r}: non-finite value {text!r}")
    return value


def _fast_rows(rows: list[str], width: int) -> np.ndarray | None:
    """Data rows as a (len(rows), width) array of finite floats, parsed in
    one streaming pass; None if any row has the wrong field count or a
    field that is not a finite number. :func:`_table` then names the
    offending row."""
    if not all(line.count(",") == width - 1 for line in rows):
        return None
    fields = chain.from_iterable(line.split(",") for line in rows)
    try:
        data = np.fromiter(map(float, fields), dtype=float, count=len(rows) * width)
    except ValueError:
        return None
    if not np.isfinite(data).all():
        return None
    return data.reshape(len(rows), width)


def _table(path: str, rows: list[str], width: int, label: bool = False) -> np.ndarray:
    """CSV data rows as a (len(rows), width) array of finite floats. With
    ``label``, the last field is a stationary label: the text 0 or 1, not
    any number equal to it. A clean table is parsed by :func:`_fast_rows`;
    the row-by-row loop below is its reference and names the first
    offending row."""
    data = _fast_rows(rows, width)
    if data is not None and (
        not label or all(line.rpartition(",")[2].strip() in ("0", "1") for line in rows)
    ):
        return data
    data = np.empty((len(rows), width))
    for r, line in enumerate(rows, start=1):
        parts = line.split(",")
        if len(parts) != width:
            raise InputFormatError(f"{path}: row {r}: expected {width} fields, got {len(parts)}")
        numbers = parts[:-1] if label else parts
        data[r - 1, : len(numbers)] = [_parse_field(path, r, part) for part in numbers]
        if label:
            flag = parts[-1].strip()
            if flag not in ("0", "1"):
                raise InputFormatError(
                    f"{path}: row {r}: stationary label must be 0 or 1, got {flag!r}"
                )
            data[r - 1, -1] = flag == "1"
    return data


def ingest_csv(path: str, gyro_unit: str | None = None,
               accel_unit: str | None = None) -> Recording:
    """Parse one IMU CSV into a Recording, applying unit conversions.

    ``gyro_unit`` (rad or deg) and ``accel_unit`` (ms2 or g) are units
    stated outside the file; None means not stated: the header annotation
    decides, and a bare header defaults to SI (rad/s, m/s^2).

    Row indices in error messages are 1-based over data rows (the row
    right after the header is row 1). A non-increasing timestamp is
    reported at the first offending row.
    """
    for key, unit in (("gyro_unit", gyro_unit), ("accel_unit", accel_unit)):
        if unit not in (None, *choices(key)):
            raise ConfigError(f"{key} must be one of {', '.join(choices(key))}, got {unit!r}")
    lines = read_lines(path, InputFormatError)
    if not lines:
        raise InputFormatError(f"{path}: empty file")

    fields = [f.strip() for f in lines[0].split(",")]
    if len(fields) != len(_COLUMNS):
        raise InputFormatError(
            f"{path}: header must have {len(_COLUMNS)} columns "
            f"t,ax,ay,az,gx,gy,gz, got {len(fields)}"
        )
    gyro_anns: list[tuple[str, str]] = []
    accel_anns: list[tuple[str, str]] = []
    for i, field in enumerate(fields):
        m = _HEADER_RE.match(field.lower())
        base, ann = (m.group(1), m.group(2) or "") if m else (None, "")
        if base != _COLUMNS[i]:
            raise InputFormatError(
                f"{path}: header column {i + 1} must be {_COLUMNS[i]!r}, "
                f"got {field!r}"
            )
        if ann and base in ("gx", "gy", "gz"):
            gyro_anns.append((field, ann))
        elif ann and base in ("ax", "ay", "az"):
            accel_anns.append((field, ann))
    gyro_unit = _resolve_unit(
        "gyro", gyro_anns, gyro_unit, _classify_gyro_annotation, "rad", path
    )
    accel_unit = _resolve_unit(
        "accel", accel_anns, accel_unit, _classify_accel_annotation, "ms2", path
    )

    rows = lines[1:]
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    data = _table(path, rows, len(_COLUMNS))

    t = data[:, 0]
    bad = np.flatnonzero(np.diff(t) <= 0)
    if bad.size:
        i = int(bad[0]) + 1  # 0-based sample index of the offender
        raise InputFormatError(
            f"{path}: row {i + 1}: timestamp {float(t[i])!r} does not increase "
            f"past {float(t[i - 1])!r}"
        )

    accel = data[:, 1:4]
    gyro = data[:, 4:7]
    if gyro_unit == "deg":
        gyro = np.radians(gyro)
    if accel_unit == "g":
        accel = accel * STANDARD_GRAVITY
    return Recording(id=Path(path).stem, t=t, accel=accel, gyro=gyro)


def ingest_labels(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``t,stationary`` sidecar; times must be finite, values 0 or 1."""
    lines = read_lines(path, InputFormatError)
    if not lines or [f.strip().lower() for f in lines[0].split(",")] != ["t", "stationary"]:
        raise InputFormatError(f"{path}: labels header must be t,stationary")
    data = _table(path, lines[1:], 2, label=True)
    return data[:, 0].copy(), data[:, 1] == 1.0


def attach_labels(rec: Recording, times: np.ndarray, flags: np.ndarray) -> Recording:
    """Return a copy of the recording with labels, verifying the time base."""
    if len(times) != len(rec):
        raise InputFormatError(
            f"labels carry {len(times)} rows but recording {rec.id} has "
            f"{len(rec)} samples"
        )
    mismatch = np.flatnonzero(~(np.abs(times - rec.t) <= 5e-7))  # NaN mismatches
    if mismatch.size:
        i = int(mismatch[0])
        raise InputFormatError(
            f"labels row {i + 1}: time {float(times[i])!r} does not match "
            f"recording time {float(rec.t[i])!r}"
        )
    return dataclasses.replace(rec, stationary=flags)


# ---------------------------------------------------------------------------
# CSV / sidecar output


def _fmt_row(row: np.ndarray, sep: str) -> str:
    """One float row as repr fields: the text of :func:`format_value`, from
    one ``tolist`` call instead of a conversion per element."""
    return sep.join(map(repr, row.tolist()))


def write_recording_csv(path: str, rec: Recording) -> None:
    """Write a recording in the exchange format, always in SI units.

    Floats are written with repr so a read-back reproduces them exactly.
    """
    table = np.column_stack([rec.t, rec.accel, rec.gyro])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,ax,ay,az,gx,gy,gz\n")
        fh.writelines(_fmt_row(row, ",") + "\n" for row in table)


def write_labels_csv(path: str, t: np.ndarray, stationary: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,stationary\n")
        fh.writelines(f"{ti!r},{1 if si else 0}\n"
                      for ti, si in zip(np.asarray(t, dtype=float).tolist(), stationary))


def write_meta(path: str, rec: Recording) -> None:
    items = [("id", rec.id), ("gait_tag", rec.gait_tag), ("loop_length_m", rec.loop_length_m)]
    text = format_key_values((key, value) for key, value in items if value is not None)
    Path(path).write_text(text, encoding="utf-8")


def read_meta(path: str) -> dict[str, Any]:
    meta = {key: raw.strip() for _, key, raw in
            key_values(read_lines(path, InputFormatError), path, InputFormatError)}
    if "loop_length_m" in meta:
        raw = meta["loop_length_m"]
        try:
            meta["loop_length_m"] = float(raw)
        except ValueError:
            meta["loop_length_m"] = math.nan  # rejected below, with the out-of-range values
        if not 0.0 <= meta["loop_length_m"] < math.inf:
            raise InputFormatError(
                f"{path}: loop_length_m must be a finite number >= 0, got {raw!r}")
    return meta


# ---------------------------------------------------------------------------
# Run reports


def format_report(report: RunReport) -> str:
    """Serialize a run report as key=value lines (floats via repr)."""
    return format_key_values([
        ("format", REPORT_FORMAT),
        ("recording_id", report.recording_id),
        ("n_samples", len(report.decisions)),
        ("zupt_count", report.zupt_count),
        ("loop_closure_error_m", float(report.loop_closure_error_m)),
        ("final_position_m", tuple(report.trajectory[-1].tolist())),
        *((f"params.{key}", report.params_used[key]) for key in sorted(report.params_used)),
    ])


# keys whose values stay strings even when they look numeric
_STRING_KEYS = frozenset({"format", "recording_id", "params.detector"})


def parse_report(text: str) -> dict[str, Any]:
    """Parse report text back into a flat dict with original value types.
    Text that is not a report is rejected before any value is read."""
    items = list(key_values(text.splitlines(), "report", InputFormatError))
    fmt = {key: raw for _, key, raw in items}.get("format")
    if fmt != REPORT_FORMAT:
        raise InputFormatError(f"not a {REPORT_FORMAT} report (format={fmt!r})")
    out: dict[str, Any] = {}
    for lineno, key, raw in items:
        if key in _STRING_KEYS:
            out[key] = raw
        elif "," in raw:
            try:
                out[key] = tuple(float(x) for x in raw.split(","))
            except ValueError:
                raise InputFormatError(
                    f"report:{lineno}: {key} is not a list of numbers: {raw!r}"
                ) from None
        else:
            for cast in (int, float):
                try:
                    out[key] = cast(raw)
                    break
                except ValueError:
                    continue
            else:
                raise InputFormatError(f"report:{lineno}: {key} is not a number: {raw!r}")
    return out


def format_trace(report: RunReport, t: np.ndarray) -> str:
    """Per-sample trace table: statistic and threshold against time.

    Warm-up samples (before the first full detector window) carry nan in
    both traces.
    """
    lines = ["t\tlogl\tlog_gamma\tdecision\tpx\tpy\tpz"]
    rows = zip(
        np.column_stack([t, report.logl_trace, report.log_gamma_trace]),
        report.decisions.tolist(),
        report.trajectory,
    )
    lines += [_fmt_row(a, "\t") + f"\t{d:d}\t" + _fmt_row(p, "\t") for a, d, p in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Config -> model objects


def noise_from_config(cfg: dict[str, Any]) -> NoiseModel:
    try:
        return NoiseModel(
            sigma_a=cfg["sigma_a"],
            sigma_w=cfg["sigma_w"],
            gravity_mag=cfg["gravity_mag"],
            sigma_zupt=cfg["sigma_zupt"],
            accel_psd=cfg["accel_psd"],
            gyro_psd=cfg["gyro_psd"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def threshold_from_config(cfg: dict[str, Any]) -> ThresholdParams:
    """Fixed mode pins log gamma = c1 (or log_gamma when given) with no
    time or speed terms; the comparison stays in the log domain, so the
    implied gamma = exp(c1) never has to be representable."""
    if cfg["threshold_mode"] == "fixed":
        base = cfg["log_gamma"] if cfg["log_gamma"] is not None else cfg["c1"]
        return ThresholdParams(base, 0.0, 0.0)
    return ThresholdParams(cfg["c1"], cfg["c2"], cfg["c3"])


def _check_window(cfg: dict[str, Any]) -> int:
    n = cfg["window_samples"]
    if n < 1:
        raise ConfigError(f"window_samples must be >= 1, got {n}")
    return n


# ---------------------------------------------------------------------------
# Commands (library level; the argparse layer below is a thin wrapper)


def cmd_run(rec: Recording, cfg: dict[str, Any]) -> RunReport:
    """One detector + filter pass over one recording."""
    return run_pipeline(
        rec,
        cfg["detector"],
        threshold_from_config(cfg),
        noise_from_config(cfg),
        window_samples=_check_window(cfg),
    )


def _rmse(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    return math.sqrt(sum(v * v for v in values) / len(values))


def cmd_sweep(
    recordings: Sequence[Recording],
    cfg: dict[str, Any],
    c1_grid: Sequence[float],
) -> list[dict[str, Any]]:
    """Fixed-threshold grid plus one adaptive run over a recording set.

    Returns table rows (threshold_mode, c1, subset, rmse_m, n_recordings):
    for each gait-tag subset and for "all", one row per grid point and one
    adaptive row, grid order preserved. RMSE aggregates loop-closure error
    over recordings that declare loop_length_m; others are still processed
    but excluded, with a warning.
    """
    grid = [float(c) for c in c1_grid]
    if not grid:
        raise ConfigError("sweep needs a non-empty c1 grid")
    noise = noise_from_config(cfg)
    window = _check_window(cfg)
    adaptive = ThresholdParams(cfg["c1"], cfg["c2"], cfg["c3"])
    configs: list[tuple[str, float, ThresholdParams]] = [
        ("fixed", c1, ThresholdParams(c1, 0.0, 0.0)) for c1 in grid
    ]
    configs.append(("adaptive", float(adaptive.c1), adaptive))

    included = []  # positions in ``recordings``: two may share an id
    for i, rec in enumerate(recordings):
        if rec.loop_length_m is None:
            warnings.warn(
                f"recording {rec.id} declares no loop_length_m; processed "
                f"but excluded from RMSE aggregation",
                stacklevel=2,
            )
        else:
            included.append(i)

    # one lane per (recording, config), all stepped together in one loop
    lanes = [params for _, _, params in configs]
    runs = run_recordings(recordings, cfg["detector"], lanes, noise, window_samples=window)
    errors = [[report.loop_closure_error_m for report in reports] for reports in runs]

    tags = sorted({recordings[i].gait_tag for i in included} - {None})
    subsets: list[tuple[str, list[int]]] = [
        (tag, [i for i in included if recordings[i].gait_tag == tag]) for tag in tags
    ]
    subsets.append(("all", included))

    rows = []
    for subset, members in subsets:
        for lane, (mode, c1, _) in enumerate(configs):
            rows.append(
                {
                    "threshold_mode": mode,
                    "c1": c1,
                    "subset": subset,
                    "rmse_m": _rmse([errors[i][lane] for i in members]),
                    "n_recordings": len(members),
                }
            )
    return rows


SWEEP_COLUMNS = ("threshold_mode", "c1", "subset", "rmse_m", "n_recordings")


def format_sweep_table(rows: Sequence[dict[str, Any]]) -> str:
    table = [SWEEP_COLUMNS, *([row[c] for c in SWEEP_COLUMNS] for row in rows)]
    return "".join("\t".join(map(format_value, line)) + "\n" for line in table)


def concat_recordings(recordings: Sequence[Recording]) -> Recording:
    """Join recordings end to end on one monotone time base; ``zvnav run``
    runs its files joined so, and one recording comes back unchanged.

    Each later recording is shifted so the join gap equals its own first
    sample period; filter state then flows across the seam when the result
    is run as a single stream. Labels survive only if every part has them.
    The joined stream must pass validate_stream, so the median sample
    periods of adjacent parts may differ by at most its tolerance.
    """
    if not recordings:
        raise ConfigError("concat needs at least one recording")
    if len(recordings) == 1:
        return recordings[0]
    periods = [(i, rec, float(np.median(np.diff(rec.t))))
               for i, rec in enumerate(recordings, 1) if len(rec.t) >= 2]
    for (i, a, pa), (j, b, pb) in zip(periods, periods[1:]):
        if abs(pb - pa) > PERIOD_REL_TOL * pa:
            raise StreamFormatError(
                f"cannot concat part {i} ({a.id}, median period {pa:.6g} s) with "
                f"part {j} ({b.id}, median period {pb:.6g} s): the sampling rates "
                f"differ by more than {PERIOD_REL_TOL:.0%}"
            )
    ts, accels, gyros, labels = [], [], [], []
    have_labels = all(r.stationary is not None for r in recordings)
    t_end = None
    last_dt = None
    for i, rec in enumerate(recordings, 1):
        t = rec.t
        if len(t) >= 2:
            own_dt = float(t[1] - t[0])
        elif last_dt is not None:
            own_dt = last_dt
        else:
            own_dt = 1.0  # a 1-sample head segment has no period to carry
        if t_end is not None:
            with np.errstate(over="ignore"):
                t = t + (t_end + own_dt - t[0])
            if not math.isfinite(t[-1]):  # t increases, so its last entry is its largest
                raise StreamFormatError(
                    f"cannot concat part {i} ({rec.id}) after part {i - 1} "
                    f"({recordings[i - 2].id}): shifting its times past the seam at "
                    f"{t_end:.6g} s overflows"
                )
        ts.append(t)
        accels.append(rec.accel)
        gyros.append(rec.gyro)
        if have_labels:
            labels.append(rec.stationary)
        t_end = float(t[-1])
        if len(t) >= 2:
            last_dt = float(t[-1] - t[-2])
    return Recording(
        id="+".join(r.id for r in recordings),
        t=np.concatenate(ts),
        accel=np.concatenate(accels),
        gyro=np.concatenate(gyros),
        stationary=np.concatenate(labels) if have_labels else None,
    )


def cmd_calibrate(rec: Recording, cfg: dict[str, Any]) -> ThresholdParams:
    """Fit threshold coefficients from one labeled recording.

    The uninformative prior drops the speed term (c3 = 0); the informative
    prior anchors it at the reference swing speed statistic. The stream
    must pass validate_stream, as for run and sweep.
    """
    noise = noise_from_config(cfg)
    n = _check_window(cfg)
    validate_stream(rec)
    sets = extract_calibration_sets(rec, n, noise=noise,
                                    reference_xi=cfg["prior"] == "informative")
    det = get_detector(cfg["detector"])
    if det.name == "shoe":  # SHOE needs each window's own gravity direction
        check_gravity_direction(
            rec.accel, np.concatenate([sets.stationary, sets.midstance, sets.swing]), n
        )
    logl = det.trace(rec.accel, rec.gyro, n, noise)
    return calibrate(
        logl[sets.stationary + n - 1], logl[sets.midstance + n - 1],
        logl[sets.swing + n - 1], sets.xi_star,
        dtau=cfg["dtau"], epsilon=cfg["epsilon"],
    )


def format_calibration(params: ThresholdParams) -> str:
    """Emit fitted coefficients as config lines, ready to merge."""
    return format_key_values([("threshold_mode", "adaptive"), ("c1", float(params.c1)),
                              ("c2", float(params.c2)), ("c3", float(params.c3))])


_GAITS: dict[str, Any] = {
    "normal": normal_profile,
    "fast": fast_profile,
    "still": lambda noise, seed: GaitProfile(
        speed=0.0,
        step_length=0.0,
        stance_fraction=0.55,
        cadence=1.4,
        sample_rate=250.0,
        noise=noise,
        seed=seed,
    ),
}


def cmd_simulate(cfg: dict[str, Any], gait: str, duration: float, path: str,
                 out_prefix: str, noise_scale: float = 1.0) -> Recording:
    """Synthesize a recording and write csv + labels + meta sidecars."""
    if gait not in _GAITS:
        raise ConfigError(f"gait must be one of {sorted(_GAITS)}, got {gait!r}")
    noise = noise_from_config(cfg)
    profile = _GAITS[gait](noise, cfg["seed"])
    lab = simulate(profile, duration, path, noise_scale=noise_scale)
    rec = lab.to_recording(Path(out_prefix).name, gait)
    if path != "closed-loop":
        # an open path has a length but no loop to close on
        rec = dataclasses.replace(rec, loop_length_m=None)
    write_recording_csv(out_prefix + ".csv", rec)
    write_labels_csv(out_prefix + ".labels.csv", lab.t, lab.stationary)
    write_meta(out_prefix + ".meta", rec)
    return rec


# ---------------------------------------------------------------------------
# argparse layer


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the configuration status code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--print-config", action="store_true",
                   help="echo the effective configuration and exit")
    for key, (kind, _) in SCHEMA.items():  # --key-with-dashes sets key
        if kind.startswith("choice:"):
            typed = {"choices": choices(key)}
        else:
            typed = {"type": int if kind == "int" else float}
        p.add_argument("--" + key.replace("_", "-"), dest=key, **typed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zvnav",
        description="Zero-velocity-aided inertial navigation harness.",
        epilog="exit codes: 0 success, 2 malformed input data, "
               "3 configuration or usage error (an unwritable output path too), "
               "4 numerical failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process recordings, joined end to end")
    p_run.add_argument("recordings", nargs="+", help="IMU CSV files")
    p_run.add_argument("--report", metavar="FILE",
                       help="write the report here instead of stdout")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write the per-sample statistic/threshold table")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="fixed-threshold grid vs adaptive")
    p_sweep.add_argument("recordings", nargs="+", help="IMU CSV files")
    p_sweep.add_argument("--grid", metavar="C1[,C1...]",
                         help=f"comma-separated c1 grid, at most {MAX_GRID_POINTS} values "
                              "(default 20 log-spaced values from -8 to -6000)")
    p_sweep.add_argument("--out", metavar="FILE",
                         help="write the table here instead of stdout")
    _add_config_flags(p_sweep)

    p_cal = sub.add_parser("calibrate", help="fit c1,c2,c3 from labeled data")
    p_cal.add_argument("recording", help="IMU CSV file")
    p_cal.add_argument("--labels", required=True, help="t,stationary sidecar CSV")
    p_cal.add_argument("--out", metavar="FILE",
                       help="write config lines here instead of stdout")
    _add_config_flags(p_cal)

    p_sim = sub.add_parser("simulate", help="synthesize a gait recording")
    p_sim.add_argument("--gait", choices=sorted(_GAITS), default="normal")
    p_sim.add_argument("--duration", type=float, default=30.0)
    p_sim.add_argument("--path", choices=["closed-loop", "straight"],
                       default="closed-loop")
    p_sim.add_argument("--noise-scale", type=float, default=1.0,
                       dest="noise_scale")
    p_sim.add_argument("--out", required=True, metavar="PREFIX",
                       help="writes PREFIX.csv, PREFIX.labels.csv, PREFIX.meta")
    _add_config_flags(p_sim)
    return parser


def _effective_config(args) -> tuple[dict[str, Any], dict[str, Any]]:
    """Merge defaults, the config file, and flag overrides.

    Also returns the explicit (file + flag) layer so ingest can tell a
    stated unit from the SI default.
    """
    file_cfg = load_config(args.config) if args.config else {}
    overrides = {}
    for key in default_config():
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    explicit = dict(file_cfg)
    explicit.update(overrides)
    return merge_config(file_cfg, overrides), explicit


def _load_recording(path: str, explicit: dict[str, Any],
                    labels: str | None = None, want_meta: bool = False) -> Recording:
    rec = ingest_csv(path, explicit.get("gyro_unit"), explicit.get("accel_unit"))
    if labels:
        rec = attach_labels(rec, *ingest_labels(labels))
    if want_meta:
        meta_path = Path(path).with_suffix(".meta")
        if meta_path.exists():
            meta = read_meta(str(meta_path))
            rec = dataclasses.replace(
                rec,
                gait_tag=meta.get("gait_tag", rec.gait_tag),
                loop_length_m=meta.get("loop_length_m", rec.loop_length_m),
            )
    return rec


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _sweep_grid(text: str | None) -> list[float]:
    """The c1 grid of a ``--grid`` value, DEFAULT_GRID when it is absent."""
    if text is None:
        return list(DEFAULT_GRID)
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from exc
    if len(grid) > MAX_GRID_POINTS:
        raise ConfigError(f"--grid has at most {MAX_GRID_POINTS} values, got {len(grid)}")
    return grid


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, explicit = _effective_config(args)
        if args.print_config:
            sys.stdout.write(format_config(cfg))
            return 0

        if args.command == "run":
            rec = concat_recordings([_load_recording(p, explicit) for p in args.recordings])
            report = cmd_run(rec, cfg)
            _emit(format_report(report), args.report)
            if args.trace:
                _emit(format_trace(report, rec.t), args.trace)
        elif args.command == "sweep":
            recs = [
                _load_recording(p, explicit, want_meta=True)
                for p in args.recordings
            ]
            rows = cmd_sweep(recs, cfg, _sweep_grid(args.grid))
            _emit(format_sweep_table(rows), args.out)
        elif args.command == "calibrate":
            rec = _load_recording(args.recording, explicit, args.labels)
            params = cmd_calibrate(rec, cfg)
            _emit(format_calibration(params), args.out)
        elif args.command == "simulate":
            rec = cmd_simulate(
                cfg, args.gait, args.duration, args.path,
                args.out, args.noise_scale,
            )
            length = (
                f", path length {rec.loop_length_m:.3f} m"
                if rec.loop_length_m is not None
                else ""
            )
            sys.stdout.write(f"wrote {args.out}.csv: {len(rec)} samples{length}\n")
    except InputFormatError as exc:
        print(f"zvnav: input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"zvnav: config error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"zvnav: numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # inputs map their OSErrors to InputFormatError
        print(f"zvnav: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
