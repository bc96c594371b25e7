"""The three benchmark workloads: seeded inputs, one operation, its check.

Each workload builds a pool of operations from the workload seed. The
benchmark runs the pool in order, over and over, one operation at a time
(a closed loop with one client). Every operation's output is checked
independently of the code that produced it.

Seeds. Seed s draws the corpus recordings from base seed 1000 + 1000*s
and the calibration walks from 777 + 1000*s, so seed 0 reproduces the
acceptance seeds (corpus base 1000, calibration walk 777). Each pool also
holds one reference item that does not depend on the seed: the
acceptance inputs themselves. ``closure_rmse_m`` is taken on the
reference item only, because across seeds the loop-closure error of a
handful of walks spreads by 25% or more (data, not timing noise), which
is wider than any bound the benchmark may set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zvnav import cli
from zvnav.config import merge_config, parse_config_text
from zvnav.core import NoiseModel
from zvnav.detectors import shoe_log_lr_trace
from zvnav.gaitsim import fast_profile, normal_profile, simulate
from zvnav.ins import run_pipeline
from zvnav.threshold import ThresholdParams

NOISE = NoiseModel(sigma_a=0.2, sigma_w=0.02)
WINDOW = 5
CORPUS_BASE_SEED = 1000
CALIBRATION_SEED = 777
SEED_STRIDE = 1000
CALIBRATION_WALK_S = 30.0

# `zvnav calibrate --prior informative` on the 30 s acceptance walk (seed
# 777), as commit cf47b34 computes it. c1 and c2 do not depend on
# the prior; the uninformative prior sets c3 = 0. `sweep` and `run` use
# this config whatever the workload seed: a per-seed fit ranges over c1
# in [-1750, -50] and sometimes gives c2 > 0, which would change how many
# updates fire, and with it the cost of every lane. `calibrate` checks
# that the program still fits it on that walk.
PINNED_CALIBRATION = (-79.49285067236112, -1586.497541086487, -0.0036174878661491203)

# Relative tolerance for values the benchmark recomputes itself.
REL_TOL = 1e-9
# Tolerance of a sweep row against the lane-by-lane reference. With c3 = 0
# every update decision follows from the detector trace alone, so a kernel
# that orders its float operations differently (a lane-batched one, say)
# moves a closure error by rounding only.
SWEEP_TOL = 1e-6

# The fixed-threshold grid of acceptance criterion 7.
CRITERION7_GRID = tuple(float(c1) for c1 in -np.geomspace(8.0, 6000.0, 20))


@dataclass(frozen=True)
class Sizes:
    """Pool shape of each workload. Item 0 of every pool is the reference."""

    sweep_slices: int = 2
    sweep_normal_s: float = 6.0
    sweep_fast_s: float = 5.0
    sweep_grid: tuple[float, ...] = CRITERION7_GRID
    run_walks: int = 6
    run_s: float = 20.0
    calibrate_walks: int = 3


FULL = Sizes()
TINY = Sizes(sweep_slices=2, sweep_normal_s=6.0, sweep_fast_s=5.0,
             sweep_grid=(-40.0, -1500.0), run_walks=3, run_s=8.0, calibrate_walks=2)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _corpus_recording(gait: str, index: int, base: int, duration: float):
    """Recording ``index`` of one gait, seeded as ``gaitsim.make_corpus`` does."""
    if gait == "normal":
        lab = simulate(normal_profile(NOISE, seed=base + index), duration)
    else:
        lab = simulate(fast_profile(NOISE, seed=base + 500 + index), duration)
    return lab.to_recording(f"{gait}-{index:02d}", gait)


def _calibration_walk(seed: int):
    lab = simulate(normal_profile(NOISE, seed=seed), CALIBRATION_WALK_S)
    return lab.to_recording(f"calibration-{seed}", "normal"), lab


def check_threshold_trace(t, logl, log_gamma, decisions, params, window):
    """Recompute the decision rule and, where c3 = 0, the threshold itself.

    log_gamma at sample k is c1 + c2*(t_k - t_last) + c3*xi_k, where
    t_last is the time of the last update before k (t_0 if none). With
    c3 = 0 it is fully determined; with c3 != 0 the residual must be
    c3 times a non-negative xi, or 0 where xi fell back to the prior.
    """
    n = len(t)
    _require(len(logl) == len(log_gamma) == len(decisions) == n, "trace lengths differ")
    with np.errstate(invalid="ignore"):
        expected_decisions = logl > log_gamma
    bad = np.flatnonzero(expected_decisions != decisions)
    _require(bad.size == 0, f"decision != (logl > log_gamma) at sample {bad[:1]}")
    first = window - 1
    _require(bool(np.isnan(log_gamma[:first]).all()), "threshold set during warm-up")
    last = np.maximum.accumulate(np.where(decisions, t, -np.inf))
    t_last = np.empty(n)
    t_last[0] = t[0]
    t_last[1:] = np.maximum(last[:-1], t[0])
    base = params.c1 + params.c2 * (t - t_last)
    residual = log_gamma[first:] - base[first:]
    tol = REL_TOL * (1.0 + np.abs(base[first:]))
    _require(bool(np.isfinite(residual).all()), "non-finite threshold after warm-up")
    if params.c3 == 0.0:
        bad = np.flatnonzero(np.abs(residual) > tol)
        _require(bad.size == 0, f"log_gamma != c1 + c2*dt at sample {bad[:1] + first}")
    else:
        bad = np.flatnonzero(residual * math.copysign(1.0, params.c3) < -tol)
        _require(bad.size == 0, f"c3*xi has the wrong sign at sample {bad[:1] + first}")


@dataclass
class Op:
    """One operation of a pool; ``reference`` marks the seed-independent item."""

    name: str
    samples: int
    reference: bool
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a checked operation reports back: closure errors per lane."""

    closures: list[float]
    counts: dict[str, int]


def rmse(values) -> float:
    """Root mean square; 0 for no values."""
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else 0.0


class Sweep:
    """`cli.cmd_sweep` over one normal + one fast recording per operation.

    Each operation sweeps the criterion-7 grid plus the calibrated adaptive
    config with the uninformative prior (c3 = 0): 2 x 21 lanes, on two
    recording lengths. The rows are checked against closure errors that
    ``ins.run_pipeline`` gives lane by lane, computed once per pool item
    before the measurement.
    """

    name = "sweep"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.grid = list(sizes.sweep_grid)
        self.ops = []
        for i in range(sizes.sweep_slices):
            base = CORPUS_BASE_SEED + (0 if i == 0 else SEED_STRIDE * seed)
            normal = _corpus_recording("normal", i, base, sizes.sweep_normal_s)
            fast = _corpus_recording("fast", i, base, sizes.sweep_fast_s)
            samples = (len(normal) + len(fast)) * (len(self.grid) + 1)
            self.ops.append(Op(f"slice-{i}", samples, i == 0,
                               {"recordings": [normal, fast]}))

    def prepare(self) -> None:
        c1, c2, _ = PINNED_CALIBRATION
        self.params = ThresholdParams(c1, c2, 0.0)
        self.cfg = merge_config({"c1": c1, "c2": c2, "c3": 0.0})
        self.configs = [("fixed", g, ThresholdParams(g)) for g in self.grid]
        self.configs.append(("adaptive", self.params.c1, self.params))
        for op in self.ops:
            try:
                op.data["expected"] = self._lanes(op.data["recordings"])
            except CheckFailed as exc:  # reported by every check of this item
                op.data["expected"] = exc

    def _lanes(self, recordings):
        """Closure error per (mode, c1, gait) and the update count, lane by lane."""
        closure: dict[tuple, float] = {}
        zupts = 0
        for mode, c1, params in self.configs:
            for rec in recordings:
                report = run_pipeline(rec, "shoe", params, NOISE, window_samples=WINDOW)
                check_threshold_trace(rec.t, report.logl_trace, report.log_gamma_trace,
                                      report.decisions, params, WINDOW)
                end_to_start = float(np.linalg.norm(report.trajectory[-1]
                                                    - report.trajectory[0]))
                _require(_close(report.loop_closure_error_m, end_to_start), "closure error")
                closure[(mode, c1, rec.gait_tag)] = report.loop_closure_error_m
                zupts += report.zupt_count
        return closure, zupts

    def run(self, op: Op):
        return cli.cmd_sweep(op.data["recordings"], self.cfg, self.grid)

    def check(self, op: Op, rows) -> Outcome:
        expected = op.data["expected"]
        if isinstance(expected, CheckFailed):
            raise expected
        closure, zupts = expected
        configs = [(mode, c1) for mode, c1, _ in self.configs]
        subsets = [("fast", ["fast"]), ("normal", ["normal"]), ("all", ["normal", "fast"])]
        want = [(s, m, c) for s, _ in subsets for m, c in configs]
        got = [(r["subset"], r["threshold_mode"], r["c1"]) for r in rows]
        _require(got == want, f"sweep rows {got} != {want}")
        tags = dict(subsets)
        for row in rows:
            members = tags[row["subset"]]
            _require(row["n_recordings"] == len(members), f"n_recordings in {row}")
            _require(math.isfinite(row["rmse_m"]), f"non-finite rmse in {row}")
            value = rmse(closure[(row["threshold_mode"], row["c1"], g)] for g in members)
            _require(abs(row["rmse_m"] - value) <= SWEEP_TOL * max(1.0, value),
                     f"rmse {row['rmse_m']} != {value} from the lanes one by one")
        adaptive = [r["rmse_m"] for r in rows
                    if r["threshold_mode"] == "adaptive" and r["subset"] != "all"]
        return Outcome(adaptive, {"zupts": zupts})


class Run:
    """One `zvnav run --report --trace` per recording, through `cli.main`.

    The config is the calibrated one with the informative prior (c3 != 0),
    so the speed evidence xi is evaluated on every sample.
    """

    name = "run"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.workdir = workdir
        self.ops = []
        for i in range(sizes.run_walks):
            gait = "normal" if i % 2 == 0 else "fast"
            base = CORPUS_BASE_SEED + (0 if i < 2 else SEED_STRIDE * seed)
            rec = _corpus_recording(gait, i, base, sizes.run_s)
            csv = workdir / f"{rec.id}.csv"
            cli.write_recording_csv(str(csv), rec)
            self.ops.append(Op(rec.id, len(rec), i < 2, {"csv": csv, "t": rec.t}))

    def prepare(self) -> None:
        self.params = ThresholdParams(*PINNED_CALIBRATION)
        self.config = self.workdir / "run.cfg"
        self.config.write_text(cli.format_calibration(self.params), encoding="utf-8")
        self.report = self.workdir / "out.report"
        self.trace = self.workdir / "out.tsv"

    def run(self, op: Op):
        return cli.main(["run", str(op.data["csv"]), "--config", str(self.config),
                         "--report", str(self.report), "--trace", str(self.trace)])

    def check(self, op: Op, output) -> Outcome:
        _require(output == 0, f"exit code {output}")
        report = cli.parse_report(self.report.read_text(encoding="utf-8"))
        table = np.loadtxt(self.trace, delimiter="\t", skiprows=1, ndmin=2)
        self.report.unlink()  # the next operation must write its own
        self.trace.unlink()
        t, logl, log_gamma = table[:, 0], table[:, 1], table[:, 2]
        decisions = table[:, 3] == 1.0
        _require(bool(np.isin(table[:, 3], (0.0, 1.0)).all()), "decision not 0/1")
        _require(np.array_equal(t, op.data["t"]), "trace time column != input times")
        check_threshold_trace(t, logl, log_gamma, decisions, self.params, WINDOW)
        _require(report["n_samples"] == op.samples, "n_samples")
        _require(report["zupt_count"] == int(decisions.sum()), "zupt_count != trace")
        used = (report["params.c1"], report["params.c2"], report["params.c3"])
        _require(used == (self.params.c1, self.params.c2, self.params.c3), f"params {used}")
        p = table[:, 4:7]
        _require(tuple(p[-1]) == report["final_position_m"], "final position != trace")
        closure = report["loop_closure_error_m"]
        _require(_close(closure, float(np.linalg.norm(p[-1] - p[0]))), "closure error")
        return Outcome([closure], {"zupts": report["zupt_count"]})


class Calibrate:
    """`zvnav calibrate --prior informative` on a labelled 30 s walk."""

    name = "calibrate"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.workdir = workdir
        self.ops = []
        for i in range(sizes.calibrate_walks):
            walk_seed = CALIBRATION_SEED + (0 if i == 0 else SEED_STRIDE * seed + i)
            rec, lab = _calibration_walk(walk_seed)
            csv = workdir / f"{rec.id}.csv"
            labels = workdir / f"{rec.id}.labels.csv"
            cli.write_recording_csv(str(csv), rec)
            cli.write_labels_csv(str(labels), lab.t, lab.stationary)
            self.ops.append(Op(rec.id, len(rec), i == 0,
                               {"csv": csv, "labels": labels, "recording": rec}))

    def prepare(self) -> None:
        self.out = self.workdir / "fitted.cfg"

    def run(self, op: Op):
        return cli.main(["calibrate", str(op.data["csv"]), "--labels", str(op.data["labels"]),
                         "--prior", "informative", "--out", str(self.out)])

    def check(self, op: Op, code) -> Outcome:
        _require(code == 0, f"exit code {code}")
        fitted = parse_config_text(self.out.read_text(encoding="utf-8"))
        self.out.unlink()  # the next operation must write its own
        _require(fitted.get("threshold_mode") == "adaptive", "threshold_mode")
        c1, c2, c3 = fitted["c1"], fitted["c2"], fitted["c3"]
        _require(c3 != 0.0, "informative prior left c3 = 0")
        _require(c2 < 0.0, f"c2 = {c2} >= 0")
        rec = op.data["recording"]
        logl = shoe_log_lr_trace(rec.accel, rec.gyro, WINDOW, NOISE)
        counts = {"samples_above_c1": int(np.sum(logl > c1))}
        if not op.reference:
            return Outcome([], counts)
        _require(all(_close(a, b) for a, b in zip((c1, c2, c3), PINNED_CALIBRATION)),
                 f"reference walk fitted {(c1, c2, c3)} != {PINNED_CALIBRATION}")
        if "closure" not in op.data:  # deterministic: the fit is pinned above
            report = run_pipeline(rec, "shoe", ThresholdParams(c1, c2, c3), NOISE,
                                  window_samples=WINDOW)
            op.data["closure"] = report.loop_closure_error_m
        return Outcome([op.data["closure"]], counts)


WORKLOADS = {w.name: w for w in (Sweep, Run, Calibrate)}
