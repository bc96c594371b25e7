"""Spans around the calls into each `zvnav` module, recorded from outside.

The tracer replaces module attributes with timing wrappers while a traced
operation runs and puts the originals back afterwards; no source file of
the program changes. A span records its id, its parent's id, the
operation it belongs to, its name, start and end, and what the wrapped
call consumed or produced (bytes, samples, windows). Spans stay in memory
until the benchmark ends.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from zvnav import cli, detectors, gaitsim, ins

# Flops of one filter step, counted from the 9x9 algebra (2*m*k*n per
# matrix product) rather than measured: the propagate step forms F P F^T
# (two 9x9 products), a zero-velocity update forms the Joseph form
# (I-KH) P (I-KH)^T (two more) plus K R K^T (9x3 by 3x9).
FLOPS_PER_PROPAGATE = 2 * (2 * 9 * 9 * 9)
FLOPS_PER_ZUPT = 2 * (2 * 9 * 9 * 9) + 2 * 9 * 3 * 9


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    info: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _text_bytes(args, kwargs, result):
    return len(result)


def _emit_bytes(args, kwargs, result):
    return len(args[0])


def _lane(args, kwargs, result):
    return len(result.decisions), result.zupt_count


def _recording_digest(args, kwargs, result):
    return hashlib.blake2b(np.ascontiguousarray(args[0]).tobytes(), digest_size=16).digest()


def _windows(args, kwargs, result):
    return len(result.stationary) + len(result.midstance) + len(result.swing)


class Tracer:
    """Records spans around module attributes while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []
        targets = [
            (cli, "main", "cli.main", None),
            (cli, "cmd_sweep", "cli.cmd_sweep", None),
            (cli, "run_pipeline", "ins.run_pipeline", _lane),
            (cli, "ingest_csv", "cli.ingest_csv", _file_bytes),
            (cli, "ingest_labels", "cli.ingest_labels", _file_bytes),
            (cli, "format_trace", "cli.format_trace", _text_bytes),
            (cli, "format_report", "cli.format_report", _text_bytes),
            (cli, "_emit", "cli.emit", _emit_bytes),
            (cli, "extract_calibration_sets", "gaitsim.extract_calibration_sets", _windows),
            (cli, "calibrate", "threshold.calibrate", None),
            (gaitsim, "_reference_xi_median", "gaitsim.reference_xi", None),
            (ins, "validate_stream", "core.validate_stream", None),
            (ins, "align_from_standstill", "ins.align_from_standstill", None),
        ]
        for module, attr, name, info in targets:
            original = getattr(module, attr)
            self._patches.append((module.__dict__, attr, original,
                                  self.wrap(name, original, info)))
        for key, spec in detectors.DETECTORS.items():
            traced = detectors.DetectorSpec(
                spec.name,
                self.wrap("detectors.per_window", spec.per_window),
                self.wrap("detectors.trace", spec.trace, _recording_digest),
            )
            self._patches.append((detectors.DETECTORS, key, spec, traced))

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self._op, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def run(self, op_index: int, name: str, fn):
        """Run ``fn`` as one traced operation under a root span."""
        self._op = op_index
        for table, key, _, traced in self._patches:
            table[key] = traced
        try:
            return self.wrap(f"bench.{name}", fn)()
        finally:
            for table, key, original, _ in self._patches:
                table[key] = original


def dump(path, spans: list[Span]) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op,
                                 "name": s.name, "start": s.start, "end": s.end}) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics over a set of spans (one pass over the pool)."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.seconds
        own[s.name] += s.seconds - child_s[s.id]
        if s.info is not None:
            info[s.name].append(s.info)

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    lanes = info["ins.run_pipeline"]
    lane_samples = sum(n for n, _ in lanes)
    zupts = sum(z for _, z in lanes)
    flops = sum(
        (n - 1) * FLOPS_PER_PROPAGATE + z * FLOPS_PER_ZUPT for n, z in lanes
    )
    loop_s = own["ins.run_pipeline"]
    read = sum(info["cli.ingest_csv"])
    written = sum(info["cli.emit"])
    return {
        "ins.run_pipeline.calls": calls["ins.run_pipeline"],
        "ins.run_pipeline.self_s": loop_s,
        "ins.us_per_lane_sample": ratio(loop_s * 1e6, lane_samples),
        "ins.zupt_fraction": ratio(zupts, lane_samples),
        "ins.gflops_computed": ratio(flops / 1e9, loop_s),
        "ins.align_from_standstill.s": total["ins.align_from_standstill"],
        "detectors.trace.calls": calls["detectors.trace"],
        "detectors.trace.s": total["detectors.trace"],
        "detectors.trace.reuse_ratio": ratio(
            len(set(info["detectors.trace"])), calls["detectors.trace"]
        ),
        "core.validate_stream.calls": calls["core.validate_stream"],
        "core.validate_stream.s": total["core.validate_stream"],
        "gaitsim.extract_calibration_sets.s": total["gaitsim.extract_calibration_sets"],
        "gaitsim.reference_xi.s": total["gaitsim.reference_xi"],
        "gaitsim.windows_built": sum(info["gaitsim.extract_calibration_sets"]),
        "detectors.per_window.calls": calls["detectors.per_window"],
        "detectors.per_window.s": total["detectors.per_window"],
        "threshold.calibrate.s": total["threshold.calibrate"],
        "cli.ingest_csv.s": total["cli.ingest_csv"],
        "cli.ingest_csv.mb_per_s": ratio(read / 1e6, total["cli.ingest_csv"]),
        "cli.ingest_labels.s": total["cli.ingest_labels"],
        "cli.format_trace.s": total["cli.format_trace"],
        "cli.format_report.s": total["cli.format_report"],
        "cli.emit.mb_per_s": ratio(written / 1e6, total["cli.emit"]),
        "cli.cmd_sweep.self_s": own["cli.cmd_sweep"],
    }


UNITS = {
    "calls": "count", "windows_built": "count", "self_s": "s", "s": "s",
    "us_per_lane_sample": "us", "zupt_fraction": "frac", "gflops_computed": "GFLOP/s",
    "reuse_ratio": "ratio", "mb_per_s": "MB/s", "trace_overhead_frac": "frac",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]
