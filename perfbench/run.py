"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the program from ``src``
there. It builds the workload's inputs from the seed, runs the pool of
operations in a closed loop (one client, the next operation starts when
the last one ends) for ``--seconds`` and at least one full pass, and
checks every operation's output. A fixed probe kernel (machine.py) is
timed before and after every operation; times are reported scaled to the
probe's reference speed, raw times go to the details.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace
1`` runs every operation twice, untraced and traced in alternating order,
and reports the per-layer metrics of the first traced pass plus the
tracing overhead. The last line of standard output is the result object;
the line before it holds provenance and details. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import machine

ROOT = Path(__file__).resolve().parent.parent
# Names only: workloads.py imports numpy, which has to wait for the thread caps.
WORKLOADS = ("sweep", "run", "calibrate")
SETUP_REPEATS = 3
# Times the import of numpy and every zvnav module in a fresh interpreter.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - start)")


@dataclass
class Record:
    index: int
    traced: bool
    seconds: float
    outcome: object
    error: str | None
    probe: float = math.nan  # mean probe time just before and just after

    @property
    def scaled(self) -> float:
        """Operation time at the probe's reference speed."""
        return self.seconds * machine.PROBE_REFERENCE_S / self.probe


def _error() -> str:
    """The current traceback, with paths relative to the checkout."""
    return traceback.format_exc().replace(f"{ROOT}{os.sep}", "")


def _execute(wl, op, tracer, index: int):
    start = perf_counter()
    try:
        if tracer is None:
            output = wl.run(op)
        else:
            output = tracer.run(index, op.name, lambda: wl.run(op))
    except Exception:  # the program failed: count it and keep measuring
        return perf_counter() - start, None, _error()
    seconds = perf_counter() - start
    try:
        return seconds, wl.check(op, output), None
    except Exception:  # wrong or malformed output
        return seconds, None, _error()


def measure(wl, seconds: float, tracer=None):
    """Closed loop over the pool for ``seconds`` and at least one pass.

    Returns the records and, when tracing, how many spans the first
    traced pass recorded.
    """
    records = []
    first_pass_spans = None
    n = len(wl.ops)
    deadline = perf_counter() + seconds
    probe = machine.probe_seconds()
    i = 0
    while i < n or perf_counter() < deadline:
        op = wl.ops[i % n]
        modes = (False,) if tracer is None else ((False, True), (True, False))[i % 2]
        for traced in modes:
            record = Record(i % n, traced, *_execute(wl, op, tracer if traced else None, i))
            after = machine.probe_seconds()
            record.probe = 0.5 * (probe + after)
            probe = after
            records.append(record)
        i += 1
        if tracer is not None and i == n:
            first_pass_spans = len(tracer.spans)
    return records, first_pass_spans


def _tail(latencies: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for q in (0.999, 0.99, 0.9):
        if len(ordered) * (1.0 - q) >= 10:
            return {f"p{q * 100:g}_ms": 1e3 * ordered[math.ceil(q * len(ordered)) - 1]}
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes, workdir: Path,
                 import_s: float = 0.0, spans_out: Path | None = None):
    """Set up, measure and check one workload; returns (details, result)."""
    import spans
    import workloads

    builds, probes = [], [machine.probe_seconds()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        wl = workloads.WORKLOADS[name](seed, sizes, workdir)
        builds.append(perf_counter() - start)
        probes.append(machine.probe_seconds())
    build_s = statistics.median(builds)
    setup_raw = import_s + build_s
    # Imports read and unmarshal files, which the probe does not track.
    setup_s = import_s + build_s * machine.PROBE_REFERENCE_S / statistics.median(probes)
    start = perf_counter()
    wl.prepare()
    prepare_s = perf_counter() - start

    tracer = spans.Tracer() if trace else None
    records, first_pass_spans = measure(wl, seconds, tracer)

    ops = wl.ops
    first_pass = {}
    for r in records:
        first_pass.setdefault(r.index, r)
    errors = [r.error for r in records if r.error is not None]
    attempted, failed = len(records), len(errors)
    counts: dict[str, int] = {}
    for r in first_pass.values():
        for key, value in (r.outcome.counts.items() if r.outcome else ()):
            counts[key] = counts.get(key, 0) + value
    reference = [c for i, r in first_pass.items() if ops[i].reference and r.outcome
                 for c in r.outcome.closures]
    untraced = [r for r in records if not r.traced]
    latencies = [r.seconds for r in untraced]
    scaled = [r.scaled for r in untraced]
    samples = sum(ops[r.index].samples for r in untraced)
    details = {
        "provenance": machine.provenance(ROOT, name, seed),
        "pool_ops": len(ops),
        "ops_untraced": len(untraced),
        "op_tail": _tail(scaled),
        "raw": {"samples_per_s": samples / sum(latencies),
                "op_p50_ms": 1e3 * statistics.median(latencies), "setup_s": setup_raw},
        "probe_ms": {"setup": [1e3 * p for p in probes],
                     "ops_median": 1e3 * statistics.median(r.probe for r in records)},
        "import_s": import_s,
        "setup_build_s": builds,
        "prepare_s": prepare_s,
        "closure_rmse_pool_m": workloads.rmse(c for r in first_pass.values() if r.outcome
                                     for c in r.outcome.closures),
        "counts": counts,
        "errors": errors[:3],
    }
    if trace:
        layer = spans.layer_metrics(tracer.spans[:first_pass_spans])
        traced_s = sum(r.scaled for r in records if r.traced)
        layer["trace_overhead_frac"] = traced_s / sum(scaled) - 1.0
        metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in layer.items()}
        details["layer_calls"] = {k: v for k, v in layer.items() if k.endswith(".calls")}
        if spans_out is not None:
            spans.dump(spans_out, tracer.spans[:first_pass_spans])
    else:
        metrics = {
            "samples_per_s": {"value": samples / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "closure_rmse_m": {"value": workloads.rmse(reference), "unit": "m"},
            "ok_op_share": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    result = {
        "correct": failed == 0 and bool(reference),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "zvnav" / "__init__.py").is_file():
        print(f"perfbench: {src / 'zvnav'} not found; run from the root of a "
              "zvnav checkout", file=sys.stderr)
        return 2
    machine.cap_threads()
    start = perf_counter()
    sys.path.insert(0, str(src))
    import zvnav
    import workloads  # numpy and every zvnav module: part of setup_s

    imports = [perf_counter() - start]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(ROOT / "perfbench")],
                              capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(done.stdout))
    import_s = statistics.median(imports)
    if not Path(zvnav.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported zvnav from {zvnav.__file__}, not {src}",
              file=sys.stderr)
        return 2

    bench = ROOT / "perfbench"
    workdir = bench / "_work" / f"{args.workload}-{os.getpid()}"
    spans_out = None
    if args.trace:
        (bench / "_out").mkdir(exist_ok=True)
        spans_out = bench / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        details, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL,
            workdir, import_s, spans_out,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in details["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
