"""Provenance recorded with every result, the thread caps, and the host-speed probe."""

from __future__ import annotations

import math
import os
import platform
import subprocess
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> None:
    """One BLAS/OpenMP thread: the workloads are one client, and 9x9
    products gain nothing from more. Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


# The probe: a fixed kernel shaped like the filter loop (9x9 products,
# fancy-index updates, scalar Python) that runs no zvnav code. The host
# this benchmark was written on changes speed by up to 2x over seconds to
# minutes as other tenants load it; the probe, timed around every
# operation, measures that speed so operation times can be scaled to the
# probe's reference time.
PROBE_STEPS = 1000
PROBE_REFERENCE_S = 0.010  # the probe on the reference box, unloaded


def probe_seconds() -> float:
    """Time one run of the probe kernel."""
    import numpy as np

    F = np.eye(9)
    F[0, 3] = F[1, 4] = F[2, 5] = 0.004
    P = np.eye(9) * 1e-6
    acc = 0.0
    start = perf_counter()
    for _ in range(PROBE_STEPS):
        P = F @ P @ F.T
        P[[3, 4, 5], [3, 4, 5]] += 1e-9
        acc += math.sqrt(float(P[0, 0]))
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("probe kernel diverged")
    return elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "load_average": os.getloadavg(),
    }
