"""Self-check of the benchmark: a tiny traced run of each workload.

    python3 perfbench/selfcheck.py

Each workload runs one pass over a tiny pool (``workloads.TINY``), untraced
and traced, three times: twice with seed 0 and once with seed 1. Every run
must finish with zero failed operations. Its counts (operations
attempted, per-layer call counts, and output counts such as the number of
updates that fired) must repeat exactly for the same seed and change for
the other seed. Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import machine

ROOT = Path(__file__).resolve().parent.parent


def counts(name: str, seed: int, workdir: Path) -> dict:
    import run
    import workloads

    try:
        details, result = run.run_workload(name, seed, 0.0, True, workloads.TINY, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in details["errors"]:
        print(error, file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs": details["counts"],
        "layer_calls": details["layer_calls"],
    }


def main() -> int:
    machine.cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import run

    workdir = ROOT / "perfbench" / "_work" / f"selfcheck-{os.getpid()}"
    problems = []
    for name in run.WORKLOADS:
        first, again, other = (counts(name, seed, workdir) for seed in (0, 0, 1))
        print(f"{name}: seed 0 {first}\n{name}: seed 1 {other}")
        for label, c in (("seed 0", first), ("seed 0 again", again), ("seed 1", other)):
            if c["failed"] or not c["correct"]:
                problems.append(f"{name} {label}: {c['failed']} of {c['attempted']} ops failed")
        if first != again:
            problems.append(f"{name}: counts differ between two runs of seed 0")
        if first["outputs"] == other["outputs"]:
            problems.append(f"{name}: output counts do not change with the seed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
