"""Record the reference stdout of every benchmark job.

Usage: python3 perfbench/record_reference.py

Runs each workload's cold jobs once, untraced, and writes their stdout to
perfbench/reference/<job>.out. Exits non-zero, after writing, when a job's
exit status, engine verdict or table check fails: such output must not
become a reference. Record only on a commit whose outputs are trusted.
"""
from __future__ import annotations

import shutil
import sys
import time

from run import REFERENCE, WORK, WORKLOADS, check, run_pass


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    results = []
    for name, jobs in WORKLOADS.items():
        cold = [j for j in jobs if not j.warm_round]
        results += run_pass(cold, WORK / "record" / name, time.monotonic() + 3600)
    for r in results:
        (REFERENCE / f"{r.job.ref}.out").write_bytes(r.stdout)
    check(results, REFERENCE)
    for r in results:
        print(f"{r.job.ref}: {'ok' if r.ok else 'FAILED'} ({r.wall_s:.1f} s)")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
