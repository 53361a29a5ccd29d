"""Exact-count check: two traced runs at one seed count the same work.

    python3 perfbench/check_counts.py

For each workload it makes two traced runs of the same requests (seed
1, the shortest run), each in a fresh process with a fresh cache (for
``service_mix``, a fresh server), and compares the program counts of
``spans.EXACT_COUNTS`` - engine steps, Newton/factor/reuse counts,
prefix builds and hits, cache calls, batch stacks and fallbacks and
sparse calls.  Exits non-zero on any difference.  A later change may
claim a count as a saving only because these repeat exactly.
``service_mix``'s counts repeat although its two clients interleave by
timing, because each client repeats only its own earlier campaigns or
the warm-up ones, and no two campaigns share a prefix.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import EXACT_COUNTS  # noqa: E402

def main() -> int:
    # Seed 1; a run this short makes the fewest requests a run makes.
    args = argparse.Namespace(seed=1, seconds=1.0, trace=1)

    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    mismatches = 0
    try:
        for workload in run.WORKLOADS:
            args.workload = workload
            first, second = (
                run.spawn(args, work, 1, False,
                          time.perf_counter() + run.RUN_LIMIT_S)[1]["layers"]
                for _ in range(2))
            for name in EXACT_COUNTS:
                same = first[name] == second[name]
                mismatches += not same
                print(f"{workload:16s} {name:26s} {first[name]:>10} "
                      f"{second[name]:>10} {'ok' if same else 'DIFFERS'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("exact counts repeat" if not mismatches
          else f"{mismatches} count(s) differ between identical runs")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
