"""Regenerate ``perfbench/reference.json``, the default-seed references.

    python3 perfbench/make_reference.py

Runs the in-process workload, ``fig4_sweep``, at the default seed for the
benchmark's ``run_seconds`` (in a fresh process with a fresh cache)
and stores every request with its result.  ``run.py`` compares later
default-seed runs with these: Vmin within 1 mV, sensor codes identical
unless the reference Vmin lies within 1 mV of ``VTH_INTERPRET``,
``tau_min`` within one bisection step either way.  Regenerate only when a change to
the program is meant to move these results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from load import DEFAULT_SEED  # noqa: E402

#: ``service_mix`` is checked against in-process runs, not a reference.
IN_PROCESS = ("fig4_sweep",)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(seed=DEFAULT_SEED, trace=0,
                              seconds=float(spec["run_seconds"]))
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    reference = {"seed": DEFAULT_SEED, "seconds": args.seconds}
    target = HERE / "reference.json"
    if not target.exists():
        target.write_text("{}\n")  # first generation: nothing to compare
    try:
        for workload in IN_PROCESS:
            args.workload = workload
            result = run.spawn(args, work, 0, False,
                               time.perf_counter() + run.RUN_LIMIT_S)[1]
            # Mismatches with the old reference are expected here; only
            # requests that failed outright stop the regeneration.
            if result["errors"]:
                print(f"{workload}: {result['problems']}", file=sys.stderr)
                return 1
            reference[workload] = result["results"]
            print(f"{workload}: {len(result['results'])} results")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    # One result per line, so a regeneration diffs request by request.
    lines = [json.dumps({k: v for k, v in reference.items()
                         if k not in IN_PROCESS})[:-1]]
    for workload in IN_PROCESS:
        rows = ",\n".join(json.dumps(r) for r in reference[workload])
        lines.append(f', "{workload}": [\n{rows}\n]')
    target.write_text("\n".join(lines) + "}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
