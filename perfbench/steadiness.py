"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py [--seeds 1-10] \
        [--out perfbench/steadiness.json]

Runs ``run.py --trace 0`` once per (seed, workload), going round-robin
across the workloads within each seed, so a slow phase of the machine
hits every workload alike.  For each workload and metric it records the
per-run values, the median and quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  The spread
should stay under a third of the bound (``setup_s`` excepted).  Each run
also keeps the latency range of every request kind, which shows whether
a median or tail sits on the boundary between two latency populations,
the tail's percentile, and its control-loop time, which shows the
machine's speed at the time; it explains spread and is never used to
correct a value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    workloads = [w["name"] for w in spec["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            line = json.loads(lines[-1])
            tagged = {x.split(": ", 1)[0]: x.split(": ", 1)[1]
                      for x in lines if x.startswith(
                          ("context: ", "latency_by_kind: "))}
            context = json.loads(tagged["context"])
            tail_line = next(x for x in lines
                             if x.startswith("request_tail_s is "))
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            values = {k: v["value"] for k, v in line["metrics"].items()}
            runs[workload].append({
                "seed": seed, "run_s": time.perf_counter() - start,
                "control_loop_s": context["control_loop_s"], **values,
                "tail_percentile": float(tail_line.split()[2][1:]),
                "latency_by_kind": json.loads(tagged["latency_by_kind"])})
            print(f"seed {seed} {workload}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    summary: Dict[str, Any] = {}
    worst = 0.0
    for workload, rows in runs.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [row[name] for row in rows]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:16s} {name:15s} median {median:10.4g} "
                  f"spread {spread:6.3f} (bound {bound})")
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
