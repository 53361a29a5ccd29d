"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 36 --trace 0

Run it from the repository root; it reads the program from ``src/``.
Workloads: ``fig4_sweep`` and ``service_mix`` (see
``perfbench/README.md``).

``--trace 0`` measures the end-to-end metrics: the workload's set-up
runs three times, each in a fresh process (the median is ``setup_s``),
and the last of those processes goes on to the timed requests.
``--trace 1`` makes one untraced and one traced run of the same requests
and reports the per-layer split, with ``tracing.overhead`` from their
``jobs_per_s``.

Every process gets a fresh cache and state directory under
``.perfbench_tmp/`` in the checkout, removed at the end.  The last line
of standard output is the JSON result; the exit code is 0 only when
every result was checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from load import WORKLOADS, request_count  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds the whole invocation may take, all its processes included
#: (the benchmark must end in 180).
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MiB",
}


def child_env(tmp: Path) -> Dict[str, str]:
    """The parent's environment without ``REPRO_*`` settings, plus a
    fresh cache directory; nothing reaches ``~/.cache/repro``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: argparse.Namespace, work: Path, trace: int, probe: bool,
          deadline: float) -> Tuple[float, Dict[str, Any]]:
    """One load-generator process, traced if ``trace``, killed at
    ``deadline`` (``time.perf_counter()``): returns (set-up seconds, its
    result).  Both runs of a ``--trace 1`` invocation (``args.trace``)
    make the same, traced-run number of requests."""
    tmp = Path(tempfile.mkdtemp(dir=work))
    out = tmp / "result.json"
    requests = request_count(args.workload, args.seconds, args.trace == 1)
    cmd = [sys.executable, str(HERE / "load.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--requests", str(requests), "--trace", str(trace),
           "--tmp", str(tmp), "--out", str(out)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(tmp), cwd=str(ROOT),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(
            f"load generator failed (exit {proc.returncode}): {line}{rest}")
    result = {} if probe else json.loads(out.read_text())
    return setup, result


def failed_count(result: Dict[str, Any]) -> int:
    return result["errors"] + result["wrong"]


def end_to_end(result: Dict[str, Any], setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "jobs_per_s": result["jobs"] / result["wall"],
        "request_p50_s": result["latency"]["p50"],
        "request_tail_s": result["latency"]["tail"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def latency_by_kind(result: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Count and latency range of every request kind, so a median or
    tail on the boundary between two latency populations shows."""
    kinds: Dict[str, List[float]] = {}
    for kind, latency in result["latencies"]:
        kinds.setdefault(kind, []).append(latency)
    return {kind: {"n": len(values), "min": min(values),
                   "median": statistics.median(values), "max": max(values)}
            for kind, values in sorted(kinds.items())}


def report(results: List[Dict[str, Any]], metrics: Dict[str, float],
           units: Dict[str, str]) -> Dict[str, Any]:
    """Print the human-readable block; return the result object."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(failed_count(r) for r in results)
    last = results[-1]
    lat = last["latency"]
    print(f"context: {json.dumps(last['context'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(f"request_tail_s is p{lat['tail_percentile']:.1f} of "
          f"{lat['n']} requests (10 beyond it)")
    print(f"latency_by_kind: {json.dumps(latency_by_kind(last))}")
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4f}"
          f" (refused {sum(r['refused'] for r in results)})")
    if "reference_compared" in last:
        print(f"checked against reference.json: "
              f"{last['reference_compared']} results")
    if "service_specs_rerun" in last:
        print(f"service payloads checked in-process: "
              f"{last['service_specs_rerun']} specs")
    for problem in sorted({p for r in results for p in r["problems"]}):
        print(f"FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace == 0:
            setups = [spawn(args, work, 0, True, deadline)[0]
                      for _ in range(SETUPS - 1)]
            setup, result = spawn(args, work, 0, False, deadline)
            setups.append(setup)
            results = [result]
            metrics = end_to_end(result, statistics.median(setups))
            units = END_TO_END_UNITS
        else:
            _, plain = spawn(args, work, 0, False, deadline)
            _, traced = spawn(args, work, 1, False, deadline)
            results = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["tracing.overhead"] = 1.0 - (
                (traced["jobs"] / traced["wall"])
                / (plain["jobs"] / plain["wall"]))
            metrics = {name: metrics.get(name, 0) for name in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
        line = report(results, metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
