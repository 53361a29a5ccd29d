"""Load generator: one workload, one fresh process, one closed loop.

    python3 perfbench/load.py --workload W --seed N --requests R \
        --trace 0|1 --tmp DIR --out RESULT.json [--probe]

``run.py`` spawns this once per set-up probe and once for the measured
run; use ``run.py``, not this file, from the command line.  The process
imports the program, sends one warm-up request of every kind the
workload sends, prints ``READY`` (``run.py`` times set-up from spawn to
that line), then runs a fixed number of requests from the seeded stream
and writes its measurements, context and correctness verdicts to
``--out``.  With ``--probe`` it stops after ``READY``.

``fig4_sweep`` runs in this process; ``service_mix`` spawns ``repro serve`` and drives it over HTTP from two client threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("fig4_sweep", "service_mix")

#: The seed whose results are compared with ``reference.json``.
DEFAULT_SEED = 0

#: Requests per block; a block holds every request kind in its fixed
#: share, so any whole number of blocks keeps the mix exact.
BLOCK = {"fig4_sweep": 4, "service_mix": 60}

#: Mean seconds per request on the 2-core reference box.  The request
#: count of a run is ``--seconds`` divided by this, rounded to whole
#: blocks: the work is fixed for a given ``--seconds`` whatever the
#: seed or the speed of the machine.
NOMINAL_REQUEST_S = {"fig4_sweep": 0.21, "service_mix": 0.10}

#: Fewest requests in a run: with ten requests beyond it, the tail is
#: then p80 or higher, well above the median.
MIN_REQUESTS = 50

#: Fewest requests in a traced run, which reports no tail.
MIN_TRACED_REQUESTS = 24

#: A traced run and its untraced twin each take this share of
#: ``--seconds``: both, tracing overhead included, must end well inside
#: the 180 s one invocation may take, also when the machine runs slow.
TRACED_SHARE = 0.5

#: Fig. 4 sweep grid (the service's ``sensitivity`` defaults), in ns.
SWEEP_TAU_MAX_NS = 0.5
SWEEP_POINTS = 8

#: Correctness bars (the repo's own): Vmin and codes within 1 mV; a
#: bisection may move by one step either way.
VMIN_TOL_V = 1e-3
TAU_TOL_S = 2 * 2e-12

TERMINAL = ("done", "failed", "cancelled", "requeued")


def request_count(workload: str, seconds: float, traced: bool) -> int:
    """Requests of one run of ``workload`` at ``--seconds``; ``traced``
    for both runs of a ``--trace 1`` invocation."""
    block = BLOCK[workload]
    least = MIN_TRACED_REQUESTS if traced else MIN_REQUESTS
    if traced:
        seconds *= TRACED_SHARE
    blocks = round(seconds / (NOMINAL_REQUEST_S[workload] * block))
    return block * max(blocks, math.ceil(least / block))


# --------------------------------------------------------------------- #
# Seeded request streams.  The seed permutes order and draws parameters;
# the share of each request kind is fixed by the block.
# --------------------------------------------------------------------- #

def fig4_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """3 ``sweep_skew`` curves then 1 ``extract_tau_min`` per block; the
    bisection reuses a (load, slew) swept earlier in its block."""
    rng = random.Random(f"fig4_sweep:{seed}")
    while True:
        block = [{"kind": "sweep", "load_ff": round(rng.uniform(80, 240), 1),
                  "slew_ns": round(rng.uniform(0.1, 0.4), 3)}
                 for _ in range(3)]
        target = rng.randrange(3)
        bisect = dict(block[target], kind="tau_min")
        block.insert(rng.randrange(target + 1, 4), bisect)
        yield from block


def fresh_spec(kind: str, levels: int, rng: random.Random) -> Dict[str, Any]:
    """A small service campaign never sent before in the run; ``levels``
    is the H-tree depth of a ``whole_tree`` campaign."""
    if kind == "sensitivity":
        return {"kind": "sensitivity",
                "loads_ff": [round(rng.uniform(80, 240), 1)],
                "slews_ns": sorted(round(rng.uniform(0.1, 0.4), 3)
                                   for _ in range(3)),
                "tau_max_ns": SWEEP_TAU_MAX_NS, "points": SWEEP_POINTS}
    if kind == "montecarlo":
        return {"kind": "montecarlo", "samples": 4, "backend": "batch",
                "seed": rng.randrange(1, 2**31),
                "load_ff": rng.choice([80.0, 160.0, 240.0])}
    return {"kind": "whole_tree", "levels": levels,
            "variation": round(rng.uniform(0.02, 0.08), 3),
            "seeds": [rng.randrange(1, 10**6)]}


#: Warm-up campaigns of ``service_mix`` (set-up); the cacheable ones are
#: also repeat targets of the timed requests.
SERVICE_WARMUP = (
    {"kind": "sensitivity", "loads_ff": [160.0], "slews_ns": [0.1, 0.2, 0.4],
     "tau_max_ns": SWEEP_TAU_MAX_NS, "points": SWEEP_POINTS},
    {"kind": "montecarlo", "samples": 4, "backend": "batch", "seed": 0,
     "load_ff": 160.0},
    {"kind": "whole_tree", "levels": 2, "variation": 0.05, "seeds": [0]},
    {"kind": "whole_tree", "levels": 3, "variation": 0.05, "seeds": [0]},
)

#: Fresh campaigns of client 0 per 30 of its requests: (kind, levels).
#: Levels 2 (128 nodes) takes the dense side of the whole-tree
#: ``jacobian_policy="auto"`` selection, levels 3 (480 nodes) the sparse
#: side.
FRESH_KINDS = (("sensitivity", 0), ("sensitivity", 0), ("montecarlo", 0),
               ("montecarlo", 0), ("whole_tree", 2), ("whole_tree", 3))


def service_stream(seed: int, client: int) -> Iterator[Tuple[str, Dict]]:
    """One client's stream, per 30 requests.  Client 0 sends the fresh
    campaigns of ``FRESH_KINDS`` and 24 repeats of a cacheable campaign
    it (or the warm-up) sent earlier, so the repeat is served from the
    result cache; client 1 sends 30 repeats of the warm-up campaigns.
    Only one client computing means no fresh campaign ever waits behind
    another, which would add a third latency population at the tail.
    Whole-tree campaigns bypass the cache and are never repeated."""
    rng = random.Random(f"service_mix:{seed}:{client}")
    cacheable = [spec for spec in SERVICE_WARMUP
                 if spec["kind"] != "whole_tree"]
    n_fresh = len(FRESH_KINDS) if client == 0 else 0
    while True:
        kinds = list(FRESH_KINDS)
        rng.shuffle(kinds)
        fresh = [True] * n_fresh + [False] * (30 - n_fresh)
        rng.shuffle(fresh)
        for is_fresh in fresh:
            if is_fresh:
                spec = fresh_spec(*kinds.pop(), rng)
                if spec["kind"] != "whole_tree":
                    cacheable.append(spec)
                yield "fresh", spec
            else:
                yield "repeat", rng.choice(cacheable)


def label(request: Any) -> str:
    """Request kind, for the per-request latency list."""
    if isinstance(request, dict):
        return request["kind"]
    spec = request[1]
    return f"{request[0]}:{spec['kind']}{spec.get('levels', '')}"


def take(stream: Iterator[Any], n: int) -> List[Any]:
    return [next(stream) for _ in range(n)]


# --------------------------------------------------------------------- #
# Measurement helpers.
# --------------------------------------------------------------------- #

def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process, MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def latency_summary(latencies: List[float]) -> Dict[str, float]:
    """Median, and the highest percentile with ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = n - 11  # ten requests strictly beyond this one
    if tail_index < 0:
        raise ValueError(f"{n} requests cannot give a tail with 10 beyond")
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "n": n,
    }


def control_loop_s() -> float:
    """A fixed pure-Python + numpy loop, timed; context only - never used
    to rescale, filter or drop a run."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    matrix = np.random.default_rng(0).standard_normal((64, 64))
    matrix += 64 * np.eye(64)
    for _ in range(2_000):
        np.linalg.solve(matrix, matrix[0])
    return time.perf_counter() - start


def run_context(seed: int, control_s: float) -> Dict[str, Any]:
    import numpy as np

    from repro.batch.dispatch import resolve_batch_workers
    from repro.runtime import resolve_workers

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "resolve_workers": resolve_workers(None),
        "resolve_batch_workers": resolve_batch_workers(),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "control_loop_s": control_s,
    }


# --------------------------------------------------------------------- #
# In-process workloads.
# --------------------------------------------------------------------- #

class InProcess:
    """fig4_sweep: each request is one call into the program's public
    API, timed around the call."""

    def __init__(self) -> None:
        from repro.runtime import Telemetry
        from repro.service.specs import FAST_OPTIONS

        self.options = FAST_OPTIONS
        self._telemetry_cls = Telemetry
        self.telemetry = Telemetry()

    def warmup_requests(self) -> List[Dict[str, Any]]:
        return [{"kind": "sweep", "load_ff": 160.0, "slew_ns": 0.2},
                {"kind": "tau_min", "load_ff": 160.0, "slew_ns": 0.2}]

    def stream(self, seed: int) -> Iterator[Dict[str, Any]]:
        return fig4_stream(seed)

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request; returns its checkable result summary."""
        from repro.units import fF, ns

        kind = request["kind"]
        if kind == "sweep":
            from repro.core.sensitivity import sweep_skew

            skews = [ns(SWEEP_TAU_MAX_NS) * k / (SWEEP_POINTS - 1)
                     for k in range(SWEEP_POINTS)]
            curve = sweep_skew(fF(request["load_ff"]), ns(request["slew_ns"]),
                               skews, options=self.options,
                               telemetry=self.telemetry)
            return {"skews_s": skews, "vmins_v": [float(v) for v in curve.vmins]}
        from repro.core.sensitivity import extract_tau_min

        tau = extract_tau_min(fF(request["load_ff"]), ns(request["slew_ns"]),
                              options=self.options, telemetry=self.telemetry)
        return {"tau_min_s": tau}

    def measure(
        self, requests: List[Dict[str, Any]], tracer: Optional[spans.Tracer]
    ) -> Dict[str, Any]:
        self.telemetry = self._telemetry_cls()
        if tracer is not None:
            tracer.reset()
        records = []
        window = time.perf_counter()
        for request in requests:
            before = self.telemetry.jobs_total
            start = time.perf_counter()
            try:
                result = self.execute(request)
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = {}, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            # Every sweep point and bisection probe is one telemetry
            # record.
            jobs = self.telemetry.jobs_total - before
            records.append({"request": request, "latency": latency,
                            "jobs": int(jobs), "result": result,
                            "error": error})
        wall = time.perf_counter() - window
        out = {"records": records, "wall": wall, "peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            trace = tracer.snapshot()
            tel = self.telemetry
            layers = spans.layer_metrics(trace, {
                "prefix_hits": tel.prefix_hits,
                "prefix_builds": tel.prefix_builds,
                "prefix_saved_s": tel.prefix_saved_time_s,
                "batched_samples": tel.batched_samples,
                "batch_fallbacks": tel.batch_fallbacks,
            })
            layers["unattributed_s"] = wall - spans.attributed_s(trace)
            out["layers"] = layers
        return out

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# service_mix.
# --------------------------------------------------------------------- #

def _strip(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A result payload without the per-run provenance flags."""
    out = dict(payload)
    out["jobs"] = [{k: v for k, v in job.items()
                    if k not in ("cached", "resumed")}
                   for job in payload.get("jobs", [])]
    return out


def _spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


class Service:
    """``repro serve`` at its defaults, driven by two closed-loop client
    threads.  Completion is read from the SSE terminal event."""

    CLIENTS = 2

    def __init__(self, tmp: Path, traced: bool) -> None:
        # A process started in the background inherits SIGINT ignored,
        # and so would the server, which stops on SIGINT only.  A Python
        # handler here is reset to the default in the server at exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.trace_path = tmp / "server-spans.json"
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(ROOT / "src"),
                   REPRO_CACHE_DIR=str(tmp / "server-cache"))
        serve_args = ["--port", "0", "--state-dir", str(tmp / "state")]
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"), "--trace-out",
                   str(self.trace_path), "--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.traced = traced
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     text=True, cwd=str(ROOT))
        line = self.proc.stdout.readline()
        if not line.startswith("serving campaigns on "):
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.base_url = line.split()[3]

        from repro.service.client import ServiceClient, ServiceError

        self._client_cls = ServiceClient
        self._error_cls = ServiceError
        self.first_payload: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def warmup_requests(self) -> List[Tuple[str, Dict[str, Any]]]:
        warm = [("fresh", spec) for spec in SERVICE_WARMUP]
        return warm + [("repeat", SERVICE_WARMUP[0])]

    def execute(self, request: Tuple[str, Dict[str, Any]],
                client: Any = None, name: str = "warmup") -> Dict[str, Any]:
        client = client or self._client_cls(self.base_url, retries=0,
                                            timeout=120.0)
        spec = request[1]
        t0 = time.perf_counter()
        record = client.submit(spec, client=name)
        t1 = time.perf_counter()
        started = done = None
        terminal = None
        for event in client.stream_events(record["campaign_id"]):
            now = time.perf_counter()
            if event.get("event") == "started" and started is None:
                started = now
            elif event.get("event") in TERMINAL:
                done, terminal = now, event["event"]
        if terminal != "done":
            raise RuntimeError(f"campaign ended {terminal!r}")
        t2 = time.perf_counter()
        payload = client.result(record["campaign_id"])
        t3 = time.perf_counter()
        started = t1 if started is None else started
        stripped = _strip(payload)
        key = _spec_key(spec)
        with self._lock:
            first = self.first_payload.setdefault(key, stripped)
        return {"latency": t3 - t0, "submit": t1 - t0,
                "queue_wait": started - t1, "run": done - started,
                "fetch": t3 - t2, "jobs": len(payload.get("jobs", [])),
                "repeat_matches": first == stripped}

    def stream(self, seed: int) -> List[Iterator[Tuple[str, Dict]]]:
        return [service_stream(seed, c) for c in range(self.CLIENTS)]

    def _metrics(self) -> Tuple[int, Dict[str, Any]]:
        import urllib.request

        with urllib.request.urlopen(self.base_url + "/metrics",
                                    timeout=60) as response:
            body = response.read()
        return len(body), json.loads(body)

    @staticmethod
    def _counters(metrics: Dict[str, Any]) -> Dict[str, float]:
        tel = metrics["telemetry"]
        prefix = tel["engine"]["prefix"]
        return {
            "prefix_hits": prefix["hits"],
            "prefix_builds": prefix["builds"],
            "prefix_saved_s": prefix["integrated_time_saved_s"],
            "batched_samples": tel["executor"]["batched_samples"],
            "batch_fallbacks": tel["executor"]["batch_fallbacks"],
        }

    def measure(
        self, streams: List[List[Tuple[str, Dict]]], tracer: Any
    ) -> Dict[str, Any]:
        _, before = self._metrics() if self.traced else (0, None)
        if self.traced:
            self.proc.send_signal(signal.SIGUSR1)
            ack = self.proc.stdout.readline()
            if ack.strip() != "trace-reset":
                raise RuntimeError(f"server trace reset failed: {ack!r}")
        records: List[List[Dict[str, Any]]] = [[] for _ in streams]

        def client_loop(index: int) -> None:
            client = self._client_cls(self.base_url, retries=0,
                                      timeout=120.0)
            for request in streams[index]:
                start = time.perf_counter()
                try:
                    entry = self.execute(request, client, f"client-{index}")
                    entry["error"] = None
                except self._error_cls as exc:
                    entry = {"latency": time.perf_counter() - start,
                             "error": f"HTTP {exc.status}: {exc}",
                             "refused": exc.status in (429, 503), "jobs": 0}
                except Exception as exc:  # counted as failed
                    entry = {"latency": time.perf_counter() - start,
                             "error": f"{type(exc).__name__}: {exc}",
                             "jobs": 0}
                entry["request"] = request
                records[index].append(entry)

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(len(streams))]
        window = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - window
        out: Dict[str, Any] = {
            "records": [r for per_client in records for r in per_client],
            "wall": wall,
            "peak_rss_mb": peak_rss_mb(self.proc.pid),
        }
        if self.traced:
            size, after = self._metrics()
            counters = {k: after_v - self._counters(before)[k]
                        for k, after_v in self._counters(after).items()}
            out["metrics_bytes"] = size
            out["counters"] = counters
        return out

    def server_layers(self, measured: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer metrics of a traced run (after :meth:`close`)."""
        trace = json.loads(self.trace_path.read_text())
        whole = trace["spans"].pop(spans.WHOLE_SPAN, [0, 0.0])
        layers = spans.layer_metrics(trace, measured["counters"])
        ok = [r for r in measured["records"] if r["error"] is None]
        layers.update({
            "service.submit_s": sum(r["submit"] for r in ok),
            "service.queue_wait_s": sum(r["queue_wait"] for r in ok),
            "service.run_s": sum(r["run"] for r in ok),
            "service.fetch_s": sum(r["fetch"] for r in ok),
            "service.metrics_bytes": measured["metrics_bytes"],
            "service.refused": sum(1 for r in measured["records"]
                                   if r.get("refused")),
            "unattributed_s": whole[1],
        })
        return layers

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------- #
# Correctness.
# --------------------------------------------------------------------- #

def check_plausible(records: List[Dict[str, Any]]) -> None:
    """Seed-independent checks of ``fig4_sweep``; marks
    ``record["wrong"]`` with a reason."""
    from repro.units import VDD, VTH_INTERPRET

    swept: Dict[Tuple[float, float], Dict[str, Any]] = {}
    for record in records:
        if record["error"] is not None:
            continue
        request, result = record["request"], record["result"]
        problem = None
        if "vmins_v" in result:
            vmins = result["vmins_v"]
            if not all(math.isfinite(v) and -0.5 < v < VDD + 0.5
                       for v in vmins):
                problem = "Vmin outside the rails"
            elif any(b < a - VMIN_TOL_V for a, b in zip(vmins, vmins[1:])):
                problem = "Vmin(tau) not monotone"
            swept[(request["load_ff"], request["slew_ns"])] = result
        else:
            curve = swept.get((request["load_ff"], request["slew_ns"]))
            tau = result["tau_min_s"]
            if curve is None:
                problem = "bisection before its sweep"
            else:
                above = [v > VTH_INTERPRET for v in curve["vmins_v"]]
                k = above.index(True) if True in above else None
                skews = curve["skews_s"]
                if k is None or k == 0 or not (
                        skews[k - 1] - TAU_TOL_S <= tau <= skews[k] + TAU_TOL_S):
                    problem = "tau_min outside the sweep's crossing bracket"
        if problem:
            record["wrong"] = problem


def check_reference(records: List[Dict[str, Any]]) -> int:
    """Default-seed comparison of ``fig4_sweep`` with ``reference.json``;
    returns the number of records compared."""
    from repro.units import VTH_INTERPRET

    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference.get("fig4_sweep", [])
    for record, ref in zip(records, expected):
        if record["error"] is not None or "wrong" in record:
            continue
        if record["request"] != ref["request"]:
            record["wrong"] = "request stream differs from the reference"
            continue
        got, want = record["result"], ref["result"]
        problem = None
        if "vmins_v" in want:
            for v, w in zip(got["vmins_v"], want["vmins_v"]):
                if abs(v - w) > VMIN_TOL_V:
                    problem = f"Vmin {v:.6f} V vs reference {w:.6f} V"
                    break
                if ((v > VTH_INTERPRET) != (w > VTH_INTERPRET)
                        and abs(w - VTH_INTERPRET) > VMIN_TOL_V):
                    problem = "sensor code differs from the reference"
                    break
        elif abs(got["tau_min_s"] - want["tau_min_s"]) > TAU_TOL_S:
            problem = "tau_min differs from the reference"
        if problem:
            record["wrong"] = problem
    return min(len(records), len(expected))


def check_service(service: Service, records: List[Dict[str, Any]],
                  every_spec: bool) -> int:
    """Repeats must equal the first answer; the cacheable warm-up
    campaigns (the first repeat targets) and the fresh campaigns must
    equal the same spec run in-process through ``build_plan`` +
    ``run_campaign`` (every fresh one with ``every_spec``, else the
    first of each kind and tree depth).  Returns the number of specs re-run
    in-process."""
    from repro.runtime import run_campaign
    from repro.service.specs import build_plan

    chosen = {_spec_key(spec): spec for spec in SERVICE_WARMUP
              if spec["kind"] != "whole_tree"}
    fresh_kinds = set()
    for record in records:
        if record["error"] is not None:
            continue
        if not record["repeat_matches"]:
            record["wrong"] = "repeat differs from the first answer"
        kind, spec = record["request"]
        name = label(record["request"])
        if kind == "fresh" and (every_spec or name not in fresh_kinds):
            fresh_kinds.add(name)
            chosen[_spec_key(spec)] = spec
    for key, spec in chosen.items():
        plan = build_plan(spec)
        try:
            campaign = run_campaign(plan.jobs, cache=None,
                                    evaluate=plan.evaluate, **plan.executor)
            local = _strip(plan.fold(campaign))
        except Exception as exc:  # the program failed: a wrong result
            local = {"error": f"{type(exc).__name__}: {exc}"}
        if local != service.first_payload[key]:
            for record in records:
                if (record["error"] is None
                        and _spec_key(record["request"][1]) == key):
                    record["wrong"] = "service payload differs in-process"
    return len(chosen)


# --------------------------------------------------------------------- #
# Main.
# --------------------------------------------------------------------- #

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    traced = bool(args.trace)

    tracer = None
    if args.workload == "service_mix":
        system: Any = Service(args.tmp, traced)
    else:
        system = InProcess()
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
    try:
        for request in system.warmup_requests():
            system.execute(request)
        print("READY", flush=True)
        if args.probe:
            return 0

        if args.workload == "service_mix":
            per_client = args.requests // Service.CLIENTS
            requests = [take(s, per_client) for s in system.stream(args.seed)]
        else:
            requests = take(system.stream(args.seed), args.requests)
        measured = system.measure(requests, tracer)
    finally:
        system.close()

    records = measured["records"]
    out: Dict[str, Any] = {"wall": measured["wall"],
                           "peak_rss_mb": measured["peak_rss_mb"]}
    if traced:
        out["layers"] = (system.server_layers(measured)
                         if args.workload == "service_mix"
                         else measured["layers"])

    if args.workload == "service_mix":
        out["service_specs_rerun"] = check_service(
            system, records, every_spec=args.seed == DEFAULT_SEED)
    else:
        check_plausible(records)
        if args.seed == DEFAULT_SEED:
            out["reference_compared"] = check_reference(records)

    out["context"] = run_context(args.seed, control_loop_s())
    latencies = [r["latency"] for r in records]
    out.update(
        attempted=len(records),
        errors=sum(1 for r in records if r["error"] is not None),
        refused=sum(1 for r in records if r.get("refused")),
        wrong=sum(1 for r in records if "wrong" in r),
        jobs=sum(r["jobs"] for r in records),
        latency=latency_summary(latencies),
        problems=sorted({r.get("wrong") or r["error"] for r in records
                         if r["error"] is not None or "wrong" in r}),
        latencies=[[label(r["request"]), r["latency"]] for r in records],
        results=[{"request": r["request"], "result": r["result"]}
                 for r in records if "result" in r],
    )
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
