"""Span tracing of the program's layers, installed from outside.

The benchmark never edits ``src/``.  :func:`install` wraps each layer's
public entry points *at their binding sites* - the module attribute a
caller looks up at call time - so a traced run measures the same code an
untraced run executes, plus one ``perf_counter`` pair per call.

Spans nest per thread.  A span's *self* time is its duration minus the
time covered by the spans opened inside it, so the self times of all
layers plus ``unattributed_s`` add up to the measured wall time.  Spans
are aggregated in memory (calls and self seconds per layer entry point)
and written out when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Span of a whole campaign execution inside ``repro serve``; its self
#: time is what no layer below it accounts for.
WHOLE_SPAN = "service.execute"


class Tracer:
    """Per-thread span stacks feeding thread-safe per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every aggregate (start of the timed window)."""
        with self._lock:
            #: span name -> [calls, self seconds]
            self.spans: Dict[str, List[float]] = {}
            #: counters read from return values (steps, kernel stats...)
            self.counts: Dict[str, float] = {}

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``name`` span per call; ``observe(tracer,
        args, result)`` may fold counters out of the return value."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [0.0]  # child seconds
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    entry = self.spans.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed - frame[0]
            if observe is not None:
                with self._lock:
                    observe(self, args, result)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        """Accumulate a counter (caller holds the lock via ``observe``)."""
        self.counts[name] = self.counts.get(name, 0) + value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }


# --------------------------------------------------------------------- #
# Counter observers (read what the program already returns).
# --------------------------------------------------------------------- #

def _observe_transient(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("engine.steps", len(result.times) - 1)
    for key, value in result.kernel_stats.items():
        tracer.add(f"kernel.{key}", value)


def _observe_cache_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("cache.get.hits", 0 if result is None else 1)


def _observe_batch(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("batch.samples", len(result.results))


def _observe_factor(tracer: Tracer, args: tuple, result: Any) -> None:
    lu = args[0]
    tracer.add("sparse.fill_nnz", lu.fill_nnz)
    tracer.add("sparse.nnz", lu.nnz)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the two workloads reach.

    Binding sites: a module that did ``from x import f`` calls its own
    global ``f``, so that global is replaced; lazily imported names are
    replaced on the module they are imported from; methods are replaced
    on their class.  The result tier and the prefix checkpoint tier are
    the same :class:`ResultCache` class, told apart by instance.
    """
    import repro.analog.engine as analog_engine
    import repro.batch.dispatch as batch_dispatch
    import repro.batch.engine as batch_engine
    import repro.batch.response as batch_response
    import repro.clocktree.whole_tree as whole_tree
    import repro.core.response as core_response
    import repro.runtime as runtime
    import repro.runtime.cache as cache_module
    import repro.runtime.prefix as prefix
    import repro.service.scheduler as scheduler
    from repro.sparse.linalg import SparseLU

    campaign = tracer.wrap("campaign", runtime.run_campaign)
    for module in (runtime, scheduler):
        module.run_campaign = campaign
    runtime.evaluate_cached = tracer.wrap("campaign", runtime.evaluate_cached)

    def tiered(method: Callable[..., Any], op: str,
               observe: Optional[Callable[..., None]] = None):
        result_tier = tracer.wrap(f"cache.{op}", method, observe)
        prefix_tier = tracer.wrap("prefix", method)

        @functools.wraps(method)
        def dispatch(self: Any, *args: Any, **kwargs: Any) -> Any:
            if self is cache_module._CHECKPOINT_CACHE:
                return prefix_tier(self, *args, **kwargs)
            return result_tier(self, *args, **kwargs)
        return dispatch

    cache_cls = cache_module.ResultCache
    cache_cls.get = tiered(cache_cls.get, "get", _observe_cache_get)
    cache_cls.put = tiered(cache_cls.put, "put")

    for name in ("prepare_prefixes", "publish_prefixes", "prefix_checkpoint"):
        setattr(prefix, name, tracer.wrap("prefix", getattr(prefix, name)))

    batch_dispatch.evaluate_jobs_batch = tracer.wrap(
        "batch.evaluate", batch_dispatch.evaluate_jobs_batch, _observe_batch
    )
    batch_response.compile_batch = tracer.wrap(
        "batch.compile", batch_response.compile_batch
    )
    batch_response.batch_transient = tracer.wrap(
        "batch.transient", batch_response.batch_transient
    )

    transient = tracer.wrap(
        "analog.transient", analog_engine.transient, _observe_transient
    )
    for module in (prefix, core_response, whole_tree):
        module.transient = transient
    dcop = tracer.wrap("analog.dcop", analog_engine.dc_operating_point)
    analog_engine.dc_operating_point = dcop
    batch_engine.dc_operating_point = dcop

    SparseLU.factor = tracer.wrap("sparse.factor", SparseLU.factor,
                                  _observe_factor)
    SparseLU.solve = tracer.wrap("sparse.solve", SparseLU.solve)

    builder = whole_tree.WholeTreeNetlistBuilder
    builder.build = tracer.wrap("clocktree.build", builder.build)
    builder.attach_sensors = tracer.wrap(
        "clocktree.build", builder.attach_sensors
    )
    for name in ("build_h_tree", "perturb_tree", "select_sensor_pairs"):
        setattr(whole_tree, name,
                tracer.wrap("clocktree.build", getattr(whole_tree, name)))


# --------------------------------------------------------------------- #
# Per-layer metrics.
# --------------------------------------------------------------------- #

#: Per-layer metric name -> unit, in README order.
PER_LAYER_UNITS: Dict[str, str] = {
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.fetch_s": "s",
    "service.metrics_bytes": "bytes",
    "service.refused": "count",
    "campaign.calls": "count",
    "campaign.self_s": "s",
    "cache.get.calls": "count",
    "cache.get_s": "s",
    "cache.put.calls": "count",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "prefix.builds": "count",
    "prefix.hits": "count",
    "prefix.hit_ratio": "ratio",
    "prefix.build_s": "s",
    "prefix.saved_sim_s": "s",
    "batch.stacks": "count",
    "batch.samples_per_stack": "count",
    "batch.compile_s": "s",
    "batch.transient_s": "s",
    "batch.self_s": "s",
    "batch.fallbacks": "count",
    "batch.fallback_ratio": "ratio",
    "analog.transient.calls": "count",
    "analog.transient_s": "s",
    "analog.dcop_s": "s",
    "engine.steps": "count",
    "kernel.newton_iterations": "count",
    "kernel.factorizations": "count",
    "kernel.jacobian_reuses": "count",
    "kernel.reuse_ratio": "ratio",
    "kernel.assemble_s": "s",
    "kernel.factor_s": "s",
    "kernel.solve_s": "s",
    "kernel.accept_s": "s",
    "sparse.factor.calls": "count",
    "sparse.factor_s": "s",
    "sparse.solve.calls": "count",
    "sparse.solve_s": "s",
    "sparse.fill_ratio": "ratio",
    "clocktree.build_s": "s",
    "unattributed_s": "s",
    "tracing.overhead": "ratio",
}

#: Metrics that count program work; two traced runs of one seed must
#: report them identically (``check_counts.py``).
EXACT_COUNTS = (
    "campaign.calls", "cache.get.calls", "cache.put.calls",
    "prefix.builds", "prefix.hits", "batch.stacks", "batch.fallbacks",
    "analog.transient.calls", "engine.steps", "kernel.newton_iterations",
    "kernel.factorizations", "kernel.jacobian_reuses",
    "sparse.factor.calls", "sparse.solve.calls",
)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    trace: Dict[str, Any], telemetry: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics (every ``PER_LAYER_UNITS`` name except the
    service, ``unattributed_s`` and ``tracing.overhead`` entries) from a
    :meth:`Tracer.snapshot` and the program's telemetry counters of the
    same window (``prefix_hits``, ``prefix_builds``, ``prefix_saved_s``,
    ``batched_samples``, ``batch_fallbacks``)."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name: str) -> int:
        return int(spans.get(name, [0, 0.0])[0])

    def self_s(name: str) -> float:
        return float(spans.get(name, [0, 0.0])[1])

    def count(name: str) -> float:
        return counts.get(name, 0)

    stacks = calls("batch.evaluate")
    hits, builds = telemetry["prefix_hits"], telemetry["prefix_builds"]
    batched, fallbacks = telemetry["batched_samples"], telemetry["batch_fallbacks"]
    return {
        "campaign.calls": calls("campaign"),
        "campaign.self_s": self_s("campaign"),
        "cache.get.calls": calls("cache.get"),
        "cache.get_s": self_s("cache.get"),
        "cache.put.calls": calls("cache.put"),
        "cache.put_s": self_s("cache.put"),
        "cache.hit_ratio": _ratio(count("cache.get.hits"), calls("cache.get")),
        "prefix.builds": int(builds),
        "prefix.hits": int(hits),
        "prefix.hit_ratio": _ratio(hits, hits + builds),
        "prefix.build_s": self_s("prefix"),
        "prefix.saved_sim_s": float(telemetry["prefix_saved_s"]),
        "batch.stacks": stacks,
        "batch.samples_per_stack": _ratio(count("batch.samples"), stacks),
        "batch.compile_s": self_s("batch.compile"),
        "batch.transient_s": self_s("batch.transient"),
        "batch.self_s": self_s("batch.evaluate"),
        "batch.fallbacks": int(fallbacks),
        "batch.fallback_ratio": _ratio(fallbacks, batched + fallbacks),
        "analog.transient.calls": calls("analog.transient"),
        "analog.transient_s": self_s("analog.transient"),
        "analog.dcop_s": self_s("analog.dcop"),
        "engine.steps": int(count("engine.steps")),
        "kernel.newton_iterations": int(count("kernel.newton_iterations")),
        "kernel.factorizations": int(count("kernel.factorizations")),
        "kernel.jacobian_reuses": int(count("kernel.jacobian_reuses")),
        "kernel.reuse_ratio": _ratio(count("kernel.jacobian_reuses"),
                                     count("kernel.newton_iterations")),
        "kernel.assemble_s": float(count("kernel.assemble_s")),
        "kernel.factor_s": float(count("kernel.factor_s")),
        "kernel.solve_s": float(count("kernel.solve_s")),
        "kernel.accept_s": float(count("kernel.accept_s")),
        "sparse.factor.calls": calls("sparse.factor"),
        "sparse.factor_s": self_s("sparse.factor"),
        "sparse.solve.calls": calls("sparse.solve"),
        "sparse.solve_s": self_s("sparse.solve"),
        "sparse.fill_ratio": _ratio(count("sparse.fill_nnz"),
                                    count("sparse.nnz")),
        "clocktree.build_s": self_s("clocktree.build"),
    }


def attributed_s(trace: Dict[str, Any]) -> float:
    """Self seconds of every layer span in ``trace``."""
    return sum(entry[1] for entry in trace["spans"].values())
