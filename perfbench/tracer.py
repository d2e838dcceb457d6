"""Benchmark-side tracing: spans around calls into each program layer.

Used only by traced passes (``--trace 1``).  :func:`install` replaces
each layer's entry point *at the name its caller looks up* (for example
``repro.runtime.executor.region_time``, which the executor imported by
name) with a wrapper that records a span.  Nothing under ``src/`` is
edited, and timed passes never install the wrappers.

A span is ``[name, start, end, parent]`` on the thread that made the
call; spans are kept in memory per thread and written out once, when
the pass ends.  A layer's self time is the sum of its spans' durations
minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import Counter
from pathlib import Path

#: Span name -> the per-layer metric its self time adds to.
LAYER_OF = {
    "catalog.by_name": "catalog.by_name_s",
    "placement.build": "placement.build_s",
    "miniapps.build_job": "miniapps.build_job_s",
    "compile.compile_many": "miniapps.build_job_s",
    "analyzer.preflight": "analyzer.preflight_s",
    "executor.run_job": "executor.run_job_s",
    "event.run": "executor.run_job_s",
    "openmp.region_time": "openmp.region_time_s",
    "timing.phase_time": "timing.phase_time_s",
    "mpi.post": "mpi.post_s",
    "collectives.collective_time": "collectives.collective_time_s",
    "analytic.score_configs": "analytic.score_configs_s",
    "cache.load": "cache.load_s",
    "cache.put": "cache.put_s",
    "cache.get": "cache.get_s",
    "journal.record": "journal.record_s",
    "telemetry.write": "telemetry.write_s",
}


class Tracer:
    """Span store for one pass; ``run_id`` tags every span it writes."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Spans and counts are recorded only while this is true: the
        #: pass sets it around its timed section.
        self.active = False
        self.counts: Counter = Counter()
        self.region_keys: set = set()
        self._local = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()

    def _spans(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with a span named ``name`` around every call;
        ``on_call(args, kwargs, result)`` may count what the call did."""
        spans_of = self._spans
        clock = time.perf_counter

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = spans_of()
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every thread."""
        out: Counter = Counter()
        for spans in self._threads:
            child = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0 and span[2]:
                    child[span[3]] += span[2] - span[1]
            for i, span in enumerate(spans):
                if span[2]:  # still open when the pass ended: skipped
                    out[span[0]] += (span[2] - span[1]) - child[i]
        return dict(out)

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for spans in self._threads for s in spans
                   if s[0] == name and s[2])

    def write(self, path: Path) -> None:
        """Write every span as one gzipped JSON line:
        ``[run id, span id, parent id, name, start, end]``, with ids
        ``thread:index`` and ``end`` 0 for a span still open."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for t, spans in enumerate(self._threads):
                for i, (name, start, end, parent) in enumerate(spans):
                    out.write(json.dumps(
                        [self.run_id, f"{t}:{i}",
                         f"{t}:{parent}" if parent >= 0 else None,
                         name, start, end],
                        separators=(",", ":")) + "\n")


def _hashable(value):
    if isinstance(value, dict):
        return frozenset(value.items())
    return value


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.analysis.analyzer as analyzer
    import repro.analytic.engine as analytic_engine
    import repro.compile.compiler as compiler
    import repro.core.runner as runner
    import repro.machine.catalog as catalog
    import repro.runtime.executor as executor
    import repro.runtime.mpi as mpi
    import repro.runtime.openmp as openmp
    import repro.runtime.placement as placement
    from repro.core.cache import ResultCache
    from repro.core.journal import SweepJournal
    from repro.miniapps import SUITE
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.run import RunContext
    from repro.telemetry.spans import SpanRecorder

    counts = tracer.counts
    wrap = tracer.wrap

    def counter(name):
        def on_call(args, kwargs, result):
            counts[name] += 1
        return on_call

    catalog.by_name = wrap("catalog.by_name", catalog.by_name)

    base = placement.JobPlacement

    class TracedPlacement(base):
        __init__ = wrap("placement.build", base.__init__)

    for module in (placement, runner, analytic_engine):
        module.JobPlacement = TracedPlacement

    for app_type in {type(app) for app in SUITE.values()}:
        app_type.build_job = wrap("miniapps.build_job", app_type.build_job)
    compiler.Compiler.compile_many = wrap(
        "compile.compile_many", compiler.Compiler.compile_many)

    analyzer.preflight = wrap("analyzer.preflight", analyzer.preflight,
                              counter("analyzer.preflight_calls"))

    def after_run_job(args, kwargs, result):
        counts["mpi.messages"] += result.messages_sent
    runner.run_job = wrap("executor.run_job", runner.run_job, after_run_job)

    engine_base = executor.Engine

    class TracedEngine(engine_base):
        def schedule(self, delay, action):
            if tracer.active:
                counts["event.events"] += 1
            engine_base.schedule(self, delay, action)

        def schedule_at(self, when, action):
            if tracer.active:
                counts["event.events"] += 1
            engine_base.schedule_at(self, when, action)

        run = wrap("event.run", engine_base.run)

    executor.Engine = TracedEngine

    region_keys = tracer.region_keys

    def after_region(args, kwargs, result):
        counts["openmp.region_calls"] += 1
        ck, op, addrs, _cluster, per_domain, home = args[:6]
        policy = args[6] if len(args) > 6 else kwargs.get(
            "data_policy", "first-touch")
        region_keys.add((ck, op, addrs, _hashable(per_domain), home,
                         policy))
    executor.region_time = wrap("openmp.region_time", executor.region_time,
                                after_region)

    for module in (openmp, analytic_engine):
        module.phase_time = wrap("timing.phase_time", module.phase_time,
                                 counter("timing.phase_calls"))
    for module in (mpi, analytic_engine):
        module.collective_time = wrap(
            "collectives.collective_time", module.collective_time,
            counter("collectives.calls"))
    for method in ("post_send", "post_recv", "post_collective"):
        setattr(mpi.SimMPI, method,
                wrap("mpi.post", getattr(mpi.SimMPI, method)))

    def after_score(args, kwargs, result):
        counts["analytic.configs"] += len(args[0])
    analytic_engine.score_configs = wrap(
        "analytic.score_configs", analytic_engine.score_configs,
        after_score)

    ResultCache._load = wrap("cache.load", ResultCache._load)
    ResultCache.put = wrap("cache.put", ResultCache.put,
                           counter("cache.puts"))
    ResultCache.get = wrap("cache.get", ResultCache.get)
    SweepJournal.record = wrap("journal.record", SweepJournal.record,
                               counter("journal.records"))

    for cls, methods in ((MetricsRegistry, ("count", "gauge", "observe")),
                         (SpanRecorder, ("close", "emit"))):
        for method in methods:
            setattr(cls, method,
                    wrap("telemetry.write", getattr(cls, method),
                         counter("telemetry.records")))
    RunContext.open = classmethod(wrap("telemetry.write",
                                       RunContext.open.__func__))
    for method in ("finalize", "attach_sweep", "attach_rows"):
        setattr(RunContext, method,
                wrap("telemetry.write", getattr(RunContext, method)))
