"""One benchmark pass, run in a fresh process by ``run.py``.

Usage (the spec is one JSON argument, written by ``run.py``)::

    python3 perfbench/passes.py '{"workload": ..., "seed": ..., ...}'

A fresh process per pass keeps every pass cold: the analyzer's
in-process lint memo, the fingerprint memo and the imports all start
empty, as they do for a user.  The pass writes its measurements to
``spec["out"]`` as JSON.

Roles:

* ``setup`` — set up (imports, inputs, catalog, ``model_fingerprint()``,
  and for service-mixed the server and its pool) and stop: one
  ``setup_s`` sample;
* ``pass`` — set up, run the workload's timed section, then check every
  row outside the timed section.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Warm re-reads per pass, each through a new ResultCache instance.  A
#: sweep pass times each one; the service round's single re-read is
#: only a check.
WARM_REPS = {"event-cold": 100, "analytic-grid": 3, "service-mixed": 1}

#: The host-speed probe: :data:`PROBE_RUNS` runs of :data:`PROBE_READS`
#: scattered reads over a table of :data:`PROBE_ROWS` small dicts (tens
#: of MB, far past the CPU caches).
PROBE_ROWS = 200_000
PROBE_READS = 30_000
PROBE_RUNS = 5

#: Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = ("event.events", "mpi.messages", "openmp.region_calls",
                "openmp.region_distinct", "timing.phase_calls",
                "collectives.calls", "analytic.configs", "cache.puts",
                "journal.records")


class Checker:
    """Counts attempted and failed operations and checks rows against
    the reference, a direct run or the cold pass."""

    def __init__(self) -> None:
        import reference

        self.reference = reference
        self.table = reference.load()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def sweep(self, engine: str, configs, sweep) -> dict:
        """Count ``sweep``'s rows and errors; returns label -> row."""
        self.attempted += len(configs)
        for error in sweep.errors:
            self.fail(f"{error.config.label()}: {error.error}: "
                      f"{error.message}")
        return {self.reference.key(engine, row.config): row
                for row in sweep.rows}

    def against_reference(self, engine: str, rows) -> None:
        for row in rows:
            problem = self.reference.mismatch(self.table, engine,
                                              row.config, row)
            if problem is not None:
                self.fail(problem)

    def served(self, engine: str, configs, rows) -> dict:
        """Count rows a cache served for ``configs``; a config it had no
        row for fails.  Returns label -> row."""
        self.attempted += len(configs)
        out = {}
        for config, row in zip(configs, rows):
            name = self.reference.key(engine, config)
            if row is None:
                self.fail(f"{name}: not in the cache")
            else:
                out[name] = row
        return out

    def equal(self, what: str, expected: dict, got: dict) -> None:
        values = self.reference.row_values
        for name, row in got.items():
            want = expected.get(name)
            if want is None or values(want) != values(row):
                self.fail(f"{what}: {name} differs")


def _run_dirs(results: Path) -> set[str]:
    runs = results / "runs"
    return set(os.listdir(runs)) if runs.is_dir() else set()


def _app_seconds(run_dir: Path) -> dict[str, float]:
    """Host seconds per app, from the ``config`` spans the program
    records in a sweep's telemetry run directory."""
    import workloads

    out = dict.fromkeys(workloads.APPS, 0.0)
    path = run_dir / "spans.jsonl"
    for line in path.read_text().splitlines():
        span = json.loads(line)
        if span.get("name") == "config":
            app = span["attrs"]["label"].split("/", 1)[0]
            out[app] += span["dur_s"]
    return out


class Timed:
    """The timed section of a pass; a traced pass records spans and
    counts only inside it."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> "Timed":
        if self.tracer is not None:
            self.tracer.active = True
        return self

    def __exit__(self, *_exc) -> None:
        if self.tracer is not None:
            self.tracer.active = False


def sweep_pass(spec: dict, checker: Checker, result: dict,
               timed: Timed) -> None:
    """event-cold / analytic-grid: one cold sweep into an empty cache,
    then warm re-reads of that directory, each a new ResultCache asked
    for every config's row."""
    import workloads
    from repro.core.cache import ResultCache, model_fingerprint
    from repro.core.runner import cache_key, run_sweep

    workload, tiny = spec["workload"], spec["tiny"]
    engine = "event" if workload == "event-cold" else "analytic"
    make = workloads.event_cold if engine == "event" \
        else workloads.analytic_grid
    configs = make(spec["seed"], tiny)
    model_fingerprint()
    cache_dir = Path("cache")
    results = Path(os.environ["REPRO_RESULTS_DIR"])
    before = _run_dirs(results)
    result["setup_s"] = time.monotonic() - spec["t_spawn"]
    if spec["role"] == "setup":
        return

    with timed:
        cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        cold = run_sweep(workload, configs, cache, engine=engine,
                         errors="capture")
        cold_s = time.perf_counter() - t0
        cold_rows = checker.sweep(engine, configs, cold)
        stats = [cache.stats()]
        keys = [cache_key(config, engine) for config in configs]
        warm_s = []
        # Every re-read starts on the same heap with no collection
        # pending, so it pays only for the collections it causes.  The
        # heap so far is frozen out of the collector: in a traced pass
        # it holds ~10^5 spans, and each collection would scan them all.
        gc.collect()
        gc.freeze()
        for _ in range(WARM_REPS[spec["workload"]]):
            gc.collect()
            warm = ResultCache(cache_dir)
            t0 = time.perf_counter()
            rows = [warm.get(key) for key in keys]
            warm_s.append(time.perf_counter() - t0)
            stats.append(warm.stats())
            checker.equal("warm row", cold_rows,
                          checker.served(engine, configs, rows))
            del warm, rows
    result["work_s"] = time.monotonic() - spec["t_spawn"]

    checker.against_reference(engine, cold.rows)
    distinct = len(set(configs))
    result.update(
        rows=len(configs), distinct=distinct, cold_s=cold_s,
        configs_per_s=distinct / cold_s,
        warm_rows_per_s=[len(configs) / s for s in warm_s],
        caches=stats)
    if engine == "event":
        new = sorted(_run_dirs(results) - before)
        first = min(new, key=lambda d: (results / "runs" / d /
                                        "manifest.json").stat().st_mtime)
        result["app_seconds"] = _app_seconds(results / "runs" / first)


def _client(idx: int, jobs, out: dict) -> None:
    from repro.service import ServiceClient, protocol

    records, latencies, rtts, rows = [], [], [], []
    try:
        with ServiceClient("svc.sock", timeout_s=120,
                           client_name=f"client-{idx}") as client:
            for j, (engine, configs) in enumerate(jobs):
                rtts.append(client.ping())
                t0 = time.perf_counter()
                got, final = {}, {}
                for frame in client.stream(f"client-{idx}-{j}", configs,
                                           engine=engine):
                    kind = frame.get("type")
                    if kind == "row":
                        index, row, _source = protocol.parse_row(frame)
                        got[index] = row
                    elif kind == "row-error":
                        got[int(frame["index"])] = None
                    elif kind == "done":
                        final = dict(frame.get("job") or {})
                latencies.append(time.perf_counter() - t0)
                records.append(final)
                rows.append((engine, configs, got))
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        out["error"] = f"{type(exc).__name__}: {exc}"
    out.update(records=records, latencies=latencies, rtts=rtts, rows=rows)


def service_pass(spec: dict, checker: Checker, result: dict,
                 timed: Timed) -> None:
    """service-mixed: an in-thread SweepService with two workers and an
    empty cache, driven by two closed-loop client threads."""
    import workloads
    from repro.core.cache import ResultCache, model_fingerprint
    from repro.core.runner import run_sweep
    from repro.service import ServiceClient, SweepService, serve_in_thread

    clients = workloads.service_jobs(spec["seed"], spec["tiny"])
    model_fingerprint()
    cache_dir = Path("cache")
    caches = [ResultCache(cache_dir)]
    service = SweepService("svc.sock", cache=caches[0], workers=2,
                           heartbeat_s=None)
    thread = serve_in_thread(service)
    try:
        with ServiceClient("svc.sock", timeout_s=120,
                           client_name="warmup") as client:
            client.run_sweep("warmup", list(workloads.WARMUP),
                             engine="event")
        result["setup_s"] = time.monotonic() - spec["t_spawn"]
        if spec["role"] == "setup":
            return
        outs: list[dict] = [{}, {}]
        threads = [threading.Thread(target=_client, args=(i, jobs, outs[i]))
                   for i, jobs in enumerate(clients)]
        with timed:
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            round_s = time.perf_counter() - t0
        result["work_s"] = time.monotonic() - spec["t_spawn"]
        stats = service.stats()
    finally:
        thread.stop()

    records = [r for out in outs for r in out.get("records", [])]
    requested: dict[str, set] = {"analytic": set(), "event": set()}
    served: dict[str, dict] = {"analytic": {}, "event": {}}
    key = checker.reference.key
    for out in outs:
        if "error" in out:
            checker.fail(out["error"])
        for engine, configs, got in out.get("rows", []):
            checker.attempted += len(configs) + 1  # rows + the submission
            requested[engine].update(configs)
            for index, config in enumerate(configs):
                row = got.get(index)
                if row is None or row.config != config:
                    checker.fail(f"{key(engine, config)}: no row")
                    continue
                served[engine][key(engine, config)] = row
    for record in records:
        if record.get("state") != "completed":
            checker.fail(f"job {record.get('job_id')} ended "
                         f"{record.get('state')}")
    failed_submissions = len(clients[0]) + len(clients[1]) - len(records)
    checker.failed += max(0, failed_submissions)

    # Checks, outside the timed section: the reference, a direct
    # run_sweep of the same configs (once a run: every pass of a run
    # gets the same inputs), and warm re-reads of the cache.
    ordered = {e: sorted(requested[e], key=lambda c: key(e, c))
               for e in requested}
    for engine, configs in ordered.items():
        checker.against_reference(engine, served[engine].values())
        if spec["direct_check"]:
            direct = run_sweep(f"direct-{engine}", configs, None,
                               engine=engine, errors="capture")
            checker.equal(f"service vs direct {engine}",
                          checker.sweep(engine, configs, direct),
                          served[engine])
    distinct = sum(len(configs) for configs in ordered.values())
    for _ in range(WARM_REPS[spec["workload"]]):
        caches.append(ResultCache(cache_dir))
        warm = {e: run_sweep(f"warm-{e}", configs, caches[-1], engine=e,
                             errors="capture")
                for e, configs in ordered.items()}
        for e, sweep in warm.items():
            checker.equal(f"warm {e}", served[e],
                          checker.sweep(e, ordered[e], sweep))

    rows = sum(r.get("n_configs", 0) for r in records)
    done = {src: sum(r.get(f"n_{src}", 0) for r in records)
            for src in ("executed", "dedup_hits", "cache_hits")}
    latencies = [x for out in outs for x in out.get("latencies", [])]
    result.update(
        rows=rows, distinct=distinct, round_s=round_s,
        configs_per_s=distinct / round_s,
        jobs=latencies, jobs_s=round_s,
        caches=[c.stats() for c in caches],
        rtt_s=[x for out in outs for x in out.get("rtts", [])],
        queue_wait_s=[r["started_at"] - r["submitted_at"] for r in records
                      if r.get("started_at") is not None],
        exec_s=[r["finished_at"] - r["started_at"] for r in records
                if r.get("started_at") is not None
                and r.get("finished_at") is not None],
        shares={src: n / max(rows, 1) for src, n in done.items()},
        executed=done["executed"], rejected=stats["jobs_rejected"])


def probe_host() -> list[float]:
    """Host seconds of each run of the probe kernel.

    The host's speed swings by up to 1.5x for minutes at a time, and
    this kernel slows with it: over ten analytic-grid runs its time
    correlated with the cold throughput at r = -0.93.  A probe that ran
    on the other CPU during the pass did not track the pass, so the pass
    process runs it itself, after everything it measures."""
    table = [{"a": float(i), "b": 2 * i} for i in range(PROBE_ROWS)]
    order = [(i * 7919) % PROBE_ROWS for i in range(PROBE_READS)]
    out = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in order:
            row = table[i]
            acc += row["a"] * 0.5 + row["b"]
        out.append(time.perf_counter() - t0)
    return out


def trace_metrics(tracer) -> dict:
    """Per-layer self times and counts of one traced pass."""
    from tracer import LAYER_OF

    layers: dict[str, float] = {name: 0.0 for name in LAYER_OF.values()}
    for span, seconds in tracer.self_times().items():
        layers[LAYER_OF[span]] += seconds
    counts = {name: tracer.counts.get(name, 0) for name in (
        *EXACT_COUNTS, "analyzer.preflight_calls", "telemetry.records")}
    counts["openmp.region_distinct"] = len(tracer.region_keys)
    events = counts["event.events"]
    layers["event.us_per_event"] = (
        1e6 * tracer.inclusive("event.run") / events if events else 0.0)
    return {**layers, **counts}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
    checker = Checker() if spec["role"] == "pass" else None
    result: dict = {}
    run_pass = service_pass if spec["workload"] == "service-mixed" \
        else sweep_pass
    run_pass(spec, checker, result, Timed(tracer))
    if checker is not None:
        result.update(attempted=checker.attempted, failed=checker.failed,
                      problems=checker.problems)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["probe_s"] = probe_host()  # after the peak: its table is big
    if tracer is not None and spec["role"] == "pass":
        result["trace"] = trace_metrics(tracer)
        tracer.write(Path(spec["spans_out"]))
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
