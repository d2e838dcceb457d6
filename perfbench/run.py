"""The repo benchmark: two timed seeded workloads, end-to-end metrics and
a traced per-layer run that also covers a service round.  See
``perfbench/README.md``.

Usage, from the repository root::

    python3 perfbench/run.py --workload event-cold --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload analytic-grid --seed 1 --trace 1
    python3 perfbench/run.py --selfcheck

Every pass runs in a fresh process (``passes.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print
each metric with its unit and, for ``--trace 0``, the raw host-time
median, quartiles and sample count it was computed from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from passes import EXACT_COUNTS  # noqa: E402

WORKLOADS = ("event-cold", "analytic-grid")

#: The service round, measured only in the traced run of
#: ``analytic-grid``: its job throughput swings up to 3x with the host's
#: phases, too much for a timed workload with a bound.
SERVICE = "service-mixed"

#: Set-up-only processes per run, on top of the set-up of every pass,
#: so ``setup_s`` is a median of several samples even where only three
#: or four passes fit in a run.
SETUPS = {"event-cold": 3, "analytic-grid": 0}

#: Median time of the host-speed probe (``passes.probe_host``) in quiet
#: phases of the host the benchmark was tuned on: the reference speed
#: timings are scaled to.
REFERENCE_PROBE_S = 0.035

#: How closely the workloads follow the probe: a run whose probe ran
#: ``k`` times slower than the reference ran about ``k ** ELASTICITY``
#: times slower itself.  The probe, all scattered memory reads, feels
#: the host's busy phases more than the simulator does.  Over six
#: ten-run sets, 0.75 gave the smallest spreads; 1.0 over-corrected
#: quiet sets and 0.5 under-corrected busy ones.
ELASTICITY = 0.75

#: Figures left unscaled: the event engine's cold sweep, a CPU-bound
#: interpreter loop, did not follow the probe (scaling widened one
#: ten-run set's spread from 0.15 to 0.25).
UNSCALED = {("event-cold", "configs_per_s")}

#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150

#: Service job latency percentile reported as ``service.job_p90_s``: at
#: the intended 100 jobs a round (2 clients x 50), the top 10% is 10
#: samples.
P90 = 0.9


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class PassFailed(RuntimeError):
    pass


class Runner:
    """Spawns the passes of one benchmark run, each in a fresh process
    with its own cache directory and telemetry results root."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.n = 0
        #: workload -> passes spawned so far
        self.passes: dict[str, int] = {}
        self.env = dict(os.environ)
        self.env.pop("REPRO_TELEMETRY", None)  # users run with it on
        self.env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(self.work / "default-cache"),
            GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def spawn(self, role: str, trace: bool = False,
              workload: str | None = None) -> dict:
        workload = workload or self.workload
        self.n += 1
        run_id = f"{workload}-{self.seed}-{self.n}"
        pass_dir = self.work / run_id
        pass_dir.mkdir()
        out = self.work / f"{run_id}.json"
        env = dict(self.env, REPRO_RESULTS_DIR=str(pass_dir / "results"))
        spec = {"workload": workload, "seed": self.seed,
                "tiny": self.tiny, "role": role, "trace": trace,
                "direct_check": (role == "pass"
                                 and not self.passes.get(workload)),
                "run_id": run_id, "out": str(out),
                "spans_out": str(self.work / f"spans-{run_id}.jsonl.gz")}
        spec["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
                cwd=pass_dir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{run_id} exceeded {PASS_TIMEOUT_S}s") from None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise PassFailed(f"{run_id} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        if role == "pass":
            self.passes[workload] = self.passes.get(workload, 0) + 1
        return json.loads(out.read_text())


def _check(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [x for p in passes for x in p["problems"]]
    return attempted, failed, problems


def composition(workload: str, passes: list[dict]) -> dict[str, float]:
    """Input properties later claims may cite: per-app share of
    event-cold host time, and the fresh / dedup / cache-hit shares of
    service-mixed rows."""
    if workload == "event-cold":
        total: dict[str, float] = {}
        for p in passes:
            for app, s in p["app_seconds"].items():
                total[app] = total.get(app, 0.0) + s
        whole = sum(total.values()) or 1.0
        return {f"mix.{app}.share": s / whole
                for app, s in sorted(total.items())}
    if workload == "service-mixed":
        return {f"service.{name}_share": statistics.median(
                    p["shares"][src] for p in passes)
                for name, src in (("fresh", "executed"),
                                  ("dedup", "dedup_hits"),
                                  ("cache", "cache_hits"))}
    return {}


def slowdown(runs: list[dict]) -> float:
    """How many times slower than the reference speed the host ran
    during ``runs``: the median of all their probe times over
    :data:`REFERENCE_PROBE_S`."""
    return statistics.median(x for p in runs for x in p["probe_s"]) \
        / REFERENCE_PROBE_S


def timed(runner: Runner, seconds: float) -> tuple[list[dict], list[dict]]:
    """Set-up-only processes, then passes while the next one is expected
    to end within ``seconds`` (at least one); returns both."""
    start = time.monotonic()
    setups = [runner.spawn("setup")
              for _ in range(0 if runner.tiny else SETUPS[runner.workload])]
    passes, took = [], []
    while not passes or (time.monotonic() - start
                         + statistics.median(took) <= seconds):
        t0 = time.monotonic()
        passes.append(runner.spawn("pass"))
        took.append(time.monotonic() - t0)
    return setups, passes


def samples(setups: list[dict], passes: list[dict]
            ) -> dict[str, list[float]]:
    """metric -> the run's host-time samples of it, pooled over the whole
    run: ``setup_s`` has one from each set-up-only process and pass,
    ``warm_configs_per_s`` one from each re-read, the others one from
    each pass."""
    return {
        "setup_s": [p["setup_s"] for p in setups + passes],
        "configs_per_s": [p["configs_per_s"] for p in passes],
        "warm_configs_per_s": [x for p in passes
                               for x in p["warm_rows_per_s"]],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def _repeated(runs: list[dict]) -> list[str]:
    """The counts that differ between two traced passes."""
    return [f"{runs[0]['run_id']}: count {name} did not repeat: "
            f"{runs[0]['trace'][name]} != {runs[1]['trace'][name]}"
            for name in EXACT_COUNTS
            if runs[0]["trace"][name] != runs[1]["trace"][name]]


def _layers(runs: list[dict]) -> dict[str, float]:
    """Per-layer figures of two traced passes: times are their median,
    counts and cache figures come from the first."""
    metrics = dict(runs[0]["trace"])
    for name, value in runs[1]["trace"].items():
        if name.endswith("_s") or name == "event.us_per_event":
            metrics[name] = statistics.median([metrics[name], value])
    caches = runs[0]["caches"]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    metrics["cache.hit_ratio"] = (sum(c["hits"] for c in caches) / lookups
                                  if lookups else 0.0)
    metrics["cache.torn_lines"] = sum(c["torn_lines"] for c in caches)
    return metrics


def _service(plain: dict, runs: list[dict]) -> dict[str, float]:
    """The service layer's figures: job throughput and latency from the
    untraced round, queue, exec, ping and sources from the first traced
    round."""
    service = runs[0]
    jobs = plain["jobs"]
    return {
        "service.jobs_per_s": len(jobs) / plain["jobs_s"],
        "service.job_p50_s": quantile(jobs, .5),
        "service.job_p90_s": quantile(jobs, P90),
        "service.queue_wait_p50_s": quantile(service["queue_wait_s"], .5),
        "service.queue_wait_p90_s": quantile(service["queue_wait_s"], P90),
        "service.exec_p50_s": quantile(service["exec_s"], .5),
        "service.rtt_ms": 1e3 * quantile(service["rtt_s"], .5),
        "service.dedup_ratio": service["shares"]["dedup_hits"],
        "service.executed": service["executed"],
        "service.rejected": service["rejected"],
        **composition(SERVICE, [plain, *runs]),
    }


def traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    """One untraced pass and two traced passes of the same inputs:
    per-layer self times and counts, the tracing overhead, and a check
    that every count repeats exactly.  ``analytic-grid`` then does the
    same for a service round, whose layer no timed workload covers."""
    plain = runner.spawn("pass")
    runs = [runner.spawn("pass", trace=True) for _ in range(2)]
    passes = [plain, *runs]
    problems = _repeated(runs)
    metrics = _layers(runs)
    metrics.update(composition(runner.workload, passes))
    metrics["trace.overhead_s"] = statistics.median(
        r["work_s"] for r in runs) - plain["work_s"]
    metrics["trace.untraced_s"] = plain["work_s"]
    metrics["host.slowdown"] = slowdown(runs)
    if runner.workload == "analytic-grid":
        service = [runner.spawn("pass", trace=trace, workload=SERVICE)
                   for trace in (False, True, True)]
        problems += _repeated(service[1:])
        metrics.update(_service(service[0], service[1:]))
        passes += service
    return metrics, passes, problems


def load_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, set[str]]:
    """One benchmark run; prints the report and returns the result and
    the names of the metrics the run measured."""
    e2e_units, layer_units = load_names()
    runner = Runner(workload, seed, tiny)
    if trace:
        measured, passes, problems = traced(runner)
        comp = {name: value for name, value in measured.items()
                if name.endswith("share")}
        # A layer the workload does not reach reads 0.
        metrics = {name: {"value": float(measured.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in layer_units.items()}
        for name, m in metrics.items():
            print(f"{workload:14} {name:32} {m['value']:.6g} {m['unit']}")
    else:
        setups, passes = timed(runner, seconds)
        measured = samples(setups, passes)
        k = slowdown(setups + passes) ** ELASTICITY
        problems = []
        metrics = {}
        for name, unit in e2e_units.items():
            xs = measured[name]
            if name == "peak_rss_mb":
                value = max(xs)
            elif (workload, name) in UNSCALED:
                value = statistics.median(xs)
            else:
                # at the reference host speed: rates up, times down
                value = statistics.median(xs) * (
                    k if name.endswith("_per_s") else 1 / k)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{workload:14} {name:20} {value:.6g} {unit:4} "
                  f"raw median={statistics.median(xs):.6g} "
                  f"q1={quantile(xs, .25):.6g} "
                  f"q3={quantile(xs, .75):.6g} n={len(xs)}")
        print(f"{workload:14} host slowdown {k ** (1 / ELASTICITY):.4g}, "
              f"timings scaled by {k:.4g}")
        comp = composition(workload, passes)
        for name, value in comp.items():
            print(f"{workload:14} {name:32} {value:.4f}")
    (WORK / workload / "composition.json").write_text(json.dumps(comp))
    attempted, failed, row_problems = _check(passes)
    failed += len(problems)
    problems += row_problems
    for problem in problems[:10]:
        print(f"{workload:14} FAILED {problem}")
    print(f"{workload:14} failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    return ({"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}, set(measured))


def selfcheck() -> int:
    """Tiny-seed run of every workload, timed and traced.  Every row
    check must pass, every metric a run measures must be named in
    BENCHMARK.json, every end-to-end name must be measured by every
    workload, and every per-layer name by some workload."""
    ok = True
    for trace, units in zip((False, True), load_names()):
        seen: set[str] = set()
        for workload in WORKLOADS:
            result, measured = run(workload, 0, 0, trace, tiny=True)
            seen |= measured
            unnamed = measured - units.keys()
            missing = units.keys() - measured if not trace else set()
            ok = ok and result["correct"] and not unnamed and not missing
            print(f"selfcheck {workload} trace={int(trace)}: "
                  f"correct={result['correct']} unnamed={sorted(unnamed)} "
                  f"missing={sorted(missing)}")
        never = units.keys() - seen
        ok = ok and not never
        print(f"selfcheck trace={int(trace)}: never measured "
              f"{sorted(never)}")
    print("selfcheck", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny run of all workloads, names and rows "
                             "checked")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            parser.error("--workload is required")
        result, _ = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
