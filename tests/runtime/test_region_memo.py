"""The executor's per-job region-timing memo is exact.

A checking perf sink recomputes :func:`region_time` from scratch for
every timed ``Compute`` and demands equality with the (possibly
memoized) :class:`RegionTiming` the executor handed it, after applying
the node-slowdown and straggler scaling the executor applies per call.
"""

import dataclasses

from repro.faults import FaultPlan, Straggler
from repro.machine import catalog
from repro.miniapps import by_name
from repro.perf.profile import NullSink
from repro.runtime import JobPlacement, run_job
from repro.runtime import executor
from repro.runtime.openmp import region_time


class CheckingSink(NullSink):
    """Recomputes every region and compares it with what the run got."""

    __slots__ = ("job", "checked", "straggle")

    def __init__(self, straggle=None):
        self.checked = 0
        #: rank -> (factor, start) of the job's straggler specs.
        self.straggle = straggle or {}

    def begin_run(self, job):
        self.job = job

    def on_compute(self, rank, op, timing, ck, start):
        job = self.job
        pl = job.placement
        expected = region_time(ck, op, pl.thread_cores(rank), job.cluster,
                               pl.threads_per_domain, pl.home_domain(rank),
                               job.data_policy)
        if job.node_slowdown:
            expected = expected.scaled(
                job.node_slowdown.get(pl.node_of(rank), 1.0))
        factor, begin = self.straggle.get(rank, (1.0, 0.0))
        if start >= begin:
            expected = expected.scaled(factor)
        assert timing == expected, (rank, op)
        self.checked += 1


def ffvc_job(n_nodes=1, n_ranks=4, n_threads=12, **kwargs):
    cluster = catalog.a64fx(n_nodes=n_nodes)
    placement = JobPlacement(cluster, n_ranks, n_threads)
    job = by_name("ffvc").build_job(
        cluster, placement, "as-is",
        data_policy=kwargs.pop("data_policy", "first-touch"))
    return dataclasses.replace(job, **kwargs)


def checked_run(job, straggle=None):
    sink = CheckingSink(straggle)
    result = run_job(dataclasses.replace(job, perf_sink=sink))
    assert sink.checked > 0
    return result, sink


def test_memo_matches_fresh_timing_4x12():
    checked_run(ffvc_job())


def test_memo_matches_fresh_timing_serial_init():
    # 3x16 straddles the CMGs unevenly: each rank has its own mix of
    # remote threads, so a memo that confused ranks would fail here
    checked_run(ffvc_job(n_ranks=3, n_threads=16, data_policy="serial-init"))


def test_memo_matches_fresh_timing_under_faults():
    job = ffvc_job(n_nodes=2, n_ranks=8)
    mid = run_job(job).elapsed / 2
    plan = FaultPlan(seed=0, stragglers=(Straggler(rank=0, factor=1.5),
                                         Straggler(rank=5, factor=2.0,
                                                   start=mid)))
    hurt = dataclasses.replace(job, node_slowdown={1: 1.25}, fault_plan=plan)
    result, sink = checked_run(
        hurt, straggle={s.rank: (s.factor, s.start) for s in plan.stragglers})
    assert result.fault_stats.straggled_regions > 0


def test_memo_reuses_region_timings(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return region_time(*args)

    monkeypatch.setattr(executor, "region_time", counting)
    _, sink = checked_run(ffvc_job())
    assert 0 < len(calls) < sink.checked

