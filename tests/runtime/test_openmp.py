"""Tests for the OpenMP region model: schedules, NUMA, binding effects."""

import pytest

from repro.compile import Compiler, PRESETS
from repro.errors import ConfigurationError
from repro.kernels import presets
from repro.kernels.timing import PhaseTiming, phase_time
from repro.machine import catalog
from repro.runtime import openmp
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.runtime.openmp import RegionTiming, fork_join_overhead, region_time
from repro.runtime.placement import JobPlacement
from repro.runtime.program import Compute


@pytest.fixture(scope="module")
def cluster():
    return catalog.a64fx()


def region(cluster, op, n_ranks=1, threads=12, binding=None, policy="first-touch",
           kernel=None):
    pl = JobPlacement(cluster, n_ranks, threads,
                      binding=binding or ThreadBinding("compact"))
    core = cluster.node.chips[0].domains[0].core
    ck = Compiler(PRESETS["kfast"]).compile(kernel or presets.stream_triad(), core)
    return region_time(ck, op, pl.thread_cores(0), cluster,
                       pl.threads_per_domain, pl.home_domain(0), policy)


class TestForkJoin:
    def test_single_thread_is_free(self):
        assert fork_join_overhead(1, 1) == 0.0

    def test_grows_with_threads_and_domains(self):
        assert fork_join_overhead(48, 4) > fork_join_overhead(12, 1) > 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            fork_join_overhead(0, 1)


class TestRegionTiming:
    def test_more_threads_faster_compute_bound(self, cluster):
        op = Compute("k", iters=1e6)
        t4 = region(cluster, op, threads=4, kernel=presets.dgemm_blocked())
        t12 = region(cluster, op, threads=12, kernel=presets.dgemm_blocked())
        assert t12.seconds < t4.seconds

    def test_bandwidth_bound_saturates_within_cmg(self, cluster):
        """Triad on one CMG: going 6 -> 12 threads barely helps."""
        op = Compute("k", iters=1e7)
        t1 = region(cluster, op, threads=1)
        t6 = region(cluster, op, threads=6)
        t12 = region(cluster, op, threads=12)
        assert t6.seconds < 0.5 * t1.seconds           # some scaling early on
        assert abs(t12.seconds - t6.seconds) < 0.02 * t6.seconds  # saturated

    def test_scatter_binding_wins_for_bandwidth(self, cluster):
        """12 triad threads over 4 CMGs get 4x the memory bandwidth."""
        op = Compute("k", iters=1e7)
        compact = region(cluster, op, threads=12)
        scatter = region(cluster, op, threads=12,
                         binding=ThreadBinding("scatter"))
        assert scatter.seconds < 0.5 * compact.seconds

    def test_serial_init_penalizes_scatter(self, cluster):
        """With serial first-touch, remote threads throttle on the home CMG."""
        op = Compute("k", iters=1e7)
        local = region(cluster, op, threads=48, policy="first-touch",
                       binding=ThreadBinding("compact"))
        remote = region(cluster, op, threads=48, policy="serial-init",
                        binding=ThreadBinding("compact"))
        assert remote.seconds > 2 * local.seconds

    def test_serial_region_uses_one_thread(self, cluster):
        par = region(cluster, Compute("k", iters=1e6))
        ser = region(cluster, Compute("k", iters=1e6, serial=True))
        assert ser.seconds > par.seconds
        assert ser.overhead_seconds == 0.0

    def test_imbalance_slows_static(self, cluster):
        flat = region(cluster, Compute("k", iters=1e6, imbalance=1.0))
        skew = region(cluster, Compute("k", iters=1e6, imbalance=1.5))
        assert skew.seconds == pytest.approx(
            1.5 * (flat.seconds - flat.overhead_seconds)
            + flat.overhead_seconds, rel=0.01)

    def test_dynamic_absorbs_imbalance_at_a_cost(self, cluster):
        static_skew = region(cluster, Compute("k", iters=1e7, imbalance=1.8))
        dynamic_skew = region(
            cluster, Compute("k", iters=1e7, imbalance=1.8, schedule="dynamic"))
        static_flat = region(cluster, Compute("k", iters=1e7))
        assert dynamic_skew.seconds < static_skew.seconds
        assert dynamic_skew.seconds > static_flat.seconds

    def test_flops_independent_of_schedule(self, cluster):
        a = region(cluster, Compute("k", iters=1e6))
        b = region(cluster, Compute("k", iters=1e6, schedule="dynamic"))
        assert a.flops == b.flops

    def test_rejects_unknown_policy(self, cluster):
        with pytest.raises(ConfigurationError):
            region(cluster, Compute("k", iters=10), policy="telepathy")

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ConfigurationError):
            Compute("k", iters=10, schedule="fractal")


# ----------------------------------------------------------------------
# oracle: the per-thread loop region_time replaced
# ----------------------------------------------------------------------
def _reference_thread_iters(total, n_threads, schedule, imbalance):
    mean = total / n_threads
    chunk_s = openmp._DYNAMIC_CHUNK_S
    if schedule == "static":
        return mean * imbalance, 0.0
    if schedule == "dynamic":
        residual = 1.0 + (imbalance - 1.0) * 0.15
        return mean * residual, chunk_s * openmp._DYNAMIC_CHUNKS_PER_THREAD
    residual = 1.0 + (imbalance - 1.0) * 0.25
    return mean * residual, chunk_s * (openmp._DYNAMIC_CHUNKS_PER_THREAD // 2)


def reference_region_time(ck, op, thread_addrs, cluster, threads_per_domain,
                          home_domain, data_policy):
    """Time every thread on its own and keep the first slowest one."""
    if op.serial:
        thread_addrs = thread_addrs[:1]
    n_threads = len(thread_addrs)
    max_iters, chunk_overhead = _reference_thread_iters(
        op.iters, n_threads, op.schedule, op.imbalance)
    domains = {(a.node, a.chip, a.domain) for a in thread_addrs}
    home_dom_spec = cluster.node.chips[home_domain[1]].domains[home_domain[2]]
    home_active = max(1, threads_per_domain.get(home_domain, 1))

    worst = None
    for a in thread_addrs:
        dom = cluster.domain_spec(a)
        key = (a.node, a.chip, a.domain)
        active = max(1, threads_per_domain.get(key, 1))
        if data_policy == "serial-init" and key != home_domain:
            chip = cluster.node.chips[a.chip]
            mem_share = (home_dom_spec.memory.per_stream_bandwidth(home_active)
                         * chip.remote_access_fraction)
        else:
            mem_share = dom.memory.per_stream_bandwidth(active)
        l2_share = dom.l2_bandwidth_share(active)
        here = sum(1 for b in thread_addrs
                   if (b.node, b.chip, b.domain) == key)
        ws_scale = op.working_set_scale
        if dom.l2.shared and here > 1:
            ws_scale *= max(0.3, 1.0 / here ** 0.5)
        pt = phase_time(ck, max_iters, dom.core, dom.l1d, dom.l2,
                        mem_bandwidth_share=mem_share,
                        l2_bandwidth_share=l2_share,
                        mem_latency_s=dom.memory.latency_s,
                        working_set_scale=ws_scale)
        if worst is None or pt.seconds > worst.seconds:
            worst = pt

    overhead = 0.0 if op.serial else fork_join_overhead(n_threads,
                                                        len(domains))
    overhead += chunk_overhead
    dram = worst.dram_bytes / max_iters * op.iters if max_iters > 0 else 0.0
    return RegionTiming(
        seconds=worst.seconds + overhead,
        flops=ck.kernel.flops * op.iters,
        dram_bytes=dram,
        bound=worst.bound,
        max_thread_seconds=worst.seconds,
        overhead_seconds=overhead,
        worst=worst,
        n_threads=n_threads,
    )


#: Per machine, (ranks per node, threads per rank) of the oracle sweep.
ORACLE_SHAPES = {
    "A64FX": (3, 16),
    "A64FX-FX700": (3, 16),
    "Xeon-Skylake": (2, 20),
    "ThunderX2": (2, 28),
    "SPARC64-VIIIfx": (2, 4),
}

ORACLE_OPS = (
    Compute("k", iters=1e6),
    Compute("k", iters=1e6, serial=True),
    Compute("k", iters=3e5, schedule="dynamic", imbalance=1.4,
            working_set_scale=2.0),
    Compute("k", iters=7e5, schedule="guided", imbalance=1.2,
            working_set_scale=0.5),
)


@pytest.mark.parametrize("machine", sorted(catalog.PROCESSORS))
def test_region_time_equals_per_thread_reference(machine):
    """Timing each distinct NUMA context once gives exactly the
    per-thread loop's RegionTiming, critical PhaseTiming included, on
    two nodes so that block and cyclic allocations differ."""
    cluster = catalog.by_name(machine, n_nodes=2)
    core = cluster.node.chips[0].domains[0].core
    compiler = Compiler(PRESETS["kfast"])
    kernels = [compiler.compile(k, core) for k in (
        presets.stream_triad(), presets.dgemm_blocked(),
        presets.spmv_csr(13.0, 4096.0))]
    per_node, threads = ORACLE_SHAPES[machine]
    checked = 0
    for binding in (ThreadBinding(), ThreadBinding("stride", 2),
                    ThreadBinding("stride", 4)):
        for allocation in ("block", "cyclic"):
            pl = JobPlacement(cluster, 2 * per_node, threads,
                              binding=binding,
                              allocation=ProcessAllocation(allocation))
            for rank in range(pl.n_ranks):
                args = (pl.thread_cores(rank), cluster,
                        pl.threads_per_domain, pl.home_domain(rank))
                for policy in openmp.DATA_POLICIES:
                    for ck in kernels:
                        for op in ORACLE_OPS:
                            got = region_time(ck, op, *args, policy)
                            want = reference_region_time(ck, op, *args,
                                                         policy)
                            assert isinstance(got.worst, PhaseTiming)
                            assert got == want, (binding, allocation, rank,
                                                 policy, op)
                            checked += 1
    assert checked == 6 * 2 * per_node * 2 * 3 * len(ORACLE_OPS)
