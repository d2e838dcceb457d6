"""Fork-join OpenMP parallel-region timing.

Given a compiled kernel, a region descriptor and the rank's thread
placement, computes how long the region takes:

* iterations are split over threads by the schedule (static / dynamic /
  guided);
* each thread's memory and L2 bandwidth share comes from the *static
  contention census* — how many threads (of any rank) are pinned to its
  NUMA domain (SPMD codes keep all pinned threads simultaneously active in
  compute phases, so the census is the right stand-in for dynamic
  contention);
* under ``"serial-init"`` data policy, a thread running outside the rank's
  home domain accesses its data remotely (home-domain bandwidth derated by
  the chip's remote-access fraction) — the first-touch NUMA effect that
  makes long thread strides lose on single-rank runs;
* fork/join overhead grows with the thread count and with the number of
  domains spanned (the barrier crosses the ring).

The per-domain inputs and the region overhead come from one kernel
(:func:`region_contexts`, :func:`region_overhead`) that the analytic
engine calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError
from repro.kernels.timing import PhaseTiming, phase_time
from repro.machine.numa import NumaDomain
from repro.machine.topology import Cluster, CoreAddress
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.compile.compiler import CompiledKernel
    from repro.runtime.program import Compute

#: Data-placement policies.
DATA_POLICIES = ("first-touch", "serial-init")

#: A NUMA domain's ``(node, chip, domain)`` index.
Domain = tuple[int, int, int]

_FORK_BASE_S = 0.5 * US
_FORK_PER_THREAD_S = 0.04 * US
_FORK_PER_DOMAIN_S = 0.15 * US
_DYNAMIC_CHUNK_S = 0.08 * US
_DYNAMIC_CHUNKS_PER_THREAD = 16


@dataclass(frozen=True)
class RegionTiming:
    """Outcome of one parallel region on one rank.

    ``worst`` is the critical thread's :class:`PhaseTiming` and
    ``n_threads`` the region's thread count — the instrumentation record
    the simulated PMU (:mod:`repro.perf`) turns into counters.  Both are
    references to data the timing computed anyway, so attaching them
    costs nothing when profiling is off.
    """

    seconds: float
    flops: float
    dram_bytes: float
    bound: str
    max_thread_seconds: float
    overhead_seconds: float
    worst: PhaseTiming | None = None
    n_threads: int = 1

    def scaled(self, factor: float) -> "RegionTiming":
        """This region stretched by ``factor`` (uniform core slowdown).

        Wall time, critical-thread time, overhead, and the attached
        :class:`PhaseTiming` all scale together, so the simulated PMU's
        cycle accounting stays conservation-exact under straggler
        injection (attributed cycles still equal wall x frequency).
        """
        if factor == 1.0:
            return self
        import dataclasses

        return dataclasses.replace(
            self,
            seconds=self.seconds * factor,
            max_thread_seconds=self.max_thread_seconds * factor,
            overhead_seconds=self.overhead_seconds * factor,
            worst=None if self.worst is None else self.worst.scaled(factor),
        )


def fork_join_overhead(n_threads: int, n_domains: int) -> float:
    """Fork + join cost of one parallel region, seconds."""
    if n_threads < 1 or n_domains < 1:
        raise ConfigurationError("thread/domain counts must be positive")
    if n_threads == 1:
        return 0.0
    return (
        _FORK_BASE_S
        + _FORK_PER_THREAD_S * n_threads
        + _FORK_PER_DOMAIN_S * (n_domains - 1)
    )


def max_thread_iters(total: float, n_threads: int, schedule: str,
                     imbalance: float) -> float:
    """Iterations of a region's critical (most loaded) thread."""
    mean = total / n_threads
    if schedule == "static":
        return mean * imbalance
    # dynamic/guided rebalance the imbalance away at a per-chunk cost
    if schedule == "dynamic":
        return mean * (1.0 + (imbalance - 1.0) * 0.15)
    if schedule == "guided":
        return mean * (1.0 + (imbalance - 1.0) * 0.25)
    raise ConfigurationError(f"unknown schedule {schedule!r}")


_CHUNK_OVERHEAD_S = {
    "static": 0.0,
    "dynamic": _DYNAMIC_CHUNK_S * _DYNAMIC_CHUNKS_PER_THREAD,
    "guided": _DYNAMIC_CHUNK_S * (_DYNAMIC_CHUNKS_PER_THREAD // 2),
}


def region_overhead(n_threads: int, n_domains: int, schedule: str,
                    serial: bool) -> float:
    """Fork/join (none for a serial region) plus chunk overhead, seconds."""
    if schedule not in _CHUNK_OVERHEAD_S:
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    chunk = _CHUNK_OVERHEAD_S[schedule]
    return chunk if serial else fork_join_overhead(n_threads, n_domains) + chunk


def stream_share(cluster: Cluster, key: Domain,
                 threads_per_domain: dict[Domain, int], home_domain: Domain,
                 data_policy: str) -> float:
    """Memory bandwidth, bytes/s, of one thread running in domain ``key``.

    Under ``"serial-init"`` a thread outside the home domain competes for
    the home domain's bandwidth, derated by its chip's remote-access
    fraction (the on-chip ring).
    """
    chips = cluster.node.chips
    if data_policy == "serial-init" and key != home_domain:
        home = chips[home_domain[1]].domains[home_domain[2]]
        return (home.memory.per_stream_bandwidth(
                    max(1, threads_per_domain.get(home_domain, 1)))
                * chips[key[1]].remote_access_fraction)
    return chips[key[1]].domains[key[2]].memory.per_stream_bandwidth(
        max(1, threads_per_domain.get(key, 1)))


class RegionContext(NamedTuple):
    """One NUMA domain a rank's region runs in; its threads time alike."""

    key: Domain
    domain: NumaDomain
    threads: int                # the rank's threads in this domain
    mem_share: float            # bytes/s per thread, remote share included
    l2_share: float             # bytes/s per thread
    working_set_scale: float    # scaled for the shared L2


def region_contexts(thread_addrs: tuple[CoreAddress, ...], cluster: Cluster,
                    threads_per_domain: dict[Domain, int], home_domain: Domain,
                    data_policy: str,
                    working_set_scale: float) -> list[RegionContext]:
    """The distinct NUMA contexts of a region, in first-appearance order.

    ``thread_addrs`` are the region's threads (one for a serial region);
    ``threads_per_domain`` is the job's contention census.
    """
    if not thread_addrs:
        raise ConfigurationError("a region needs at least one thread")
    counts: dict[Domain, int] = {}
    for a in thread_addrs:
        key = (a.node, a.chip, a.domain)
        counts[key] = counts.get(key, 0) + 1
    contexts: list[RegionContext] = []
    for key, here in counts.items():
        dom = cluster.node.chips[key[1]].domains[key[2]]
        # Within a rank, threads co-resident in a shared L2 share their
        # reuse footprint constructively (halo planes, tables);
        # approximate by shrinking the per-thread working set with the
        # rank's thread count in that domain, floored at 30%.
        ws = working_set_scale
        if dom.l2.shared and here > 1:
            ws *= max(0.3, 1.0 / here ** 0.5)
        contexts.append(RegionContext(
            key, dom, here,
            stream_share(cluster, key, threads_per_domain, home_domain,
                         data_policy),
            dom.l2_bandwidth_share(max(1, threads_per_domain.get(key, 1))),
            ws))
    return contexts


def region_time(
    ck: "CompiledKernel",
    op: "Compute",
    thread_addrs: tuple[CoreAddress, ...],
    cluster: Cluster,
    threads_per_domain: dict[Domain, int],
    home_domain: Domain,
    data_policy: str = "first-touch",
) -> RegionTiming:
    """Time one :class:`~repro.runtime.program.Compute` region for a rank."""
    if data_policy not in DATA_POLICIES:
        raise ConfigurationError(f"unknown data policy {data_policy!r}")
    if op.serial:
        thread_addrs = thread_addrs[:1]
    contexts = region_contexts(thread_addrs, cluster, threads_per_domain,
                               home_domain, data_policy,
                               op.working_set_scale)
    n_threads = len(thread_addrs)
    max_iters = max_thread_iters(op.iters, n_threads, op.schedule,
                                 op.imbalance)
    # the critical thread is in the first slowest context
    worst = max((phase_time(ck, max_iters, c.domain.core, c.domain.l1d,
                            c.domain.l2, mem_bandwidth_share=c.mem_share,
                            l2_bandwidth_share=c.l2_share,
                            mem_latency_s=c.domain.memory.latency_s,
                            working_set_scale=c.working_set_scale)
                 for c in contexts), key=lambda pt: pt.seconds)
    overhead = region_overhead(n_threads, len(contexts), op.schedule,
                               op.serial)
    # DRAM volume scales with the full iteration count, not the max thread.
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
