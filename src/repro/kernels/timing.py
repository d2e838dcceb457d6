"""ECM-style per-core timing of a compiled kernel.

The per-iteration time is the max over the throughput-limited resources —
FP pipes, L1, L2, DRAM — plus a non-overlappable latency exposure for
gather accesses::

    T_iter = max(T_compute, T_L1, T_L2, T_DRAM) + T_gather_latency

This full-overlap roofline form is what the paper's own analysis section
reasons with (compute-bound vs. memory-bound attribution), and it reproduces
the documented A64FX behaviours:

* memory-bound kernels scale with the per-thread HBM2 share (so thread
  placement across CMGs matters),
* low-ILP kernels are pipeline-fill limited (long FP latency, small OoO
  window) until the compiler's instruction scheduling raises the fill,
* gather-heavy kernels pay both partial 256-byte-line utilization and the
  latency term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.kernels.workingset import level_traffic
from repro.machine.cache import CacheSpec
from repro.machine.core import CoreSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.compile.compiler import CompiledKernel


@dataclass(frozen=True)
class PhaseTiming:
    """Result of timing one compute phase on one core.

    ``l1_bytes`` / ``l2_bytes`` are the total bytes the L1D and L2 carried
    for the phase and ``iters`` its iteration count — recorded so the
    simulated PMU (:mod:`repro.perf.events`) can derive cache-miss and
    traffic counters from exactly the numbers the timing used, never from
    a parallel re-computation that could silently drift.
    """

    seconds: float
    bound: str                 # "compute" | "l1" | "l2" | "dram" | "latency"
    components: dict[str, float]
    flops: float               # total FLOPs executed in the phase
    dram_bytes: float          # total DRAM traffic of the phase
    l1_bytes: float = 0.0      # total bytes moved through L1D
    l2_bytes: float = 0.0      # total bytes the L2 carried (= L1D miss bytes)
    iters: float = 0.0         # iteration count the phase was timed for

    @property
    def achieved_flops_per_s(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds

    @property
    def dram_bandwidth(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.dram_bytes / self.seconds

    def scaled(self, factor: float) -> "PhaseTiming":
        """This timing with every time component stretched by ``factor``.

        Models a uniform slowdown of the executing core — frequency and
        all bandwidths derated together — so the resource *balance* (and
        with it ``bound``) is unchanged while seconds and the per-level
        components scale.  Work counts (flops, bytes, iters) are the same
        work, done slower.  The straggler-injection transform
        (:mod:`repro.faults`) and node-slowdown modelling both use this.
        """
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        if factor == 1.0:
            return self
        import dataclasses

        return dataclasses.replace(
            self,
            seconds=self.seconds * factor,
            components={k: v * factor for k, v in self.components.items()},
        )


def phase_time(
    ck: "CompiledKernel",
    iters: float,
    core: CoreSpec,
    l1: CacheSpec,
    l2: CacheSpec,
    *,
    mem_bandwidth_share: float,
    l2_bandwidth_share: float,
    mem_latency_s: float,
    working_set_scale: float = 1.0,
) -> PhaseTiming:
    """Time ``iters`` iterations of ``ck`` on one core.

    ``mem_bandwidth_share`` / ``l2_bandwidth_share`` are the bytes/s this
    thread gets from its (possibly contended, possibly remote) memory and L2
    — the runtime layer computes them from the placement.
    """
    if iters < 0:
        raise ConfigurationError("iteration count must be non-negative")
    if mem_bandwidth_share <= 0 or l2_bandwidth_share <= 0:
        raise ConfigurationError("bandwidth shares must be positive")
    if iters == 0:
        return PhaseTiming(0.0, "compute", {}, 0.0, 0.0)

    k = ck.kernel
    traffic = level_traffic(k, l1, l2, working_set_scale)

    # ------------------------------------------------------------------
    # compute throughput
    # ------------------------------------------------------------------
    fill = core.pipeline_fill(ck.ilp_effective, ck.scheduling_boost)
    t_compute_cycles = 0.0
    if k.flops > 0:
        vec_flops = k.flops * ck.vec_fraction_achieved
        scalar_flops = k.flops - vec_flops
        lanes = ck.simd_bits_used // (k.element_bytes * 8)
        vec_fpc = core.flops_per_cycle(
            k.fma_fraction, vector=True, lanes=max(1, lanes)
        ) * fill
        scalar_fpc = core.flops_per_cycle(k.fma_fraction, vector=False) * fill
        t_compute_cycles = vec_flops / vec_fpc + scalar_flops / scalar_fpc
    if k.int_ops > 0:
        # Byte-SIMD integer loops gain lanes, but at modest real-world
        # efficiency (predication, packing overheads): ~40% of the lane
        # count materializes, which matches the 2-3x compiler-tuning gains
        # the paper reports for the integer-heavy miniapps.
        int_lanes = (max(1.0, core.simd_lanes_fp64 * 0.4)
                     if ck.int_vectorized else 1.0)
        int_per_cycle = core.scalar_ipc * int_lanes
        # Integer and FP work issue on different ports: partial overlap.
        t_compute_cycles = max(t_compute_cycles, k.int_ops / int_per_cycle)
    t_compute = t_compute_cycles / core.freq_hz

    # ------------------------------------------------------------------
    # data-movement throughput per level
    # ------------------------------------------------------------------
    t_l1 = traffic.l1_bytes / (core.l1d_bytes_per_cycle * core.freq_hz)
    t_l2 = traffic.l2_bytes / l2_bandwidth_share
    # Streaming DRAM traffic without hardware/software prefetch exposes
    # latency; model as a bandwidth derating.
    prefetch_derate = 0.6 + 0.4 * ck.prefetch_quality
    t_dram = traffic.dram_bytes / (mem_bandwidth_share * prefetch_derate)

    # ------------------------------------------------------------------
    # gather latency exposure (not overlappable by prefetch)
    # ------------------------------------------------------------------
    t_latency = 0.0
    if k.contiguous_fraction < 1.0 and k.bytes_load > 0:
        gathers = (k.bytes_load / 8.0) * (1.0 - k.contiguous_fraction)
        # Only the gathers that miss L1 expose latency; of those, the L2
        # miss fraction pays memory latency, the rest pays L2 latency.
        exposed = gathers * traffic.l1_miss_fraction
        avg_latency = (
            traffic.l2_miss_fraction * mem_latency_s
            + (1.0 - traffic.l2_miss_fraction) * l2.latency_cycles / core.freq_hz
        )
        # Outstanding-miss parallelism plus partial overlap with the
        # throughput-bound stream hide most of the exposure.
        mlp = max(4.0, core.ooo_window / 8.0)
        overlap = 0.5
        t_latency = exposed * avg_latency * overlap / mlp

    per_iter = {
        "compute": t_compute,
        "l1": t_l1,
        "l2": t_l2,
        "dram": t_dram,
    }
    bound = max(per_iter, key=per_iter.__getitem__)
    t_iter = per_iter[bound] + t_latency
    if t_latency > per_iter[bound]:
        bound = "latency"

    components = {name: v * iters for name, v in per_iter.items()}
    components["latency"] = t_latency * iters
    return PhaseTiming(
        seconds=t_iter * iters,
        bound=bound,
        components=components,
        flops=k.flops * iters,
        dram_bytes=traffic.dram_bytes * iters,
        l1_bytes=traffic.l1_bytes * iters,
        l2_bytes=traffic.l2_bytes * iters,
        iters=iters,
    )
