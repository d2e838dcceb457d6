"""Batched closed-form scoring of sweep configurations.

Instead of replaying rank programs event by event, the analytic engine
scores a whole batch of configurations in one NumPy array pass:

1. every config is *compiled to entries* — one entry per (rank class,
   compute group, thread context), carrying the per-iteration resource
   times the ECM model (:func:`repro.kernels.timing.phase_time`) assigns
   on that context's NUMA domain;
2. a single vectorized pass applies the roofline
   ``T_iter = max(T_compute, T_L1, T_L2, T_DRAM) + T_gather_latency``
   across all entries of all configs at once;
3. per-group worst-context folds, the analytic communication terms
   (LogGP collectives via :func:`repro.runtime.collectives.collective_time`,
   point-to-point waits via :meth:`Cluster.transfer_time`), and the
   storage model produce the same :class:`~repro.core.runner.Row` fields
   the event executor emits.

Both engines take per-context shares, working sets and region
overheads from one kernel (:func:`repro.runtime.openmp.region_contexts`,
:func:`~repro.runtime.openmp.region_overhead`) and per-iteration
constants from the event engine's own ``phase_time``.  Each keeps its
own iteration arithmetic (``max_thread_iters(op.iters)`` there,
``max_thread_iters(1.0) * iters`` here, which round differently) and its
own tie order between equal-time contexts (see :func:`_compile_config`).
What the analytic engine drops is event-level dynamics — fault
injection, message protocol stalls (NIC serialization, torus
contention, eager/rendezvous), arrival skew at synchronization points,
and storage contention between ranks.  Those need ``engine="event"``
(see DESIGN.md).

Determinism: scoring is pure float arithmetic over deterministically
ordered profiles, so repeated runs are bit-identical.

Assumes homogeneous nodes (every NUMA domain identical), which the
placement layer already enforces and every cataloged cluster satisfies:
per-iteration constants are evaluated once on domain (0, 0) and reused
for every context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from repro import telemetry
from repro.analytic.profile import AppProfile, RankClass
from repro.compile.compiler import CompiledKernel, Compiler
from repro.compile.options import PRESETS
from repro.core.experiment import ExperimentConfig
from repro.core.runner import Row
from repro.errors import ConfigurationError, EngineDisagreement, SimulationError
from repro.kernels.timing import phase_time
from repro.machine import catalog
from repro.machine.topology import Cluster
from repro.miniapps import by_name
from repro.runtime import program as ops
from repro.runtime.collectives import collective_time, profile_communicator
from repro.runtime.openmp import (max_thread_iters, region_contexts,
                                  region_overhead)
from repro.runtime.placement import JobPlacement

#: Engine names accepted by ``run_config`` / ``run_sweep`` / the CLI.
ENGINES = ("event", "analytic", "auto")

#: Agreement tolerances of the seeded sim-vs-analytic cross-validation.
#: The analytic model's largest divergence is synchronization skew it
#: cannot see (ranks arriving at collectives/waits at different times).
#: Calibrated 2026-08 over every processor x every miniapp plus
#: serial-init, stride/scatter bindings, multi-node allocations, and
#: compiler presets: worst observed deviation 1.8% on elapsed/gflops
#: (ffvc/large on 2 nodes, cyclic allocation).  10% leaves ~5x headroom
#: while still catching real model drift (see DESIGN.md).
ELAPSED_RTOL = 0.10
GFLOPS_RTOL = 0.10

#: Configs the ``auto`` engine re-simulates per sweep.
AUTO_SAMPLE_SIZE = 3

_COLLECTIVE_CLASSES = {cls.__name__.lower(): cls
                       for cls in ops.COLLECTIVE_OPS}


def check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    return engine


# ----------------------------------------------------------------------
# memoized model inputs (all keyed on hashable config fields)
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _cluster(processor: str, n_nodes: int) -> Cluster:
    return catalog.by_name(processor, n_nodes=n_nodes)


@lru_cache(maxsize=1024)
def _placement(processor: str, n_nodes: int, n_ranks: int, n_threads: int,
               allocation: str, binding: str) -> JobPlacement:
    return JobPlacement(_cluster(processor, n_nodes), n_ranks, n_threads,
                        allocation=allocation, binding=binding)


@lru_cache(maxsize=256)
def _compiled(app: str, dataset: str, preset: str,
              processor: str) -> dict[str, CompiledKernel]:
    """Compiled kernel set, lowered for the executor's compile target."""
    cluster = _cluster(processor, 1)
    app_obj = by_name(app)
    ds = app_obj.dataset(dataset)
    core = cluster.node.chips[0].domains[0].core
    return Compiler(PRESETS[preset]).compile_many(app_obj.kernels(ds), core)


@lru_cache(maxsize=512)
def _profile(app: str, dataset: str, n_ranks: int) -> AppProfile:
    app_obj = by_name(app)
    return app_obj.analytic_profile(app_obj.dataset(dataset), n_ranks)


@lru_cache(maxsize=256)
def _communicator_ranks(app: str,
                        n_ranks: int) -> dict[str, tuple[int, ...]]:
    members = {"world": tuple(range(n_ranks))}
    extra = by_name(app).communicators(n_ranks)
    if extra:
        members.update(extra)
    return members


@lru_cache(maxsize=8192)
def _phase_consts(app: str, dataset: str, preset: str, processor: str,
                  kernel: str, ws_scale: float
                  ) -> tuple[float, float, float, float, float,
                             float, float]:
    """Per-iteration ECM constants of one kernel on one processor.

    Returned as ``(t_compute, t_l1, l2_num, dram_num, t_latency,
    dram_bytes, flops)`` where the context-dependent terms divide the
    numerators by the context's bandwidth share:
    ``t_l2 = l2_num / l2_share`` and ``t_dram = dram_num / mem_share``.
    Produced by the event engine's own ``phase_time`` at unit iteration
    count and unit shares, so the arithmetic cannot drift between
    engines.
    """
    try:
        ck = _compiled(app, dataset, preset, processor)[kernel]
    except KeyError:
        raise SimulationError(
            f"{app}/{dataset} references unregistered kernel {kernel!r}"
        ) from None
    dom = _cluster(processor, 1).node.chips[0].domains[0]
    pt = phase_time(
        ck, 1.0, dom.core, dom.l1d, dom.l2,
        mem_bandwidth_share=1.0, l2_bandwidth_share=1.0,
        mem_latency_s=dom.memory.latency_s,
        working_set_scale=ws_scale,
    )
    c = pt.components
    return (c["compute"], c["l1"], c["l2"], c["dram"], c["latency"],
            pt.dram_bytes, pt.flops)


def clear_memos() -> None:
    """Drop every engine memo (tests monkeypatching the catalog use this)."""
    for fn in (_cluster, _placement, _compiled, _profile,
               _communicator_ranks, _phase_consts):
        fn.cache_clear()


# ----------------------------------------------------------------------
# per-config compilation to struct-of-arrays entries
# ----------------------------------------------------------------------
@dataclass
class _Group:
    """One compute group awaiting the batch pass (entry slice + scalars)."""

    start: int
    end: int
    max_iters: float        # critical-thread iterations, all regions
    iters: float            # total iterations (work accounting)
    overhead_s: float       # fork/join + chunk overhead, all regions
    flops_per_iter: float
    class_idx: int
    kernel: str             # kernel name (advisor attribution)
    schedule: str           # OpenMP schedule of the parallel region
    serial: bool            # single-thread region
    regions: int            # parallel regions per group execution


@dataclass
class _Compiled:
    """One config compiled to entries, plus its per-class scalar terms."""

    config: ExperimentConfig
    groups: list[_Group]
    class_ranks: list[int]          # ranks per class
    class_rep_ranks: list[int]      # representative rank per class
    class_comm_s: list[float]       # collective + p2p seconds per class
    class_other_s: list[float]      # sleep + file I/O seconds per class
    class_comm_items: list[tuple[tuple[str, float], ...]]


def _class_comm_items(cluster: Cluster, placement: JobPlacement,
                      profile: AppProfile, cls: RankClass,
                      comm_ranks: dict[str, tuple[int, ...]],
                      comm_profiles: dict[str, Any],
                      ) -> list[tuple[str, float]]:
    """Itemized collective + p2p wait time of one rank class.

    Returns ``(label, seconds)`` pairs — one per collective group and one
    per exchange — whose sum is the class's communication term.  The
    itemization feeds :func:`config_breakdown` (and through it the
    advisor's collective-domination rule); :func:`_compile_config` sums
    it, so the scoring pass and the breakdown share one arithmetic.
    """
    items: list[tuple[str, float]] = []
    rep_addr = placement.thread_cores(cls.rep_rank)[0]
    for g in cls.collectives:
        try:
            members = comm_ranks[g.comm]
        except KeyError:
            raise SimulationError(
                f"profile references unknown communicator {g.comm!r}"
            ) from None
        prof = comm_profiles.get(g.comm)
        if prof is None:
            addrs = tuple(placement.thread_cores(r)[0] for r in members)
            prof = profile_communicator(cluster, addrs)
            comm_profiles[g.comm] = prof
        try:
            op_cls = _COLLECTIVE_CLASSES[g.kind]
        except KeyError:
            raise SimulationError(
                f"no analytic model for collective {g.kind!r}"
            ) from None
        items.append((
            f"{g.kind}[{g.comm}] x{g.count} @{g.size_bytes}B",
            g.count * collective_time(
                op_cls(size_bytes=g.size_bytes), len(members), prof),
        ))
    n = profile.n_ranks
    for ex in cls.exchanges:
        if ex.overlapped:
            continue    # wait hidden under the interleaved compute
        wait = 0.0
        for offset, nbytes in ex.partners:
            dst_addr = placement.thread_cores(
                (cls.rep_rank + offset) % n)[0]
            wait = max(wait,
                       cluster.transfer_time(rep_addr, dst_addr, nbytes))
        items.append((
            f"p2p exchange x{ex.count} ({len(ex.partners)} partners)",
            ex.count * wait,
        ))
    return items


def _compile_config(config: ExperimentConfig,
                    columns: list[list[float]]) -> _Compiled:
    """Turn one config into batch entries appended onto ``columns``."""
    cluster = _cluster(config.processor, config.n_nodes)
    placement = _placement(config.processor, config.n_nodes,
                           config.n_ranks, config.n_threads,
                           config.allocation, config.binding)
    profile = _profile(config.app, config.dataset, config.n_ranks)
    comm_ranks = _communicator_ranks(config.app, config.n_ranks)
    census = placement.threads_per_domain
    key = (config.app, config.dataset, config.options_preset,
           config.processor)

    groups: list[_Group] = []
    class_ranks: list[int] = []
    class_rep_ranks: list[int] = []
    class_comm: list[float] = []
    class_other: list[float] = []
    class_comm_items: list[tuple[tuple[str, float], ...]] = []
    comm_profiles: dict[str, Any] = {}
    storage = cluster.storage

    for class_idx, cls in enumerate(profile.classes):
        addrs = placement.thread_cores(cls.rep_rank)
        home_key = placement.home_domain(cls.rep_rank)

        for g in cls.compute:
            use_addrs = addrs[:1] if g.serial else addrs
            n_threads = len(use_addrs)
            unit_max = max_thread_iters(1.0, n_threads, g.schedule,
                                        g.imbalance)
            contexts = region_contexts(use_addrs, cluster, census, home_key,
                                       config.data_policy,
                                       g.working_set_scale)
            per_region = region_overhead(n_threads, len(contexts),
                                         g.schedule, g.serial)

            start = len(columns[0])
            # Sorted domain order, not the event engine's first
            # appearance: the batch pass keeps the first of equal-time
            # contexts, which sets the group's DRAM volume, and the two
            # orders differ for wrap-around strides (A64FX 3x16 stride-4
            # cyclic), so switching would change analytic rows.
            for ctx in sorted(contexts, key=lambda c: c.key):
                consts = _phase_consts(*key, g.kernel, ctx.working_set_scale)
                for col, v in zip(columns, consts[:6] + (ctx.l2_share,
                                                         ctx.mem_share)):
                    col.append(v)
            groups.append(_Group(
                start=start, end=len(columns[0]),
                max_iters=unit_max * g.iters, iters=g.iters,
                overhead_s=per_region * g.regions,
                flops_per_iter=consts[6],
                class_idx=class_idx,
                kernel=g.kernel, schedule=g.schedule, serial=g.serial,
                regions=g.regions,
            ))

        class_ranks.append(cls.n_ranks)
        class_rep_ranks.append(cls.rep_rank)
        items = _class_comm_items(
            cluster, placement, profile, cls, comm_ranks, comm_profiles)
        class_comm_items.append(tuple(items))
        class_comm.append(sum(s for _, s in items))
        io_ops = cls.file_reads + cls.file_writes
        io_bytes = cls.file_read_bytes + cls.file_write_bytes
        class_other.append(
            cls.sleep_s
            + io_ops * storage.open_latency_s
            + io_bytes / storage.per_node_bandwidth
        )

    return _Compiled(config=config, groups=groups, class_ranks=class_ranks,
                     class_rep_ranks=class_rep_ranks,
                     class_comm_s=class_comm, class_other_s=class_other,
                     class_comm_items=class_comm_items)


# ----------------------------------------------------------------------
# the batch pass
# ----------------------------------------------------------------------
def score_configs(configs: list[ExperimentConfig]
                  ) -> list[Row | Exception]:
    """Score a batch of configs; returns a Row or Exception per config.

    Entries from every config share one vectorized roofline pass;
    exceptions (bad decompositions, unknown kernels, placement errors)
    are captured per config so one broken point cannot sink a batch —
    callers decide whether to raise or record them.
    """
    with telemetry.span("score.analytic.batch", configs=len(configs)):
        return _score_configs_batch(configs)


#: Entry columns: ``_phase_consts[:6]``, then l2_share and mem_share.
_N_COLUMNS = 8


def _roofline(columns: list[list[float]]
              ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Per-phase seconds/iteration, ``T_iter`` and DRAM bytes/iteration
    of every entry: the one roofline pass."""
    t_comp, t_l1, l2_num, dram_num, t_lat, dram_it, l2_share, mem_share = (
        np.asarray(c, dtype=float) for c in columns)
    t_l2 = l2_num / l2_share
    t_dram = dram_num / mem_share
    t_iter = np.maximum(np.maximum(t_comp, t_l1),
                        np.maximum(t_l2, t_dram)) + t_lat
    phases = {"compute": t_comp, "l1": t_l1, "l2": t_l2, "dram": t_dram,
              "latency": t_lat}
    return phases, t_iter, dram_it


def _critical(comp: _Compiled, t_iter: np.ndarray
              ) -> Iterator[tuple[_Group, int, float, float]]:
    """``(group, entry, iter_s, seconds)`` of each group's critical
    (first slowest) context; seconds include the region overhead."""
    for g in comp.groups:
        j = g.start + int(np.argmax(t_iter[g.start:g.end]))
        iter_s = float(t_iter[j])
        yield g, j, iter_s, iter_s * g.max_iters + g.overhead_s


def _score_configs_batch(configs: list[ExperimentConfig]
                         ) -> list[Row | Exception]:
    results: list[Any] = [None] * len(configs)
    compiled: list[tuple[int, _Compiled]] = []
    columns: list[list[float]] = [[] for _ in range(_N_COLUMNS)]
    for i, config in enumerate(configs):
        mark = len(columns[0])
        try:
            compiled.append((i, _compile_config(config, columns)))
        except Exception as exc:  # noqa: BLE001 - per-config error capture
            results[i] = exc
            # discard any partial entries this config appended
            for col in columns:
                del col[mark:]

    if compiled:
        t_iter, dram_it = _roofline(columns)[1:]

    for i, comp in compiled:
        n_classes = len(comp.class_ranks)
        compute_s = [0.0] * n_classes
        flops_c = [0.0] * n_classes
        dram_c = [0.0] * n_classes
        for g, j, _, seconds in _critical(comp, t_iter):
            compute_s[g.class_idx] += seconds
            # work accounting mirrors the event engine: DRAM volume of
            # the critical context, FLOPs of the full iteration count
            dram_c[g.class_idx] += float(dram_it[j]) * g.iters
            flops_c[g.class_idx] += g.flops_per_iter * g.iters

        totals = [compute_s[c] + comp.class_comm_s[c] + comp.class_other_s[c]
                  for c in range(n_classes)]
        elapsed = max(totals, default=0.0)
        total_flops = sum(r * f for r, f in zip(comp.class_ranks, flops_c))
        total_dram = sum(r * d for r, d in zip(comp.class_ranks, dram_c))
        comm_mean = sum(r * s for r, s in
                        zip(comp.class_ranks, comp.class_comm_s)) \
            / comp.config.n_ranks
        results[i] = Row(
            config=comp.config,
            elapsed=elapsed,
            gflops=(total_flops / elapsed / 1e9) if elapsed > 0 else 0.0,
            dram_gbytes_per_s=(total_dram / elapsed / 1e9)
            if elapsed > 0 else 0.0,
            comm_fraction=min(1.0, comm_mean / elapsed)
            if elapsed > 0 else 0.0,
            engine="analytic",
        )
    return results


def score_config(config: ExperimentConfig) -> Row:
    """Score one config analytically; raises on failure."""
    out = score_configs([config])[0]
    if isinstance(out, Exception):
        raise out
    return out


# ----------------------------------------------------------------------
# itemized cost breakdown (the static advisor's data source)
# ----------------------------------------------------------------------
#: ECM pipeline phases of the roofline max (latency is additive on top).
ECM_PHASES = ("compute", "l1", "l2", "dram")


@dataclass(frozen=True)
class GroupCost:
    """Closed-form cost of one compute group on its critical context."""

    class_idx: int
    kernel: str
    schedule: str
    serial: bool
    iters: float            # total iterations across threads
    regions: int            # parallel regions per group execution
    contexts: int           # distinct NUMA domains the threads span
    seconds: float          # worst-context time incl. fork/join overhead
    overhead_s: float       # fork/join + chunk overhead share of seconds
    iter_s: float           # critical-context seconds per iteration
    bound: str              # dominant phase: compute|l1|l2|dram|latency
    per_iter: dict[str, float]  # phase -> critical-context seconds/iter

    @property
    def memory_bound(self) -> bool:
        """Off-core bound (same cut as counter rooflines)."""
        return self.bound in ("l2", "dram", "latency")


@dataclass(frozen=True)
class ClassCost:
    """Per-step time of one rank equivalence class, itemized."""

    class_idx: int
    rep_rank: int
    n_ranks: int
    compute_s: float
    comm_s: float
    other_s: float          # sleep + file I/O
    comm_items: tuple[tuple[str, float], ...]

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.other_s


@dataclass(frozen=True)
class ConfigBreakdown:
    """Itemized closed-form cost model of one configuration.

    The same entries the batch scorer folds into a single
    :class:`~repro.core.runner.Row`, kept apart: per-group ECM phase
    times on the critical thread context, per-class communication items,
    and the class totals whose max is the elapsed time.  This is what
    the static advisor (:mod:`repro.analysis.advisor`) reasons over —
    by construction every number it cites is the scoring engine's own.
    """

    config: ExperimentConfig
    classes: tuple[ClassCost, ...]
    groups: tuple[GroupCost, ...]
    elapsed: float

    def class_groups(self, class_idx: int) -> list[GroupCost]:
        return [g for g in self.groups if g.class_idx == class_idx]


def config_breakdown(config: ExperimentConfig) -> ConfigBreakdown:
    """Compile one config and keep the per-group/per-class terms apart.

    Raises the same exceptions as :func:`score_config` (placement,
    decomposition, unknown-kernel errors); never runs the event
    executor.
    """
    columns: list[list[float]] = [[] for _ in range(_N_COLUMNS)]
    comp = _compile_config(config, columns)
    phases, t_iter, _ = _roofline(columns)

    n_classes = len(comp.class_ranks)
    compute_s = [0.0] * n_classes
    groups: list[GroupCost] = []
    for g, j, iter_s, seconds in _critical(comp, t_iter):
        per_iter = {phase: float(v[j]) for phase, v in phases.items()}
        bound = max(ECM_PHASES, key=per_iter.__getitem__)
        if per_iter["latency"] > per_iter[bound]:
            bound = "latency"
        compute_s[g.class_idx] += seconds
        groups.append(GroupCost(
            class_idx=g.class_idx, kernel=g.kernel, schedule=g.schedule,
            serial=g.serial, iters=g.iters, regions=g.regions,
            contexts=g.end - g.start, seconds=seconds,
            overhead_s=g.overhead_s, iter_s=iter_s, bound=bound,
            per_iter=per_iter,
        ))

    classes = tuple(
        ClassCost(class_idx=c, rep_rank=comp.class_rep_ranks[c],
                  n_ranks=comp.class_ranks[c], compute_s=compute_s[c],
                  comm_s=comp.class_comm_s[c],
                  other_s=comp.class_other_s[c],
                  comm_items=comp.class_comm_items[c])
        for c in range(n_classes)
    )
    elapsed = max((c.total_s for c in classes), default=0.0)
    return ConfigBreakdown(config=config, classes=classes,
                           groups=tuple(groups), elapsed=elapsed)


# ----------------------------------------------------------------------
# sim-vs-analytic cross-validation (the ``auto`` engine's gate)
# ----------------------------------------------------------------------
def validation_sample(name: str, n: int,
                      sample_size: int = AUTO_SAMPLE_SIZE) -> list[int]:
    """Deterministic config indices to re-simulate for a named sweep.

    Seeding ``random.Random`` with a string hashes it through SHA-512,
    so the sample is stable across processes and Python versions.
    """
    if n <= 0:
        return []
    rng = random.Random(f"repro-auto:{name}:{n}")
    return sorted(rng.sample(range(n), min(sample_size, n)))


def check_agreement(config: ExperimentConfig, analytic: Row,
                    event: Row) -> None:
    """Raise :class:`EngineDisagreement` if the rows differ beyond
    tolerance on ``elapsed`` or ``gflops``."""
    for attr, tol in (("elapsed", ELAPSED_RTOL), ("gflops", GFLOPS_RTOL)):
        a = getattr(analytic, attr)
        e = getattr(event, attr)
        rel = abs(a - e) / max(abs(e), 1e-30)
        if rel > tol:
            raise EngineDisagreement(
                f"engines disagree on {attr} for {config.label()}: "
                f"analytic {a:.6g} vs event {e:.6g} "
                f"({rel:.1%} > {tol:.0%} tolerance)",
                config=config, analytic=analytic, event=event,
            )


def cross_validate(name: str, configs: list[ExperimentConfig],
                   analytic_rows: list[Row | Exception], cache: Any = None,
                   *, sample_size: int = AUTO_SAMPLE_SIZE
                   ) -> list[tuple[ExperimentConfig, Row, Row]]:
    """Re-simulate a seeded sample with the event engine and compare.

    Returns the checked ``(config, analytic_row, event_row)`` triples;
    raises :class:`EngineDisagreement` on the first violation.  Event
    rows land in ``cache`` under their normal (event) keys, so the
    cross-check also warms the event cache.
    """
    from repro.core.runner import run_config

    checked = []
    for i in validation_sample(name, len(configs), sample_size):
        row_a = analytic_rows[i]
        if isinstance(row_a, Exception) or row_a is None:
            continue
        row_e = run_config(configs[i], cache, engine="event")
        check_agreement(configs[i], row_a, row_e)
        checked.append((configs[i], row_a, row_e))
    return checked
