"""Seeded inputs of the benchmark: two timed workloads and the service
round.

Everything the program receives is generated here from ``--seed``: the
same seed always gives the same configs and job sequences.  The seed
varies values the model's numbers depend on (compiler presets of the
cheap configs, the configs each service job asks for, the order) but
keeps the amount of host work about the same.  A preset can
change an event config's host time by 30% (ffb), so a freely drawn preset
mix would make throughput depend on the seed; the heavy event-cold
configs are therefore the same for every seed.

Every config any seed can produce is drawn from a finite universe
(:func:`event_universe`, :func:`analytic_universe`), so the reference
rows in ``reference.tsv`` cover every seed.
"""

from __future__ import annotations

import random

from repro.core.experiment import ExperimentConfig, single_node_configs
from repro.machine import catalog
from repro.miniapps import SUITE
from repro.runtime.affinity import ProcessAllocation, ThreadBinding

APPS = tuple(sorted(SUITE))

#: Apps whose event simulation takes under ~0.1 s a config on A64FX.
LIGHT_APPS = ("modylas", "mvmc", "ngsa", "nicam-dc", "ntchem")

#: The light apps the service-mixed event jobs run (the issue's mix).
SERVICE_EVENT_APPS = ("mvmc", "ngsa", "nicam-dc", "ntchem")

PRESETS = ("as-is", "+simd", "+simd+sched", "tuned", "kfast")

#: The preset of each of :data:`EVENT_SHAPES` in event-cold.
EVENT_COLD_PRESETS = ("as-is", "+simd+sched", "kfast")

#: The presets of every service-mixed event (app, shape) cell.
SERVICE_EVENT_PRESETS = ("as-is", "tuned")

#: Presets of the analytic grid (a few, to keep the reference small).
GRID_PRESETS = ("as-is", "+simd", "kfast")

COMPACT = ThreadBinding()
STRIDE4 = ThreadBinding("stride", 4)
STRIDE2 = ThreadBinding("stride", 2)
BLOCK = ProcessAllocation()
CYCLIC = ProcessAllocation("cyclic")

#: The A64FX placements every app of event-cold runs:
#: (ranks, threads, binding, allocation).
EVENT_SHAPES = (
    (4, 12, COMPACT, BLOCK),
    (48, 1, COMPACT, BLOCK),
    (12, 4, STRIDE4, CYCLIC),
)

#: Binding x allocation pairs of the analytic grid; all are valid on
#: every catalog machine.
GRID_PLACEMENTS = (
    (COMPACT, BLOCK),
    (STRIDE4, CYCLIC),
    (STRIDE2, ProcessAllocation("domain-pack")),
    (COMPACT, ProcessAllocation("spread")),
)

#: Machines whose grid configs the service-mixed analytic jobs use.
SERVICE_MACHINES = ("A64FX", "A64FX-FX700")

#: Jobs each service client submits in one round.
JOBS_PER_CLIENT = 50

#: Analytic configs of each app a service round draws its jobs from.
SERVICE_ANALYTIC_PER_APP = 20


def _event_config(app: str, shape: tuple, preset: str,
                  data_policy: str = "first-touch") -> ExperimentConfig:
    ranks, threads, binding, allocation = shape
    return ExperimentConfig(app=app, n_ranks=ranks, n_threads=threads,
                            binding=binding, allocation=allocation,
                            options_preset=preset, data_policy=data_policy)


def event_universe() -> list[ExperimentConfig]:
    """Every event-engine config event-cold or service-mixed can run."""
    out = [_event_config(app, shape, preset)
           for app in APPS for shape in EVENT_SHAPES for preset in PRESETS]
    out += [_event_config(app, EVENT_SHAPES[0], preset, "serial-init")
            for app in LIGHT_APPS for preset in PRESETS]
    return out


def _grid_cells(machines=None) -> list[tuple[str, str, int, int]]:
    cells = []
    for app in APPS:
        for machine in sorted(catalog.PROCESSORS):
            if machines is not None and machine not in machines:
                continue
            cores = catalog.by_name(machine).cores_per_node
            for ranks, threads in single_node_configs(cores):
                cells.append((app, machine, ranks, threads))
    return cells


def _grid_config(cell, placement, preset: str) -> ExperimentConfig:
    app, machine, ranks, threads = cell
    binding, allocation = placement
    return ExperimentConfig(app=app, processor=machine, n_ranks=ranks,
                            n_threads=threads, binding=binding,
                            allocation=allocation, options_preset=preset)


def analytic_universe() -> list[ExperimentConfig]:
    """Every analytic-engine config analytic-grid or service-mixed can
    score."""
    return [_grid_config(cell, placement, preset)
            for cell in _grid_cells()
            for placement in GRID_PLACEMENTS
            for preset in GRID_PRESETS]


def event_cold(seed: int, tiny: bool = False) -> list[ExperimentConfig]:
    """The multi-app event mix: every app on the three A64FX shapes, each
    shape with its preset from :data:`EVENT_COLD_PRESETS`, plus
    serial-init configs of the light apps with seeded presets, in a
    seeded order."""
    rng = random.Random(f"event-cold/{seed}")
    apps = LIGHT_APPS[:2] if tiny else APPS
    configs = [_event_config(app, shape, preset) for app in apps
               for shape, preset in zip(EVENT_SHAPES, EVENT_COLD_PRESETS)]
    light = LIGHT_APPS[:1] if tiny else LIGHT_APPS
    configs += [_event_config(app, EVENT_SHAPES[0], rng.choice(PRESETS),
                              "serial-init") for app in light]
    rng.shuffle(configs)
    return configs


def analytic_grid(seed: int, tiny: bool = False) -> list[ExperimentConfig]:
    """8 apps x 5 machines x every factorization x every placement pair,
    one seeded preset per config, the presets in about equal numbers."""
    rng = random.Random(f"analytic-grid/{seed}")
    cells = _grid_cells()
    if tiny:
        cells = cells[:10]
    configs = []
    for cell in cells:
        # The presets rotate over a cell's placements from a seeded
        # start, so every seed scores about as many configs of each
        # preset.
        first = rng.randrange(len(GRID_PRESETS))
        configs += [_grid_config(cell, placement, GRID_PRESETS[
                        (first + i) % len(GRID_PRESETS)])
                    for i, placement in enumerate(GRID_PLACEMENTS)]
    rng.shuffle(configs)
    return configs


def service_jobs(seed: int, tiny: bool = False
                 ) -> list[list[tuple[str, list[ExperimentConfig]]]]:
    """Two clients' job sequences for one service round.

    Each job is ``(engine, configs)``.  Every third job is an event job
    with one config of each light app in :data:`SERVICE_EVENT_APPS`; the
    rest are analytic jobs with one config of each of the 8 apps.  Each
    config is drawn from a per-app pool: every shape and
    :data:`SERVICE_EVENT_PRESETS` preset of the app for event jobs, a
    seeded sample of :data:`SERVICE_ANALYTIC_PER_APP` grid configs on
    :data:`SERVICE_MACHINES` for analytic jobs.  Job ``j`` of the two
    clients shares the configs of half its apps, and both clients
    advance in step, so some rows dedup against the other client's
    in-flight work, some are cache hits and the rest execute fresh.
    The rounds of all seeds execute about the same pools, so their host
    work is about the same.
    """
    rng = random.Random(f"service-mixed/{seed}")
    analytic_pool = {
        app: rng.sample([_grid_config(cell, placement, preset)
                         for cell in _grid_cells(SERVICE_MACHINES)
                         if cell[0] == app
                         for placement in GRID_PLACEMENTS
                         for preset in GRID_PRESETS],
                        SERVICE_ANALYTIC_PER_APP)
        for app in APPS}
    event_pool = {app: [_event_config(app, shape, preset)
                        for shape in EVENT_SHAPES
                        for preset in SERVICE_EVENT_PRESETS]
                  for app in SERVICE_EVENT_APPS}
    n_jobs = 3 if tiny else JOBS_PER_CLIENT
    clients: list[list[tuple[str, list[ExperimentConfig]]]] = [[], []]
    for j in range(n_jobs):
        engine, pool = (("event", event_pool) if j % 3 == 2
                        else ("analytic", analytic_pool))
        apps = rng.sample(sorted(pool), len(pool))
        half = len(apps) // 2
        shared = [rng.choice(pool[app]) for app in apps[:half]]
        for jobs in clients:
            own = [rng.choice(pool[app]) for app in apps[half:]]
            jobs.append((engine, shared + own))
    return clients


#: Service warm-up configs (outside both universes): they spawn the
#: process pool during set-up so pool spawn is not charged to a job.
WARMUP = (
    ExperimentConfig(app="ntchem", dataset="large", n_ranks=2, n_threads=24),
    ExperimentConfig(app="mvmc", dataset="large", n_ranks=2, n_threads=24),
)
