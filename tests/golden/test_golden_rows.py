"""Behaviour lock for the timing model: bit-exact rows.

``rows.jsonl`` holds one line per (engine, config) of :func:`corpus_configs`
— every suite app on every catalog machine in three shapes — with the
four row values as ``float.hex``, computed by ``run_config`` with no
result cache.  After the event and analytic rows come one line per
config with the analytic :func:`config_breakdown` of each compute group:
its ``bound`` and the ``float.hex`` of ``iter_s`` and ``seconds``.

The shapes per machine:

* compact hybrid — one rank per NUMA domain, one thread per core;
* wrap-around stride — stride-4 threads with cyclic allocation, where
  a rank's thread list wraps past the end of the node, so its
  first-appearance domain order differs from sorted order (A64FX
  3x16 stride-4 cyclic);
* serial-init — one rank on every core, so threads away from the home
  domain stream remotely (on Xeon-Skylake and ThunderX2 across chips).

The test recomputes every line and demands exact equality.  Regenerate
the corpus only in a change that means to change the model's numbers,
and say why in CHANGES.md::

    PYTHONPATH=src python tests/golden/test_golden_rows.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analytic.engine import config_breakdown
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.miniapps import SUITE
from repro.runtime.affinity import ProcessAllocation, ThreadBinding

CORPUS = Path(__file__).with_name("rows.jsonl")

FIELDS = ("elapsed", "gflops", "dram_gbytes_per_s", "comm_fraction")

COMPACT = ThreadBinding()
STRIDE4 = ThreadBinding("stride", 4)
BLOCK = ProcessAllocation()
CYCLIC = ProcessAllocation("cyclic")

#: machine -> (compact hybrid, wrap-around stride, serial-init) shapes
#: as (ranks, threads).
SHAPES = {
    "A64FX": ((4, 12), (3, 16), (1, 48)),
    "A64FX-FX700": ((4, 12), (3, 16), (1, 48)),
    "Xeon-Skylake": ((2, 20), (2, 20), (1, 40)),
    "ThunderX2": ((2, 28), (2, 28), (1, 56)),
    "SPARC64-VIIIfx": ((2, 4), (2, 4), (1, 8)),
}


def corpus_configs() -> list[ExperimentConfig]:
    out: list[ExperimentConfig] = []
    for machine, (hybrid, stride, serial) in SHAPES.items():
        for app in sorted(SUITE):
            out.append(ExperimentConfig(
                app=app, processor=machine, n_ranks=hybrid[0],
                n_threads=hybrid[1]))
            out.append(ExperimentConfig(
                app=app, processor=machine, n_ranks=stride[0],
                n_threads=stride[1], binding=STRIDE4, allocation=CYCLIC))
            out.append(ExperimentConfig(
                app=app, processor=machine, n_ranks=serial[0],
                n_threads=serial[1], data_policy="serial-init"))
    return out


def _name(config: ExperimentConfig) -> str:
    return f"{config.label()} {config.data_policy}"


def corpus_lines() -> list[dict]:
    configs = corpus_configs()
    out = []
    for engine in ("event", "analytic"):
        for config in configs:
            row = run_config(config, None, engine=engine)
            out.append({"engine": engine, "config": _name(config),
                        **{f: float(getattr(row, f)).hex() for f in FIELDS}})
    for config in configs:
        out.append({"engine": "breakdown", "config": _name(config),
                    "groups": [[g.kernel, g.bound, g.iter_s.hex(),
                                g.seconds.hex()]
                               for g in config_breakdown(config).groups]})
    return out


def test_rows_match_golden_corpus():
    expected = [json.loads(line)
                for line in CORPUS.read_text().splitlines() if line]
    actual = corpus_lines()
    assert [(r["engine"], r["config"]) for r in actual] == \
        [(r["engine"], r["config"]) for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, f"{got['engine']} {got['config']}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_rows.py --write")
    with CORPUS.open("w") as fh:
        for line in corpus_lines():
            fh.write(json.dumps(line) + "\n")
