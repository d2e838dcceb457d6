"""Reference rows: the bit-exact values every benchmark pass is checked
against.

``reference.tsv`` holds one line per config of the workload universes
(:func:`workloads.event_universe` and :func:`workloads.analytic_universe`)::

    <engine> <label> <data policy> \t elapsed \t gflops \t dram \t comm

with the four row values as ``float.hex``.  It was produced by a direct
``run_sweep`` with no cache and telemetry off.

Regenerate it only in a change that means to change the model's
numbers, and say so in CHANGES.md::

    python3 perfbench/reference.py --write
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.tsv"

FIELDS = ("elapsed", "gflops", "dram_gbytes_per_s", "comm_fraction")


def key(engine: str, config) -> str:
    return f"{engine} {config.label()} {config.data_policy}"


def row_values(row) -> tuple[str, ...]:
    return tuple(float(getattr(row, f)).hex() for f in FIELDS)


def load(path: Path = REFERENCE) -> dict[str, tuple[str, ...]]:
    table: dict[str, tuple[str, ...]] = {}
    for line in path.read_text().splitlines():
        name, *values = line.split("\t")
        table[name] = tuple(values)
    return table


def mismatch(table: dict, engine: str, config, row) -> str | None:
    """Why ``row`` differs from the reference, or ``None`` if it is
    bit-identical."""
    expected = table.get(key(engine, config))
    if expected is None:
        return f"{key(engine, config)}: no reference row"
    got = row_values(row)
    for field, want, have in zip(FIELDS, expected, got):
        if want != have:
            return f"{key(engine, config)}: {field} {have} != {want}"
    return None


def _write() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    os.environ["REPRO_TELEMETRY"] = "off"
    from repro.core.runner import run_sweep
    import workloads

    lines = []
    for engine, universe, workers in (
            ("event", workloads.event_universe(), 2),
            ("analytic", workloads.analytic_universe(), 1)):
        sweep = run_sweep(f"reference-{engine}", universe, None,
                          workers=workers, engine=engine, errors="capture")
        if sweep.errors:
            print(f"{len(sweep.errors)} {engine} configs failed: "
                  f"{sweep.errors[0]}", file=sys.stderr)
            return 1
        for row in sweep.rows:
            lines.append("\t".join((key(engine, row.config),
                                    *row_values(row))))
    REFERENCE.write_text("\n".join(sorted(lines)) + "\n")
    print(f"wrote {len(lines)} rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="recompute every reference row")
    parser.parse_args()
    sys.exit(_write())
