"""Agreement, determinism, and guard-rail tests for the analytic engine.

The agreement sweep covers every catalog processor x every miniapp at a
small (2 ranks x 4 threads) placement: the batched closed-form scorer
must land within the calibrated tolerances of the discrete-event
executor on ``elapsed`` and ``gflops``.  (``comm_fraction`` is *not*
asserted — the analytic model books only algorithm-level communication
time, so its fraction legitimately diverges; see DESIGN.md.)
"""

import math

import pytest

from repro.analytic import (
    ELAPSED_RTOL,
    GFLOPS_RTOL,
    check_agreement,
    clear_memos,
    score_config,
    score_configs,
    validation_sample,
)
from repro.core.experiment import ExperimentConfig
from repro.core.runner import run_config
from repro.errors import ConfigurationError, EngineDisagreement
from repro.machine.catalog import PROCESSORS
from repro.miniapps import SUITE


def _cfg(app="ffvc", **kw):
    kw.setdefault("n_ranks", 2)
    kw.setdefault("n_threads", 4)
    kw.setdefault("options_preset", "as-is")
    return ExperimentConfig(app=app, **kw)


@pytest.mark.parametrize("processor", sorted(PROCESSORS))
@pytest.mark.parametrize("app_name", SUITE)
def test_agreement_every_machine_every_app(app_name, processor):
    config = _cfg(app_name, processor=processor)
    analytic = score_config(config)
    event = run_config(config, engine="event")
    assert analytic.engine == "analytic"
    assert event.engine == "event"
    assert math.isclose(analytic.elapsed, event.elapsed,
                        rel_tol=ELAPSED_RTOL), \
        f"elapsed {analytic.elapsed} vs {event.elapsed}"
    assert math.isclose(analytic.gflops, event.gflops,
                        rel_tol=GFLOPS_RTOL), \
        f"gflops {analytic.gflops} vs {event.gflops}"


@pytest.mark.parametrize("app_name", SUITE)
def test_bit_identical_across_runs(app_name):
    """Re-scoring after a full memo flush reproduces every field exactly."""
    config = _cfg(app_name)
    first = score_config(config)
    clear_memos()
    second = score_config(config)
    assert first == second  # dataclass equality: bit-identical floats


def test_batch_matches_single_scoring():
    configs = [_cfg("ffvc", n_ranks=nr, n_threads=nt)
               for nr, nt in ((1, 8), (2, 4), (4, 2))]
    batch = score_configs(configs)
    singles = [score_config(c) for c in configs]
    assert batch == singles


def test_score_configs_captures_per_config_errors():
    good = _cfg("ffvc")
    bad = _cfg("ffvc", n_ranks=48, n_threads=48)  # oversubscribes the node
    rows = score_configs([good, bad, good])
    assert rows[0] == rows[2]
    assert rows[0].engine == "analytic"
    assert isinstance(rows[1], ConfigurationError)


def test_check_agreement_raises_beyond_tolerance():
    config = _cfg("ffvc")
    row = score_config(config)
    check_agreement(config, row, row)  # identical rows always agree
    import dataclasses
    skewed = dataclasses.replace(row, elapsed=row.elapsed * 2.0)
    with pytest.raises(EngineDisagreement) as exc:
        check_agreement(config, row, skewed)
    assert "elapsed" in str(exc.value)


def test_validation_sample_deterministic():
    n = 30
    a = validation_sample("seeded", n, 5)
    b = validation_sample("seeded", n, 5)
    assert a == b
    assert len(a) == 5
    assert all(0 <= i < n for i in a)
    assert a == sorted(a)
    assert validation_sample("seeded", 3, 5) == [0, 1, 2]
    assert validation_sample("seeded", 0, 5) == []


def test_ties_break_in_sorted_domain_order():
    """Equal-time contexts of a group resolve to the lowest domain.

    ffvc A64FX 3x16 stride-4 cyclic wraps each rank's thread list around
    the node, so its first-appearance domain order is not sorted, and
    two contexts of a group tie on time but not on DRAM volume.  The
    batch pass keeps the first of equal-time contexts in sorted order;
    first-appearance order would give a different DRAM rate.
    """
    from repro.runtime.affinity import ProcessAllocation, ThreadBinding
    from repro.runtime.placement import JobPlacement

    config = ExperimentConfig(app="ffvc", n_ranks=3, n_threads=16,
                              binding=ThreadBinding("stride", 4),
                              allocation=ProcessAllocation("cyclic"),
                              options_preset="as-is")
    placement = JobPlacement(PROCESSORS["A64FX"](), 3, 16,
                             binding=config.binding,
                             allocation=config.allocation)
    orders = [list(dict.fromkeys((a.node, a.chip, a.domain)
                                 for a in placement.thread_cores(r)))
              for r in range(3)]
    assert any(order != sorted(order) for order in orders)
    row = score_config(config)
    assert row.dram_gbytes_per_s.hex() == "0x1.89fe27c4d2dadp+6"
