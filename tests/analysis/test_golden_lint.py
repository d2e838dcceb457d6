"""Behaviour lock for the static analyzer.

``golden_lint.jsonl`` holds one :meth:`DiagnosticReport.to_dict` per
line, computed with no lint cache, for:

* every suite app on A64FX over ``repro lint``'s default grid
  (``cli._LINT_GRID``) and over the three event-sweep placements
  (compact 4x12, compact 48x1, 12x4 stride-4 cyclic), through
  :func:`analyze_config`;
* a fixed set of seeded-bug programs (:data:`PROGRAM_CASES`), through
  :func:`analyze_program` / :func:`analyze_job`.

The test recomputes every report and demands exact equality.  Regenerate
the corpus only in a change that means to change a diagnostic, and say
why in CHANGES.md::

    PYTHONPATH=src python tests/analysis/test_golden_lint.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis import analyze_config, analyze_job, analyze_program
from repro.cli import _LINT_GRID
from repro.compile import PRESETS
from repro.core.experiment import ExperimentConfig
from repro.kernels import presets
from repro.machine import catalog
from repro.miniapps import SUITE
from repro.runtime import Job, JobPlacement
from repro.runtime.affinity import ProcessAllocation, ThreadBinding
from repro.runtime.program import (
    ANY_SOURCE,
    MAX_PORTABLE_TAG,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    IAllreduce,
    Irecv,
    Isend,
    Recv,
    Send,
    Sendrecv,
    WaitAll,
)

CORPUS = Path(__file__).with_name("golden_lint.jsonl")

EAGER_32K = 32 * 1024

#: The event-sweep placements: (ranks, threads, binding, allocation).
EVENT_SHAPES = (
    (4, 12, ThreadBinding(), ProcessAllocation()),
    (48, 1, ThreadBinding(), ProcessAllocation()),
    (12, 4, ThreadBinding("stride", 4), ProcessAllocation("cyclic")),
)


def corpus_configs() -> list[ExperimentConfig]:
    out: list[ExperimentConfig] = []
    for app in sorted(SUITE):
        for n_ranks, n_threads in _LINT_GRID:
            out.append(ExperimentConfig(app=app, n_ranks=n_ranks,
                                        n_threads=n_threads))
        for n_ranks, n_threads, binding, allocation in EVENT_SHAPES:
            config = ExperimentConfig(app=app, n_ranks=n_ranks,
                                      n_threads=n_threads, binding=binding,
                                      allocation=allocation)
            if config not in out:
                out.append(config)
    return out


# ----------------------------------------------------------------------
# seeded-bug programs
# ----------------------------------------------------------------------
def send_ring(size_bytes):
    def program(rank, size):
        yield Send(dst=(rank + 1) % size, tag=0, size_bytes=size_bytes)
        yield Recv(src=(rank - 1) % size, tag=0)
    return program


def unmatched_send(rank, size):
    if rank == 0:
        yield Isend(dst=1, tag=3, size_bytes=8)
    yield Barrier()


def unmatched_recv(rank, size):
    if rank == 1:
        yield Recv(src=0, tag=3)
    yield Recv(src=ANY_SOURCE, tag=5)


def wildcard_steal(rank, size):
    """Counts match, but the wildcard posted first takes rank 1's
    message, so the specific receive from rank 1 starves."""
    if rank == 0:
        yield Recv(src=ANY_SOURCE, tag=0)
        yield Recv(src=1, tag=0)
    else:
        yield Send(dst=0, tag=0, size_bytes=1 << 20)


def collective_type(rank, size):
    yield Barrier()
    yield Allreduce(size_bytes=8) if rank != 2 else Barrier()


def collective_root(rank, size):
    yield Bcast(size_bytes=8, root=rank % 2)
    yield Barrier()


def collective_count(rank, size):
    yield Allreduce(size_bytes=8)
    if rank != 0:
        yield Allreduce(size_bytes=8)


def collective_reentry(rank, size):
    r = yield IAllreduce(size_bytes=8)
    yield Allreduce(size_bytes=8)
    yield WaitAll([r])


def double_wait(rank, size):
    r = yield Irecv(src=(rank - 1) % size, tag=0)
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)
    yield WaitAll([r])
    yield WaitAll([r, "not a request"])


def unwaited_recv(rank, size):
    yield Irecv(src=(rank - 1) % size, tag=0)
    yield Isend(dst=(rank + 1) % size, tag=0, size_bytes=8)


def invalid_peer(rank, size):
    yield Isend(dst=rank, tag=0, size_bytes=8)
    yield Recv(src=size, tag=0)
    yield Sendrecv(dst=size + 1, send_tag=0, size_bytes=8, src=-7,
                   recv_tag=0)
    yield Barrier(comm="cmg")
    yield Bcast(size_bytes=8, root=size, comm="pair")


def tag_over_range(rank, size):
    tag = MAX_PORTABLE_TAG + 1
    if rank == 0:
        yield Send(dst=1, tag=tag, size_bytes=8)
    else:
        yield Recv(src=0, tag=tag)


def unknown_op(rank, size):
    yield Compute(kernel="k", iters=1)
    yield "flush caches"
    yield 42


def program_crash(rank, size):
    yield Compute(kernel="k", iters=10)
    if rank == 1:
        raise IndexError("neighbour table overrun")
    if rank == 2:
        yield Send(dst=0, tag=-5, size_bytes=8)
    yield Barrier()


def op_budget(rank, size):
    while True:
        r = yield Irecv(src=(rank - 1) % size, tag=1)
        yield Isend(dst=(rank + 1) % size, tag=1, size_bytes=8)
        yield WaitAll([r])
        yield Compute(kernel="k", iters=1)


def waitall_cycle(rank, size):
    """Both ranks wait before they send: a deadlock on WaitAll."""
    r = yield Irecv(src=1 - rank, tag=0)
    yield WaitAll([r])
    yield Send(dst=1 - rank, tag=0, size_bytes=1 << 20)


def barrier_vs_send(rank, size):
    if rank == 0:
        yield Barrier()
        yield Recv(src=1, tag=0)
    else:
        yield Send(dst=0, tag=0, size_bytes=1 << 20)
        yield Barrier()


def clean_halo(rank, size):
    for step in range(20):
        r = yield Irecv(src=(rank - 1) % size, tag=step)
        yield Isend(dst=(rank + 1) % size, tag=step, size_bytes=1 << 20)
        yield Compute(kernel="triad", iters=1000)
        yield WaitAll([r])
        q = yield IAllreduce(size_bytes=8)
        yield Sendrecv(dst=(rank + 1) % size, send_tag=99, size_bytes=64,
                       src=(rank - 1) % size, recv_tag=99)
        yield WaitAll([q])
        yield Allreduce(size_bytes=8 * (rank + 1))
        if rank < size // 2:
            yield Barrier(comm="half")


#: (subject, factory, n_ranks, keyword arguments of analyze_program)
PROGRAM_CASES = [
    ("send-ring-rendezvous", send_ring(1 << 20), 4,
     dict(eager_threshold=EAGER_32K)),
    ("send-ring-eager", send_ring(100), 4, dict(eager_threshold=EAGER_32K)),
    ("send-ring-strict", send_ring(100), 4, {}),
    ("unmatched-send", unmatched_send, 2, {}),
    ("unmatched-recv", unmatched_recv, 2, {}),
    ("wildcard-steal", wildcard_steal, 3, {}),
    ("collective-type", collective_type, 3, {}),
    ("collective-root", collective_root, 2, {}),
    ("collective-count", collective_count, 3, {}),
    ("collective-reentry", collective_reentry, 2, {}),
    ("double-wait", double_wait, 3, {}),
    ("unwaited-recv", unwaited_recv, 3, {}),
    ("invalid-peer", invalid_peer, 3,
     dict(communicators={"pair": (0, 1), "bad": (0, 0)})),
    ("tag-over-range", tag_over_range, 2, {}),
    ("unknown-op", unknown_op, 2, {}),
    ("program-crash", program_crash, 3, {}),
    ("op-budget", op_budget, 3, dict(max_ops=50)),
    ("waitall-cycle", waitall_cycle, 2, {}),
    ("barrier-vs-send", barrier_vs_send, 2, {}),
    ("clean-halo", clean_halo, 6, dict(communicators={"half": (0, 1, 2)})),
]


def _job(program, n_ranks, name):
    cluster = catalog.a64fx()
    return Job(cluster=cluster, placement=JobPlacement(cluster, n_ranks, 1),
               kernels={"triad": presets.stream_triad()}, program=program,
               options=PRESETS["kfast"], name=name)


def _kernel_typo(rank, size):
    yield Compute(kernel="triad", iters=10)
    yield Compute(kernel="dgemm", iters=10)
    yield Allreduce(size_bytes=8)


#: (name, factory, n_ranks) checked through analyze_job on A64FX.
JOB_CASES = [
    ("job-eager-ring", send_ring(64), 4),
    ("job-rendezvous-ring", send_ring(1 << 20), 4),
    ("job-kernel-typo", _kernel_typo, 2),
]


def corpus_reports() -> list[dict]:
    out = [analyze_config(config).to_dict() for config in corpus_configs()]
    for subject, factory, n_ranks, kw in PROGRAM_CASES:
        out.append(analyze_program(factory, n_ranks, subject=subject,
                                   **kw).to_dict())
    for name, factory, n_ranks in JOB_CASES:
        out.append(analyze_job(_job(factory, n_ranks, name)).to_dict())
    return out


def test_reports_match_golden_corpus():
    expected = [json.loads(line)
                for line in CORPUS.read_text().splitlines() if line]
    actual = corpus_reports()
    assert [r["subject"] for r in actual] == \
        [r["subject"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, got["subject"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_lint.py --write")
    with CORPUS.open("w") as fh:
        for report in corpus_reports():
            fh.write(json.dumps(report) + "\n")
