"""Static structure checks over traced rank programs.

:func:`scan` walks every rank's :class:`~repro.analysis.trace.ProgramTrace`
once, dispatching on the op-kind codes the trace recorded, and runs every
structural check in that one walk.  Each check keeps its own list of
:class:`~repro.analysis.diagnostics.Diagnostic` records on the returned
:class:`Findings`:

* ``programs`` — per-rank replay failures, op-budget truncation, values
  the executor would reject outright;
* ``domains`` — rank/tag domain validity of every op (what the runtime
  raises ``CommunicatorError`` for, found before the run);
* ``requests`` — request-handle hygiene (waits on non-requests, double
  waits, receives never waited);
* ``p2p`` — send/receive count matching per (destination, tag) channel,
  honoring ``ANY_SOURCE`` wildcards;
* ``collectives`` — collective congruence: every member of a
  communicator must issue the same collective sequence (type and root);
* ``kernels`` — when the job's kernel names are given, the first
  ``Compute`` naming each unregistered kernel, lowest rank first.

:func:`check_programs`, :func:`check_domains`, :func:`check_requests`,
:func:`check_p2p_matching` and :func:`check_collectives` are views of one
list each.

Order-dependent problems (a cyclic rendezvous send, a wildcard receive
stealing another receive's message) are the symbolic scheduler's job —
see :mod:`repro.analysis.deadlock`.
"""

from __future__ import annotations

from typing import Any, Collection

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace import ProgramTrace, TracedRequest
from repro.runtime import program as ops

Traces = dict[int, ProgramTrace]

_COMPUTE = ops.KIND_COMPUTE
_UNKNOWN = ops.KIND_UNKNOWN
_FIRST_COMM = ops.KIND_SEND
_SENDS = (ops.KIND_SEND, ops.KIND_ISEND)
_RECVS = (ops.KIND_RECV, ops.KIND_IRECV)
_COLLECTIVES = (ops.KIND_COLLECTIVE, ops.KIND_ICOLLECTIVE)


class Findings:
    """The structural checks' diagnostics, one list per check."""

    __slots__ = ("programs", "domains", "requests", "p2p", "collectives",
                 "kernels")

    def __init__(self) -> None:
        self.programs: list[Diagnostic] = []
        self.domains: list[Diagnostic] = []
        self.requests: list[Diagnostic] = []
        self.p2p: list[Diagnostic] = []
        self.collectives: list[Diagnostic] = []
        self.kernels: list[Diagnostic] = []

    def structural(self) -> list[Diagnostic]:
        """Every finding but the kernel references, in report order."""
        return (self.programs + self.domains + self.requests + self.p2p
                + self.collectives)


def scan(traces: Traces, n_ranks: int,
         communicators: dict[str, tuple[int, ...]],
         known_kernels: Collection[str] | None = None) -> Findings:
    """Run every structural check in one walk over each rank's ops."""
    found = Findings()
    programs, domains = found.programs, found.domains
    max_tag = ops.MAX_PORTABLE_TAG
    any_source = ops.ANY_SOURCE

    def bad_peer(rank: int, index: int, op: Any, role: str,
                 peer: int) -> None:
        if peer == rank:
            msg = f"rank {rank} {role}s to itself"
            hint = ("guard the exchange for undecomposed axes "
                    "(skip when the neighbour is the rank itself)")
        else:
            msg = (f"rank {rank} {role}s to invalid rank {peer} "
                   f"(job has ranks 0..{n_ranks - 1})")
            hint = "fix the neighbour computation or the rank-grid mapping"
        domains.append(Diagnostic(
            check=f"p2p-invalid-{role}", severity="error",
            rank=rank, op_index=index, op=ops.describe_op(op),
            message=msg, hint=hint,
        ))

    def bad_tag(rank: int, index: int, op: Any, tag: int) -> None:
        domains.append(Diagnostic(
            check="p2p-tag-range", severity="warning",
            rank=rank, op_index=index, op=ops.describe_op(op),
            message=f"tag {tag} exceeds the portable MPI tag upper "
                    f"bound ({max_tag})",
            hint="derive tags from small per-phase constants",
        ))

    # point-to-point endpoints with a valid peer, keyed (dst, tag, src)
    # (wildcards: (dst, tag)) -> op indices; the posting rank is src for
    # sends and dst for receives
    sends: dict[tuple[Any, Any, int], list[int]] = {}
    specific: dict[tuple[int, Any, Any], list[int]] = {}
    wildcard: dict[tuple[int, Any], list[int]] = {}

    def send_end(rank: int, index: int, op: Any, dst: int, tag: int) -> None:
        if 0 <= dst < n_ranks and dst != rank:
            sends.setdefault((dst, tag, rank), []).append(index)
        else:
            bad_peer(rank, index, op, "send", dst)

    def recv_end(rank: int, index: int, op: Any, src: int, tag: int) -> None:
        if src == any_source:
            wildcard.setdefault((rank, tag), []).append(index)
        elif 0 <= src < n_ranks and src != rank:
            specific.setdefault((rank, tag, src), []).append(index)
        else:
            bad_peer(rank, index, op, "recv", src)

    # rank -> communicator name -> op indices of its collectives there
    coll_seqs: dict[int, dict[Any, list[int]]] = {}
    # kernel name -> (rank, op index) of the first Compute naming it
    first_kernel: dict[str, tuple[int, int]] = {}

    for trace in traces.values():
        rank, raw, kinds = trace.rank, trace.raw, trace.kinds
        if trace.failure is not None:
            programs.append(trace.failure)
        if trace.truncated:
            programs.append(Diagnostic(
                check="program-budget", severity="warning",
                rank=rank, op_index=len(raw),
                message=f"rank {rank} exceeded the analyzer's op "
                        f"budget ({len(raw)} ops traced); checks "
                        f"cover the traced prefix only",
                hint="raise max_ops, or check the program for an "
                     "unbounded loop",
            ))
        waits: dict[int, int] = {}          # id(request) -> wait count
        colls: dict[Any, list[int]] = {}
        coll_seqs[rank] = colls
        for index, kind in enumerate(kinds):
            if kind < _FIRST_COMM:
                if kind == _COMPUTE:
                    if known_kernels is not None:
                        name = raw[index].kernel
                        if name not in first_kernel:
                            first_kernel[name] = (rank, index)
                elif kind == _UNKNOWN:
                    programs.append(Diagnostic(
                        check="unknown-op", severity="error",
                        rank=rank, op_index=index, op=repr(raw[index]),
                        message=f"rank {rank} yielded a value the "
                                f"executor does not understand",
                        hint="yield only operations from "
                             "repro.runtime.program",
                    ))
                continue
            op = raw[index]
            if kind in _SENDS:
                send_end(rank, index, op, op.dst, op.tag)
                if op.tag > max_tag:
                    bad_tag(rank, index, op, op.tag)
            elif kind in _RECVS:
                recv_end(rank, index, op, op.src, op.tag)
                if op.tag > max_tag:
                    bad_tag(rank, index, op, op.tag)
            elif kind == ops.KIND_WAITALL:
                _check_waitall(found.requests, waits, rank, index, op)
            elif kind in _COLLECTIVES:
                colls.setdefault(op.comm, []).append(index)
                _check_collective_domain(domains, communicators, rank,
                                         index, op)
            else:   # Sendrecv
                send_end(rank, index, op, op.dst, op.send_tag)
                recv_end(rank, index, op, op.src, op.recv_tag)
                if op.send_tag > max_tag:
                    bad_tag(rank, index, op, op.send_tag)
                if op.recv_tag > max_tag:
                    bad_tag(rank, index, op, op.recv_tag)
        # receives posted but never waited: the program uses data it has
        # no completion guarantee for (sends may legitimately be
        # fire-and-forget under eager/rendezvous completion).
        for index, request in trace.requests.items():
            if kinds[index] != ops.KIND_ISEND and id(request) not in waits:
                found.requests.append(Diagnostic(
                    check="request-unwaited", severity="warning",
                    rank=rank, op_index=index,
                    op=ops.describe_op(raw[index]),
                    message=f"rank {rank} never waits on the "
                            f"{request.describe()}",
                    hint="add the request to a WaitAll before using the "
                         "received data",
                ))

    _match_p2p(found.p2p, traces, sends, specific, wildcard)
    _match_collectives(found.collectives, traces, coll_seqs, communicators)
    if known_kernels is not None:
        hint = f"registered kernels: {sorted(known_kernels)}"
        for name, (rank, index) in first_kernel.items():
            if name in known_kernels:
                continue
            found.kernels.append(Diagnostic(
                check="unknown-kernel", severity="error",
                rank=rank, op_index=index,
                op=ops.describe_op(traces[rank].raw[index]),
                message=f"Compute references unregistered kernel {name!r}",
                hint=hint,
            ))
    return found


# ----------------------------------------------------------------------
# WaitAll and collective-domain checks, one call per such op
# ----------------------------------------------------------------------
def _check_waitall(out: list[Diagnostic], waits: dict[int, int], rank: int,
                   index: int, op: Any) -> None:
    for item in op.requests:
        if not isinstance(item, TracedRequest):
            out.append(Diagnostic(
                check="waitall-non-request", severity="error",
                rank=rank, op_index=index, op=ops.describe_op(op),
                message=f"WaitAll on a non-request value {item!r}",
                hint="capture the handle: `r = yield Irecv(...)`; "
                     "blocking ops (Send/Recv) yield no handle",
            ))
            continue
        if item.rank != rank:
            out.append(Diagnostic(
                check="request-foreign", severity="error",
                rank=rank, op_index=index, op=ops.describe_op(op),
                message=f"WaitAll on a request owned by rank {item.rank}",
                hint="requests are rank-local; wait where the op was "
                     "posted",
            ))
            continue
        count = waits.get(id(item), 0) + 1
        waits[id(item)] = count
        if count == 2:
            out.append(Diagnostic(
                check="request-double-wait", severity="warning",
                rank=rank, op_index=index, op=ops.describe_op(op),
                message=f"rank {rank} waits twice on the "
                        f"{item.describe()}",
                hint="drop the request from the second WaitAll",
            ))


def _check_collective_domain(out: list[Diagnostic],
                             communicators: dict[str, tuple[int, ...]],
                             rank: int, index: int, op: Any) -> None:
    members = communicators.get(op.comm)
    if members is None:
        out.append(Diagnostic(
            check="collective-unknown-comm", severity="error",
            rank=rank, op_index=index, op=ops.describe_op(op),
            message=f"collective on unknown communicator {op.comm!r}",
            hint=f"known communicators: {sorted(communicators)}",
        ))
        return
    if rank not in members:
        out.append(Diagnostic(
            check="collective-nonmember", severity="error",
            rank=rank, op_index=index, op=ops.describe_op(op),
            message=f"rank {rank} issues a collective on {op.comm!r} but "
                    f"is not a member (members: {list(members)})",
            hint="guard the collective by communicator membership",
        ))
    root = ops.collective_root(op)
    if root is not None and root not in members:
        out.append(Diagnostic(
            check="collective-bad-root", severity="error",
            rank=rank, op_index=index, op=ops.describe_op(op),
            message=f"root {root} is not a member of communicator "
                    f"{op.comm!r}",
            hint=f"pick a root among {list(members)}",
        ))


# ----------------------------------------------------------------------
# point-to-point count matching per (destination, tag) channel
# ----------------------------------------------------------------------
def _match_p2p(out: list[Diagnostic], traces: Traces,
               sends: dict[tuple[Any, Any, int], list[int]],
               specific: dict[tuple[int, Any, Any], list[int]],
               wildcard: dict[tuple[int, Any], list[int]]) -> None:
    """Count-match sends against receives per (dst, tag) channel.

    Specific-source receives are matched against their source's sends
    first; ``ANY_SOURCE`` receives then absorb leftover sends of the same
    (dst, tag).  Matching specific receives first is optimal (a wildcard
    can absorb anything a specific receive can), so leftovers are genuine
    count mismatches, independent of posting order.
    """
    channels: dict[tuple[Any, Any], set[Any]] = {}
    for dst, tag, src in sends:
        channels.setdefault((dst, tag), set()).add(src)
    for dst, tag, src in specific:
        channels.setdefault((dst, tag), set()).add(src)
    for chan in wildcard:
        channels.setdefault(chan, set())

    def describe(rank: int, index: int) -> str:
        return ops.describe_op(traces[rank].raw[index])

    for chan in sorted(channels):
        dst, tag = chan
        leftovers: list[tuple[int, int]] = []   # unmatched sends, FIFO
        for src in sorted(channels[chan]):
            chan_sends = sends.get((dst, tag, src), [])
            chan_recvs = specific.get((dst, tag, src), [])
            n_send, n_recv = len(chan_sends), len(chan_recvs)
            matched = min(n_send, n_recv)
            leftovers.extend((src, i) for i in chan_sends[matched:])
            for index in chan_recvs[matched:]:
                out.append(Diagnostic(
                    check="p2p-unmatched-recv", severity="error",
                    rank=dst, op_index=index, op=describe(dst, index),
                    message=f"rank {dst} receives from rank {src} "
                            f"tag {tag}, but rank {src} posts no "
                            f"matching send (channel has {n_send} "
                            f"send(s) for {n_recv} receive(s))",
                    hint=f"post a matching send on rank {src} or drop "
                         f"the receive",
                ))
        wild = wildcard.get(chan, [])
        absorbed = min(len(wild), len(leftovers))
        for src, index in leftovers[absorbed:]:
            out.append(Diagnostic(
                check="p2p-unmatched-send", severity="error",
                rank=src, op_index=index, op=describe(src, index),
                message=f"rank {src} sends to rank {dst} tag {tag}, "
                        f"but rank {dst} posts no matching receive",
                hint=f"post a matching Recv/Irecv on rank {dst} or drop "
                     f"the send",
            ))
        for index in wild[absorbed:]:
            out.append(Diagnostic(
                check="p2p-unmatched-recv", severity="error",
                rank=dst, op_index=index, op=describe(dst, index),
                message=f"rank {dst} receives (ANY_SOURCE) tag "
                        f"{tag}, but no unconsumed send targets rank "
                        f"{dst} with that tag",
                hint="post a matching send or drop the wildcard receive",
            ))


# ----------------------------------------------------------------------
# collective congruence
# ----------------------------------------------------------------------
def _match_collectives(out: list[Diagnostic], traces: Traces,
                       coll_seqs: dict[int, dict[Any, list[int]]],
                       communicators: dict[str, tuple[int, ...]]) -> None:
    """All members of a communicator must issue the same collective
    sequence: same length, same op types, same roots.

    Per-rank ``size_bytes`` may differ (the simulator models per-rank
    contributions and costs the maximum), so sizes are *not* checked.
    """
    for name, members in sorted(communicators.items()):
        seqs: dict[int, list[int]] = {}
        for rank in members:
            colls = coll_seqs.get(rank)
            if colls is not None:
                seqs[rank] = colls.get(name, [])
        if not seqs:
            continue
        reference_rank = min(seqs)
        ref_raw = traces[reference_rank].raw
        reference = [ref_raw[i] for i in seqs[reference_rank]]
        for rank in sorted(seqs):
            if rank == reference_rank:
                continue
            raw = traces[rank].raw
            seq = [raw[i] for i in seqs[rank]]
            divergence = _first_divergence(reference, seq)
            if divergence is None:
                continue
            index, kind = divergence
            if kind == "count":
                shorter, longer = (rank, reference_rank) \
                    if len(seq) < len(reference) else (reference_rank, rank)
                n_short, n_long = len(seqs[shorter]), len(seqs[longer])
                extra = traces[longer].raw[seqs[longer][
                    min(n_short, n_long - 1)]]
                out.append(Diagnostic(
                    check="collective-count", severity="error",
                    rank=shorter, op_index=None,
                    op=ops.describe_op(extra),
                    message=f"rank {shorter} issues {n_short} "
                            f"collective(s) on {name!r} while rank "
                            f"{longer} issues {n_long}; the extra "
                            f"collective would hang waiting for rank "
                            f"{shorter}",
                    hint="make every member execute the same collective "
                         "sequence (check rank-dependent branches)",
                ))
            elif kind == "type":
                op, ref_op = seq[index], reference[index]
                out.append(Diagnostic(
                    check="collective-divergence", severity="error",
                    rank=rank, op_index=seqs[rank][index],
                    op=ops.describe_op(op),
                    message=f"collective sequence diverges on {name!r} "
                            f"at position {index}: rank {rank} issues "
                            f"{type(op).__name__} while rank "
                            f"{reference_rank} issues "
                            f"{type(ref_op).__name__}",
                    hint="collectives are matched by call order; align "
                         "the sequences across ranks",
                ))
            else:  # root
                op, ref_op = seq[index], reference[index]
                out.append(Diagnostic(
                    check="collective-root-divergence", severity="error",
                    rank=rank, op_index=seqs[rank][index],
                    op=ops.describe_op(op),
                    message=f"{type(op).__name__} on {name!r} at "
                            f"position {index}: rank {rank} uses root "
                            f"{ops.collective_root(op)} while rank "
                            f"{reference_rank} uses root "
                            f"{ops.collective_root(ref_op)}",
                    hint="all members must pass the same root",
                ))
            break   # first diverging member per communicator is enough


def _first_divergence(reference: list[Any],
                      seq: list[Any]) -> tuple[int, str] | None:
    """(index, kind) of the first mismatch, or None when congruent."""
    for i, (a, b) in enumerate(zip(reference, seq)):
        if type(a) is not type(b):
            return i, "type"
        if ops.collective_root(a) != ops.collective_root(b):
            return i, "root"
    if len(reference) != len(seq):
        return min(len(reference), len(seq)), "count"
    return None


# ----------------------------------------------------------------------
# one-check views of the single pass
# ----------------------------------------------------------------------
# Each view's list depends only on the arguments it takes; the others
# are filled with placeholders and their lists dropped.
def check_programs(traces: Traces) -> list[Diagnostic]:
    return scan(traces, len(traces), {}).programs


def check_domains(traces: Traces, n_ranks: int,
                  communicators: dict[str, tuple[int, ...]]
                  ) -> list[Diagnostic]:
    return scan(traces, n_ranks, communicators).domains


def check_requests(traces: Traces) -> list[Diagnostic]:
    return scan(traces, len(traces), {}).requests


def check_p2p_matching(traces: Traces, n_ranks: int) -> list[Diagnostic]:
    return scan(traces, n_ranks, {}).p2p


def check_collectives(traces: Traces,
                      communicators: dict[str, tuple[int, ...]]
                      ) -> list[Diagnostic]:
    return scan(traces, len(traces), communicators).collectives
