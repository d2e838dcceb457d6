"""Symbolic scheduling: order-aware deadlock detection before any run.

The count-matching checks in :mod:`repro.analysis.checks` are
order-blind; this module replays the traced op streams against a
*timeless* abstraction of the runtime's matching rules — the same
eager/rendezvous protocol split, per-destination FIFO matching with
``ANY_SOURCE`` wildcards, and all-members-arrive collective semantics as
:class:`~repro.runtime.mpi.SimMPI` — advancing every rank as far as its
blocking operations allow.  If the system wedges with unexecuted ops,
the stuck ranks and what each one is waiting for become ``deadlock``
diagnostics: the classic cyclic rendezvous ``Send`` ring is reported
with the cycle visible in the wait-for descriptions, while the same ring
below the eager threshold completes silently (no false positive —
exactly like the runtime and real MPI eager buffering).

The scheduler executes each communication op at most once (local ops
never block, so it skips them), so it terminates in O(communication ops)
work regardless of program shape.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.trace import ProgramTrace, TracedRequest
from repro.runtime import program as ops

_SEND, _ISEND = ops.KIND_SEND, ops.KIND_ISEND
_RECV, _IRECV = ops.KIND_RECV, ops.KIND_IRECV
_WAITALL = ops.KIND_WAITALL
_COLLECTIVE, _ICOLLECTIVE = ops.KIND_COLLECTIVE, ops.KIND_ICOLLECTIVE

#: Hint attached to every deadlock diagnostic.
_HINT = ("break the wait cycle: post receives before sends, use "
         "Isend/Irecv + WaitAll (the halo-exchange idiom), or keep "
         "messages below the eager threshold")


class _CollPending:
    """One collective with some members still to arrive."""

    __slots__ = ("arrived", "tokens")

    def __init__(self) -> None:
        self.arrived: set[int] = set()
        self.tokens: list[object] = []


class _Scheduler:
    def __init__(self, traces: dict[int, ProgramTrace],
                 eager_threshold: float,
                 communicators: dict[str, tuple[int, ...]]) -> None:
        self.traces = traces
        self.eager = eager_threshold
        self.comms = communicators
        # completed tokens, held by strong reference: tracking by id()
        # alone would break when CPython reuses a freed token's id
        self.done: set[object] = set()
        self.n_ranks = len(traces)
        # posted-but-unmatched sends / receives per destination rank, as
        # (src, tag, token); a receive's src may be ANY_SOURCE, and its
        # token completes when it is matched
        self.sends: dict[int, list[tuple[int, int, object]]] = \
            {r: [] for r in traces}
        self.recvs: dict[int, list[tuple[int, int, object]]] = \
            {r: [] for r in traces}
        self.coll: dict[str, _CollPending] = {}
        #: rank -> position in the rank's communication-op list
        self.pc = {r: 0 for r in traces}
        #: rank -> (op index, [unfinished tokens]) while blocked
        self.blocked: dict[int, tuple[int, list[object]]] = {}
        #: findings made while scheduling (e.g. collective re-entry)
        self.extra: list[Diagnostic] = []

    # ------------------------------------------------------------------
    # matching (timeless mirror of SimMPI's FIFO rules)
    # ------------------------------------------------------------------
    def _post_send(self, dst: int, src: int, tag: int, size: float,
                   token: object) -> None:
        if size < self.eager:
            self.done.add(token)        # eager: completes on buffering
        queue = self.recvs[dst]
        for i, (rsrc, rtag, rtoken) in enumerate(queue):
            if rtag == tag and rsrc in (src, ops.ANY_SOURCE):
                del queue[i]
                self.done.add(token)
                self.done.add(rtoken)
                return
        self.sends[dst].append((src, tag, token))

    def _post_recv(self, dst: int, src: int, tag: int,
                   token: object) -> None:
        queue = self.sends[dst]
        for i, (ssrc, stag, stoken) in enumerate(queue):
            if stag == tag and src in (ssrc, ops.ANY_SOURCE):
                del queue[i]
                self.done.add(stoken)
                self.done.add(token)
                return
        self.recvs[dst].append((src, tag, token))

    def _arrive_collective(self, rank: int, index: int, op: Any,
                           token: object) -> None:
        members = self.comms.get(op.comm)
        if members is None or rank not in members:
            self.done.add(token)        # already flagged by the checks
            return
        state = self.coll.setdefault(op.comm, _CollPending())
        if rank in state.arrived:
            # re-entry before release: a second collective issued on the
            # comm while the rank's earlier (nonblocking) one is still
            # pending — the runtime raises CommunicatorError here under
            # the same schedule
            self.extra.append(Diagnostic(
                check="collective-reentry", severity="error",
                rank=rank, op_index=index, op=ops.describe_op(op),
                message=f"rank {rank} enters a collective on {op.comm!r} "
                        f"again before its previous nonblocking "
                        f"collective completed",
                hint="WaitAll the previous IAllreduce/IBarrier before "
                     "issuing the next collective on the same "
                     "communicator",
            ))
            self.done.add(token)
            return
        state.arrived.add(rank)
        state.tokens.append(token)
        if len(state.arrived) == len(members):
            self.done.update(state.tokens)
            del self.coll[op.comm]

    # ------------------------------------------------------------------
    def _advance(self, rank: int) -> bool:
        """Run one rank as far as possible; True if any op executed or a
        blocked wait resolved.

        Local ops are free under the abstraction, so only the rank's
        communication ops are walked.  Each op posts its sends, receives
        or collective arrival, then blocks the rank on the tokens it has
        to wait for that are not done yet.
        """
        progressed = False
        done = self.done
        if rank in self.blocked:
            index, tokens = self.blocked[rank]
            tokens = [t for t in tokens if t not in done]
            if tokens:
                self.blocked[rank] = (index, tokens)
                return False
            del self.blocked[rank]
            progressed = True
        trace = self.traces[rank]
        comm, kinds, raw = trace.comm, trace.kinds, trace.raw
        requests = trace.requests
        n_ranks = self.n_ranks
        post_send, post_recv = self._post_send, self._post_recv
        pc, end = self.pc[rank], len(comm)
        while pc < end:
            index = comm[pc]
            pc += 1
            progressed = True
            kind, op = kinds[index], raw[index]
            if kind == _ISEND or kind == _SEND:
                token = requests[index] if kind == _ISEND else object()
                if 0 <= op.dst < n_ranks and op.dst != rank:
                    post_send(op.dst, rank, op.tag, op.size_bytes, token)
                else:
                    done.add(token)     # flagged by the checks
                if kind == _ISEND or token in done:
                    continue
                tokens = [token]
            elif kind == _IRECV or kind == _RECV:
                token = requests[index] if kind == _IRECV else object()
                src = op.src
                if src == ops.ANY_SOURCE or (0 <= src < n_ranks and
                                             src != rank):
                    post_recv(rank, src, op.tag, token)
                else:
                    done.add(token)
                if kind == _IRECV or token in done:
                    continue
                tokens = [token]
            elif kind == _WAITALL:
                tokens = [item for item in op.requests
                          if isinstance(item, TracedRequest)
                          and item not in done]
                if not tokens:
                    continue
            elif kind == _ICOLLECTIVE:
                self._arrive_collective(rank, index, op, requests[index])
                continue
            elif kind == _COLLECTIVE:
                token = object()
                self._arrive_collective(rank, index, op, token)
                if token in done:
                    continue
                tokens = [token]
            else:   # Sendrecv
                stok, rtok = object(), object()
                if 0 <= op.dst < n_ranks and op.dst != rank:
                    post_send(op.dst, rank, op.send_tag, op.size_bytes,
                              stok)
                else:
                    done.add(stok)
                src = op.src
                if src == ops.ANY_SOURCE or (0 <= src < n_ranks and
                                             src != rank):
                    post_recv(rank, src, op.recv_tag, rtok)
                else:
                    done.add(rtok)
                tokens = [t for t in (stok, rtok) if t not in done]
                if not tokens:
                    continue
            self.blocked[rank] = (index, tokens)
            break
        self.pc[rank] = pc
        return progressed

    # ------------------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        # The round-robin order over sorted ranks is part of the result:
        # which receive a wildcard matches, and whether a rank re-enters
        # a collective, both depend on it.
        ranks = sorted(self.traces)
        progress = True
        while progress:
            progress = False
            for rank in ranks:
                if self._advance(rank):
                    progress = True
        return self.extra + [self._stuck_diag(rank) for rank in ranks
                             if rank in self.blocked]

    def _stuck_diag(self, rank: int) -> Diagnostic:
        index, tokens = self.blocked[rank]
        trace = self.traces[rank]
        op = trace.raw[index]
        text = ops.describe_op(op)
        why = self._explain(trace.kinds[index], op, tokens)
        return Diagnostic(
            check="deadlock", severity="error",
            rank=rank, op_index=index, op=text,
            message=f"rank {rank} blocks forever on {text}: {why}",
            hint=_HINT,
        )

    def _explain(self, kind: int, op: Any, tokens: list[object]) -> str:
        if kind == _SEND:
            return (f"rendezvous-size send; rank {op.dst} never posts the "
                    f"matching receive (tag {op.tag})")
        if kind == _RECV:
            src = "ANY_SOURCE" if op.src == ops.ANY_SOURCE else op.src
            return f"no send from {src} with tag {op.tag} remains"
        if kind == ops.KIND_SENDRECV:
            return "its send and/or receive half never matches"
        if kind == _WAITALL:
            unfinished = [t.describe() for t in tokens
                          if isinstance(t, TracedRequest)]
            return "unfinished: " + "; ".join(unfinished[:4]) + \
                ("; ..." if len(unfinished) > 4 else "")
        if kind == _COLLECTIVE:
            state = self.coll.get(op.comm)
            members = self.comms.get(op.comm, ())
            if state is not None:
                missing = sorted(set(members) - state.arrived)
                return (f"collective on {op.comm!r} waits for ranks "
                        f"{missing[:8]}")
            return f"collective on {op.comm!r} never forms"
        return "blocked"                # pragma: no cover - exhaustive above


def find_deadlocks(traces: dict[int, ProgramTrace], *,
                   eager_threshold: float,
                   communicators: dict[str, tuple[int, ...]]
                   ) -> list[Diagnostic]:
    """Symbolically schedule the traced programs; diagnostics for every
    rank that can never finish."""
    return _Scheduler(traces, eager_threshold, communicators).run()
