"""Symbolic replay of rank programs.

The analyzer's input is the same generator the executor interprets — but
replayed *without* advancing simulated time: every yielded op is recorded
in order, and ops that would yield a request handle get a
:class:`TracedRequest` token sent back, so ``r = yield Irecv(...)`` /
``yield WaitAll([r])`` round-trips exactly as it does under the real
executor.  Control flow in the shipped skeletons never depends on
*received values* (receives carry no payload in this simulator), so the
replayed op stream is the exact stream the simulation would issue.

A program that raises during replay — a :class:`ConfigurationError` from
an op constructor, a decomposition failure, an ``IndexError`` in user
code — becomes a per-rank failure diagnostic instead of an exception, so
one broken rank cannot hide findings on the others.

The trace is compact: each yielded value is classified once by the
op-kind table of :mod:`repro.runtime.program` and kept as it is, with
its kind code, its request token if it has one, and (for communication
ops) its index in a per-rank list.  The structural checks and the
symbolic scheduler dispatch on those codes; :class:`TracedOp` records
exist only for readers of :attr:`ProgramTrace.ops`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.errors import ReproError
from repro.runtime import program as ops

#: Per-rank op budget: a guard against unbounded generators (a while-True
#: program would otherwise hang the analyzer, not the simulation).
DEFAULT_MAX_OPS = 1_000_000

#: Kinds the executor answers with a request handle.
_REQUEST_KINDS = frozenset((ops.KIND_ISEND, ops.KIND_IRECV,
                            ops.KIND_ICOLLECTIVE))


class TracedRequest:
    """Stand-in for the runtime's request handle during replay."""

    __slots__ = ("rank", "op_index", "op")

    def __init__(self, rank: int, op_index: int, op: Any) -> None:
        self.rank = rank
        self.op_index = op_index
        self.op = op

    def describe(self) -> str:
        return f"request of {ops.describe_op(self.op)} (op #{self.op_index})"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<TracedRequest rank={self.rank} {self.describe()}>"


class TracedOp:
    """One recorded (rank, index, op) with its replay request, if any."""

    __slots__ = ("rank", "index", "op", "request")

    def __init__(self, rank: int, index: int, op: Any,
                 request: TracedRequest | None) -> None:
        self.rank = rank
        self.index = index
        self.op = op
        self.request = request

    def describe(self) -> str:
        return ops.describe_op(self.op)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<TracedOp rank={self.rank} #{self.index} {self.describe()}>"


class ProgramTrace:
    """Everything one rank's replay produced, kept compact: the raw
    yielded values with one kind code each, the request tokens, and the
    indices of the communication ops.  :attr:`ops` wraps them in
    :class:`TracedOp` records on first read."""

    __slots__ = ("rank", "raw", "kinds", "requests", "comm", "failure",
                 "truncated", "_ops")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: Every yielded value in order; the list index is the op index.
        self.raw: list[Any] = []
        #: :func:`~repro.runtime.program.op_kind` of each yielded value.
        self.kinds: list[int] = []
        #: op index -> the token sent back for a request-yielding op.
        self.requests: dict[int, TracedRequest] = {}
        #: Op indices of the communication ops, in order.
        self.comm: list[int] = []
        #: Diagnostic when the generator raised; replay stops there.
        self.failure: Diagnostic | None = None
        #: True when the op budget cut the replay short.
        self.truncated = False
        self._ops: list[TracedOp] | None = None

    @property
    def ops(self) -> list[TracedOp]:
        """One :class:`TracedOp` per yielded value."""
        if self._ops is None:
            get = self.requests.get
            self._ops = [TracedOp(self.rank, i, op, get(i))
                         for i, op in enumerate(self.raw)]
        return self._ops


def trace_rank(factory: Callable[[int, int], Iterator], rank: int,
               n_ranks: int, max_ops: int = DEFAULT_MAX_OPS) -> ProgramTrace:
    """Replay one rank's program into a :class:`ProgramTrace`."""
    trace = ProgramTrace(rank)
    raw, requests = trace.raw, trace.requests
    append_op, append_kind = raw.append, trace.kinds.append
    append_comm = trace.comm.append
    kind_of = ops.OP_KINDS.get
    first_comm, request_kinds = ops.KIND_SEND, _REQUEST_KINDS
    try:
        gen = factory(rank, n_ranks)
        send = gen.send
        send_value: TracedRequest | None = None
        index = 0
        while True:
            try:
                op = send(send_value)
            except StopIteration:
                break
            if index >= max_ops:
                trace.truncated = True
                gen.close()
                break
            kind = kind_of(type(op))
            if kind is None:
                kind = ops.op_kind(op)
            append_op(op)
            append_kind(kind)
            send_value = None
            if kind >= first_comm:
                append_comm(index)
                if kind in request_kinds:
                    send_value = requests[index] = \
                        TracedRequest(rank, index, op)
            index += 1
    except ReproError as exc:
        trace.failure = Diagnostic(
            check="program-config", severity="error",
            rank=rank, op_index=len(raw),
            message=f"program raised {type(exc).__name__}: {exc}",
            hint="fix the rank program or the dataset parameters; the "
                 "simulation would fail at the same point",
        )
    except Exception as exc:  # noqa: BLE001 - surface user-code crashes
        trace.failure = Diagnostic(
            check="program-crash", severity="error",
            rank=rank, op_index=len(raw),
            message=f"program crashed with {type(exc).__name__}: {exc}",
            hint="the rank program has a Python bug that would also kill "
                 "the simulation",
        )
    return trace


def trace_program(factory: Callable[[int, int], Iterator], n_ranks: int,
                  max_ops: int = DEFAULT_MAX_OPS) -> dict[int, ProgramTrace]:
    """Replay every rank; returns rank -> :class:`ProgramTrace`."""
    return {rank: trace_rank(factory, rank, n_ranks, max_ops)
            for rank in range(n_ranks)}
