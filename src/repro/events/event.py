"""Event dataclasses recorded during simulated execution.

Identification scheme
---------------------

* ``proc`` — MPI rank of the process the event happened in.
* ``thread`` — process-local thread id (0 is the process main thread;
  OpenMP workers get fresh ids from a per-process counter, so a thread
  id never repeats within a process even across parallel regions).
* ``seq`` — global emission sequence number (total order of emission,
  *not* a causal order).
* ``time`` — virtual time on the emitting thread's clock.

The paper's six monitored variables map onto :class:`MonitoredKind`;
a write to monitored variable *k* in process *p* is the memory location
``(p, k)`` for the lockset and happens-before analyses.

Immutability contract
---------------------

An event is never modified after it is built: the runtime appends it
to the log and every analysis, serializer and baseline only reads it.
Analyses key dicts by events and their fields, replay the same log
several times and compare logs across engines byte for byte, so a
mutated event would silently change results.

The classes are plain slotted dataclasses (``unsafe_hash=True`` keeps
value equality and hashing) rather than frozen ones on purpose: a
frozen dataclass sets every field through ``object.__setattr__``, which
makes building an event several times slower, and dense traces build
one event per monitored memory access.  So the contract is checked by
a test rather than at every construction: a run's dumped log is
byte-identical before and after each analysis reads it
(``tests/events/test_immutability.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class MonitoredKind(enum.Enum):
    """The monitored variables HOME's MPI wrappers write (paper §IV-B)."""

    SRC = "srctmp"
    TAG = "tagtmp"
    COMM = "commtmp"
    REQUEST = "requesttmp"
    COLLECTIVE = "collectivetmp"
    FINALIZE = "finalizetmp"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True, unsafe_hash=True)
class Event:
    """Base event; all events carry (proc, thread, seq, time)."""

    proc: int
    thread: int
    seq: int
    time: float


@dataclass(slots=True, unsafe_hash=True)
class MemAccess(Event):
    """A read or write of a *shared* program variable.

    Only emitted while memory monitoring is on: at every access site
    under the ITC model, and under HOME's site-directed narrowing at
    just the sites its static race pass could not clear
    (``RunConfig.memory_sites``): both sides of each candidate, and
    every site of a monitored variable with an unresolved
    interprocedural access or a ``reduction`` clause.  HOME monitors no
    other accesses.  A reduction fold is emitted with ``callsite`` 0.
    """

    is_write: bool = False
    cell: int = 0          # unique id of the memory cell
    var: str = ""          # source-level variable name (best effort)
    callsite: int = 0      # AST node id of the access
    index: int = -1        # array element index; -1 for scalars


@dataclass(slots=True, unsafe_hash=True)
class MonitoredWrite(Event):
    """A write to one of HOME's monitored variables by an HMPI wrapper."""

    kind: MonitoredKind = MonitoredKind.SRC
    value: Any = None
    mpi_op: str = ""       # e.g. 'mpi_recv'
    callsite: int = 0      # AST node id of the (original) MPI call
    loc: str = ""          # human-readable source location
    call_id: int = 0       # dynamic call instance (shared with MPICall)


@dataclass(slots=True, unsafe_hash=True)
class LockAcquire(Event):
    lock: str = ""


@dataclass(slots=True, unsafe_hash=True)
class LockRelease(Event):
    lock: str = ""


@dataclass(slots=True, unsafe_hash=True)
class BarrierEvent(Event):
    """A thread passed a team barrier (explicit or implicit)."""

    team: int = 0
    epoch: int = 0


@dataclass(slots=True, unsafe_hash=True)
class ThreadFork(Event):
    """Emitted by the master thread when it creates a team."""

    team: int = 0
    children: Tuple[int, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class ThreadJoin(Event):
    """Emitted by the master thread after joining its team."""

    team: int = 0
    children: Tuple[int, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class ThreadBegin(Event):
    """First event of a worker thread; links back to the forking parent."""

    team: int = 0
    parent: int = 0


@dataclass(slots=True, unsafe_hash=True)
class ThreadEnd(Event):
    team: int = 0


@dataclass(slots=True, unsafe_hash=True)
class CollectiveArrive(Event):
    """A team member *encountered* a collective construct.

    The dynamic half of the PARCOACH collective-matching check: every
    thread of a team must encounter the same ordered sequence of
    collective constructs (explicit barrier, worksharing entry, an MPI
    collective issued from inside the region).  Emitted at encounter —
    before any blocking — so divergent arrivals are on record even when
    the run subsequently deadlocks.  Only emitted when
    ``RunConfig.monitor_collectives`` is on (divergence-directed
    narrowing keeps default traces byte-identical).
    """

    team: int = 0
    kind: str = ""       # "barrier" | "for" | "sections" | "single" | "mpi"
    op: str = ""         # MPI op name when kind == "mpi"
    callsite: int = 0    # AST node id of the construct / call
    loc: str = ""        # "line:col" (stable across program clones)
    index: int = 0       # position in this member's arrival sequence


@dataclass(slots=True, unsafe_hash=True)
class MPICall(Event):
    """Begin/end bracket of an MPI routine invocation.

    ``phase`` is 'begin' or 'end'; a begin/end pair shares ``call_id``.
    ``args`` holds the routine's semantically relevant arguments
    (source, tag, comm id, request handle, root, ...).
    """

    op: str = ""
    phase: str = "begin"
    call_id: int = 0
    callsite: int = 0
    loc: str = ""
    is_main_thread: bool = True
    instrumented: bool = False
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True, unsafe_hash=True)
class FaultEvent(Event):
    """An injected fault fired at this point of the execution.

    Recorded in the trace so reports can attribute findings (or their
    absence) to the injected condition — a run that only saw a
    violation *because* the library downgraded the thread level should
    say so.
    """

    kind: str = ""        # fault taxonomy name, e.g. 'rank-crash'
    detail: str = ""      # human-readable description of what was done
    op: str = ""          # MPI op at the injection point, if any


@dataclass(slots=True, unsafe_hash=True)
class MPIErrorEvent(Event):
    """An MPI operation surfaced an error class instead of completing.

    Recorded whenever the fault-tolerance layer converts a fault into
    an error code — whether the handler then aborts, returns the code,
    or runs a user handler function.
    """

    op: str = ""          # failing MPI op
    comm: int = 0         # communicator handle
    error_class: str = "" # symbolic name, e.g. 'MPI_ERR_PROC_FAILED'
    code: int = 0         # numeric error class
    handler: str = ""     # 'fatal', 'return', or the handler function name
    detail: str = ""


@dataclass(slots=True, unsafe_hash=True)
class ErrorHandlerEvent(Event):
    """Enter/exit bracket of a user error-handler invocation.

    The reentrancy rule uses these spans: a handler making MPI calls
    while another thread is inside MPI is a thread-safety violation
    below ``MPI_THREAD_MULTIPLE``.
    """

    phase: str = "enter"  # 'enter' or 'exit'
    comm: int = 0
    code: int = 0
    handler: str = ""


#: MPI operations considered collectives by the violation rules.
COLLECTIVE_OPS = frozenset(
    {
        "mpi_barrier",
        "mpi_bcast",
        "mpi_reduce",
        "mpi_allreduce",
        "mpi_gather",
        "mpi_allgather",
        "mpi_scatter",
        "mpi_alltoall",
    }
)

#: Map MPI op name -> monitored variable kinds its HMPI wrapper writes
#: (paper §IV-B: "different routines has its own monitored variable").
MONITORED_KINDS_BY_OP: Dict[str, Tuple[MonitoredKind, ...]] = {
    "mpi_send": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_ssend": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_sendrecv": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_recv": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_isend": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM,
                  MonitoredKind.REQUEST),
    "mpi_irecv": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM,
                  MonitoredKind.REQUEST),
    "mpi_probe": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_iprobe": (MonitoredKind.SRC, MonitoredKind.TAG, MonitoredKind.COMM),
    "mpi_wait": (MonitoredKind.REQUEST,),
    "mpi_waitall": (MonitoredKind.REQUEST,),
    "mpi_test": (MonitoredKind.REQUEST,),
    "mpi_finalize": (MonitoredKind.FINALIZE,),
    "mpi_barrier": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_bcast": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_reduce": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_allreduce": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_gather": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_allgather": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_scatter": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_alltoall": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    # Fault-tolerance surface.  Shrink is deliberately NOT in
    # COLLECTIVE_OPS: its races are claimed by the dedicated
    # recovery-race rule, not the generic collective rule.
    "mpi_comm_shrink": (MonitoredKind.COLLECTIVE, MonitoredKind.COMM),
    "mpi_comm_revoke": (MonitoredKind.COMM,),
    "mpi_comm_failure_ack": (MonitoredKind.COMM,),
    "mpi_comm_set_errhandler": (MonitoredKind.COMM,),
}
