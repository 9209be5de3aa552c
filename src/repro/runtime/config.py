"""Run configuration and execution results."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..events import EventLog
from ..faults.plan import FaultPlan
from ..mpi.deadlock import DeadlockDiagnosis
from .costmodel import (
    DEFAULT_COST_MODEL,
    NO_INSTRUMENTATION,
    CostModel,
    InstrumentationCharge,
)
from .scheduler import DEFAULT_MAX_STEPS

#: How the runtime treats MPI calls that breach the granted thread level.
#:
#: * ``skip``       — the call is silently not executed (the paper's Fig. 1
#:   observation: "only MPI_Send or MPI_Recv is executed, but not both").
#: * ``permissive`` — the call executes anyway; the breach is recorded.
#: * ``strict``     — the run aborts (a strict MPI implementation).
THREAD_LEVEL_MODES = ("skip", "permissive", "strict")

#: Available execution engines.
#:
#: * ``bytecode`` — compile-once closure-array VM (the default): programs
#:   are lowered to flat instruction lists, shared across campaign cells
#:   and serve workers; traces are byte-identical to the tree-walk.
#: * ``ast``      — the original recursive generator tree-walk, kept as a
#:   reference implementation and differential-testing oracle.
ENGINES = ("ast", "bytecode")


def _default_engine() -> str:
    """Engine default, overridable by the REPRO_ENGINE environment
    variable (how the ``--engine`` CLI flag reaches campaign worker
    processes and the CI engine matrix)."""
    return os.environ.get("REPRO_ENGINE", "bytecode")


@dataclass
class RunConfig:
    """Everything that parameterizes one simulated execution."""

    nprocs: int = 2
    #: default OpenMP team size (paper experiments use 2 threads/process)
    num_threads: int = 2
    seed: int = 0
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    charge: InstrumentationCharge = field(default_factory=lambda: NO_INSTRUMENTATION)
    #: make blocking sends rendezvous (sender waits for the matching recv)
    sync_sends: bool = False
    #: payload element count above which a buffered send turns rendezvous
    eager_threshold: int = 1 << 16
    thread_level_mode: str = "skip"
    #: highest thread level the simulated MPI library grants
    max_thread_level: int = 3
    #: re-raise DeadlockError instead of recording it in the result
    raise_on_deadlock: bool = False
    #: record MemAccess events for shared variables in parallel regions
    monitor_memory: bool = False
    #: restrict memory monitoring to the access sites at these
    #: "line:col" locs (None = every site, the monitor-everything ITC
    #: behaviour; HOME narrows this to the static race pass's
    #: ``monitored_locs``).  An element access's site is its ``a[i]``
    #: expression; a reduction fold's site is the loc of the construct
    #: whose clause names the variable.  Loc-keyed like
    #: ``collective_sites``, so the instrumented clone's renumbering
    #: needs no nid mapping.
    memory_sites: Optional[frozenset] = None
    #: record CollectiveArrive events at OMP/MPI collective encounters
    #: (the PARCOACH-style dynamic collective-matching confirm pass)
    monitor_collectives: bool = False
    #: restrict collective monitoring to these "line:col" site locs
    #: (None = every collective site; HOME narrows this to the static
    #: divergence pass's candidate sites).  Loc-keyed, not nid-keyed:
    #: instrumentation inserts its setup call and renumbers the clone,
    #: which shifts nids, but source locations survive the clone.
    collective_sites: Optional[frozenset] = None
    #: hard cap on scheduler iterations (runaway-program guard)
    max_steps: int = DEFAULT_MAX_STEPS
    #: host wall-clock budget for one run; 0 = unlimited
    max_wall_seconds: float = 0.0
    #: user function call depth cap (each simulated frame nests several
    #: Python generator frames, so this stays well under the host limit)
    max_call_depth: int = 60
    #: injected faults this run executes under (None = healthy library)
    fault_plan: Optional[FaultPlan] = None
    #: on step/wall budget exhaustion, return the partial
    #: :class:`ExecutionResult` (with ``failure`` set) instead of
    #: raising — the campaign runner's partial-trace recovery
    capture_partial: bool = False
    #: execution engine: "bytecode" (compiled closure arrays) or "ast"
    #: (tree-walk reference); both produce byte-identical traces
    engine: str = field(default_factory=_default_engine)

    def __post_init__(self) -> None:
        if self.thread_level_mode not in THREAD_LEVEL_MODES:
            raise ValueError(f"bad thread_level_mode {self.thread_level_mode!r}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"bad engine {self.engine!r} (expected one of {ENGINES})"
            )
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")


_ABORT_NOTE = re.compile(r"rank \d+(?: thread \d+)?: aborted: ")


def abort_note(who: str, err: Exception) -> str:
    """The run note *who* (``rank R`` for a rank's main thread, ``rank R
    thread T`` for a worker) leaves when it aborts with *err*; the notes
    :attr:`ExecutionResult.aborts` lists."""
    return f"{who}: aborted: {err}"


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution."""

    program_name: str
    config: RunConfig
    makespan: float = 0.0
    proc_clocks: Dict[int, float] = field(default_factory=dict)
    log: EventLog = field(default_factory=EventLog)
    outputs: List[tuple] = field(default_factory=list)  # (proc, thread, text)
    deadlock: Optional[DeadlockDiagnosis] = None
    #: runtime-observed irregularities (thread-level breaches, double waits...)
    notes: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: non-None when the run ended early (step/wall budget); the log
    #: then holds the salvageable partial trace
    failure: Optional[str] = None

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None

    @property
    def aborts(self) -> List[str]:
        """The notes of the ranks and threads that aborted, in order."""
        return [note for note in self.notes if _ABORT_NOTE.match(note)]

    @property
    def completed(self) -> bool:
        """True when the run ran to completion (deadlock counts: the
        schedule terminated and the trace is whole)."""
        return self.failure is None

    def printed_lines(self) -> List[str]:
        return [text for (_p, _t, text) in self.outputs]

    def summary(self) -> str:
        lines = [
            f"program={self.program_name} procs={self.config.nprocs} "
            f"threads={self.config.num_threads} seed={self.config.seed}",
            f"makespan={self.makespan:.1f} events={len(self.log)} "
            f"deadlocked={self.deadlocked}",
        ]
        if self.failure:
            lines.append(f"INCOMPLETE: {self.failure}")
        if self.notes:
            lines.append(f"notes: {len(self.notes)}")
        return "\n".join(lines)
