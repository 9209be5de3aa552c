"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch simulator-level failures without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class MiniLangError(ReproError):
    """Base class for mini-language front-end errors."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        #: undecorated message, for callers that format their own
        #: location prefix (e.g. the CLI's file:line:col diagnostics)
        self.bare = message
        if line:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class LexError(MiniLangError):
    """Raised when the lexer encounters an invalid character or literal."""


class ParseError(MiniLangError):
    """Raised when the parser encounters an unexpected token."""


class ValidationError(MiniLangError):
    """Raised when a structurally invalid AST is validated."""


class RuntimeSimError(ReproError):
    """Base class for simulated-runtime errors."""


class SimAbort(RuntimeSimError):
    """A simulated program aborted (e.g. failing assertion, MPI misuse)."""


class PayloadShapeError(SimAbort):
    """MPI payloads that cannot combine: an array broadcast into a
    scalar, reduction contributions of different shapes, a scalar sent
    to an alltoall or an empty array to a gather.  Aborts the affected
    rank like any other :class:`SimAbort`."""


class DeadlockError(RuntimeSimError):
    """The scheduler found every live task blocked with no wake-up possible."""

    def __init__(self, message: str, blocked: list | None = None) -> None:
        super().__init__(message)
        #: Diagnostic descriptions of the blocked tasks at deadlock time.
        self.blocked = blocked or []


class MPIUsageError(RuntimeSimError):
    """An MPI routine was called in a way the (simulated) standard forbids."""


class SchedulerError(RuntimeSimError):
    """Internal scheduler invariant broke (a bug in the simulator itself)."""


class StepLimitError(SchedulerError):
    """The scheduler hit its step budget (runaway-program guard).

    Carries per-task step counts so the report can say *which* simulated
    threads consumed the budget, not just that it ran out.
    """

    def __init__(self, message: str, task_steps: dict | None = None) -> None:
        super().__init__(message)
        #: task name -> steps executed when the budget ran out
        self.task_steps = dict(task_steps or {})


class WallClockLimitError(SchedulerError):
    """The scheduler exceeded its host wall-clock budget."""


class RankCrashFault(SimAbort):
    """An injected fault crashed a simulated MPI rank (MPI_Abort model).

    Subclasses :class:`SimAbort` so the interpreter's per-thread abort
    handling applies: the crashing thread unwinds, the rest of the job
    keeps running (and typically deadlocks waiting on the dead rank,
    exactly like a real MPI job losing a rank)."""


class WorkerKillFault(RuntimeSimError):
    """The worker-kill drill fired outside a disposable worker process.

    Inside a supervised campaign worker the drill SIGKILLs the whole
    process (that is its purpose: a deterministic poison cell for
    self-testing the service).  Anywhere else — a serial in-process
    campaign, a plain ``repro check`` — dying would take the
    coordinator with it, so the drill degrades to this exception and
    the cell records an error outcome instead.

    Deliberately *not* a :class:`SimAbort`: the interpreter absorbs
    aborts as a per-rank unwind and completes the run, but a worker
    kill models the whole process dying — it must escape the
    interpreter and fail the cell."""


class AnalysisError(ReproError):
    """Raised by the static/dynamic analysis layers on malformed input."""


class ToolError(ReproError):
    """Raised by tool drivers (HOME / baselines) on misconfiguration."""
