"""Cooperative, seed-deterministic task scheduler.

Every simulated thread (an MPI process main thread or an OpenMP team
member) is a Python generator that yields scheduling points:

* :class:`Step` — "I did work costing *cost* virtual time units".
* :class:`Block` — "park me until *is_ready()* returns True".

The scheduler repeatedly picks one runnable task, uniformly at random
from a seeded RNG, and advances it by one yield.  Runnability of blocked
tasks is re-evaluated every iteration, so a task whose wake condition
was consumed by a competitor (e.g. two receives racing for one message)
simply stays blocked.

Deadlock detection: when no task is runnable and at least one is
blocked, the scheduler raises :class:`DeadlockError` carrying the
blocked tasks' reasons — this is the graph-less analogue of the cycle
detection the paper mentions, and is what the Fig. 1 / Fig. 2 case
studies exercise.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Union

from ..errors import (
    DeadlockError,
    SchedulerError,
    StepLimitError,
    WallClockLimitError,
)

#: Default hard cap on scheduler iterations (runaway-program guard).
#: Shared with :class:`~repro.runtime.config.RunConfig` so the two stay
#: in sync.
DEFAULT_MAX_STEPS = 50_000_000

#: Re-check the host wall clock only every this many steps: a syscall
#: per simulated step would dominate the profile.
_WALL_CHECK_INTERVAL = 4096


@dataclass(frozen=True)
class Step:
    """Yielded by a task after doing *cost* units of work."""

    cost: float = 0.0


@dataclass(frozen=True)
class Block:
    """Yielded by a task that must wait for *is_ready* to become true."""

    reason: str
    is_ready: Callable[[], bool]


SchedYield = Union[Step, Block]
TaskGen = Generator[SchedYield, None, None]

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"


class Task:
    """One schedulable thread of control."""

    __slots__ = ("name", "proc", "thread", "gen", "state", "clock", "block", "steps")

    def __init__(self, name: str, proc: int, thread: int, gen: TaskGen) -> None:
        self.name = name
        self.proc = proc
        self.thread = thread
        self.gen = gen
        self.state = _READY
        self.clock = 0.0
        self.block: Optional[Block] = None
        self.steps = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} p{self.proc}t{self.thread} {self.state} t={self.clock:.1f}>"


@dataclass
class BlockedInfo:
    """Diagnostic snapshot of one blocked task at deadlock time."""

    name: str
    proc: int
    thread: int
    reason: str

    def __str__(self) -> str:
        return f"[rank {self.proc} thread {self.thread}] blocked: {self.reason}"


def _blocked_by_rank(infos: List["BlockedInfo"]) -> str:
    """Summarize every blocked rank with its pending operations, so a
    deadlock report names the full wait set (timeout-vs-deadlock triage
    needs more than a count)."""
    by_rank: dict = {}
    for info in infos:
        by_rank.setdefault(info.proc, []).append(f"t{info.thread}: {info.reason}")
    return "; ".join(
        f"rank {proc} [{', '.join(reasons)}]" for proc, reasons in sorted(by_rank.items())
    )


class Scheduler:
    """Runs a set of cooperative tasks to completion (or deadlock)."""

    def __init__(
        self,
        seed: int = 0,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_wall_seconds: float = 0.0,
    ) -> None:
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        #: host wall-clock budget for the whole run; 0 = unlimited
        self.max_wall_seconds = max_wall_seconds
        self._deadline: Optional[float] = None
        self.tasks: List[Task] = []
        #: not-yet-done tasks in spawn order (a task leaves the moment
        #: it finishes) — scanning finished tasks every step dominated
        #: the profile otherwise
        self._live: List[Task] = []
        self.total_steps = 0
        #: called when no task is runnable but some are blocked; returns
        #: True if it unblocked something (e.g. timed out a waiter), in
        #: which case runnability is re-evaluated instead of raising
        #: DeadlockError
        self.stall_handler: Optional[Callable[[], bool]] = None

    # -- task management -----------------------------------------------------

    def spawn(
        self,
        name: str,
        proc: int,
        thread: int,
        gen: TaskGen,
        start_clock: float = 0.0,
    ) -> Task:
        """Register a new task. May be called while :meth:`run` is active
        (OpenMP team forks spawn workers mid-run)."""
        task = Task(name, proc, thread, gen)
        task.clock = start_clock
        self.tasks.append(task)
        self._live.append(task)
        return task

    # -- execution ------------------------------------------------------------

    def _busiest_tasks(self, top: int = 4) -> str:
        """Per-task step counts of the hungriest tasks, for diagnostics."""
        ranked = sorted(self.tasks, key=lambda t: t.steps, reverse=True)[:top]
        return "busiest tasks: " + ", ".join(
            f"{t.name}: {t.steps} steps" for t in ranked
        )

    def run(self) -> None:
        """Run all tasks to completion; raises DeadlockError on deadlock.

        Each step makes one RNG draw over the runnable tasks in spawn
        order (blocked tasks re-evaluated in place); a StopIteration is
        not counted as a step.  A blocked-task counter lets the common
        all-ready iteration pick straight from the live list without
        rebuilding it.
        """
        if self.max_wall_seconds > 0:
            self._deadline = _time.monotonic() + self.max_wall_seconds
        live = self._live
        nblocked = sum(1 for t in live if t.state == _BLOCKED)
        # Inline random.Random's _randbelow_with_getrandbits: the same
        # getrandbits consumption as randrange(n) without the
        # randrange/_randbelow call frames on every step.
        getrandbits = self.rng.getrandbits
        max_steps = self.max_steps
        deadline = self._deadline
        total = self.total_steps
        try:
            while True:
                if not nblocked:
                    if not live:
                        return
                    runnable = live
                else:
                    runnable = [
                        t for t in live
                        if t.state == _READY or t.block.is_ready()
                    ]
                    if not runnable:
                        runnable = self._stalled(live)
                n = len(runnable)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                task = runnable[r]
                if task.state == _BLOCKED:
                    nblocked -= 1
                    task.state = _READY
                    task.block = None
                try:
                    yielded = next(task.gen)
                except StopIteration:
                    task.state = _DONE
                    live.remove(task)
                    continue
                task.steps += 1
                total += 1
                if total > max_steps:
                    raise StepLimitError(
                        f"scheduler exceeded {self.max_steps} steps; "
                        "simulated program is probably in an infinite loop "
                        f"({self._busiest_tasks()})",
                        task_steps={t.name: t.steps for t in self.tasks},
                    )
                if (
                    deadline is not None
                    and not total % _WALL_CHECK_INTERVAL
                    and _time.monotonic() > deadline
                ):
                    raise WallClockLimitError(
                        f"scheduler exceeded its {self.max_wall_seconds:.1f}s "
                        f"wall-clock budget after {total} steps"
                    )
                cls = type(yielded)
                if cls is Step:
                    task.clock += yielded.cost
                elif cls is Block:
                    task.state = _BLOCKED
                    task.block = yielded
                    nblocked += 1
                else:
                    raise SchedulerError(
                        f"task {task.name} yielded {yielded!r}"
                    )
        finally:
            # keep the public counter accurate however the loop exits
            # (done, limit raise, a fault propagating out of a task)
            self.total_steps = total

    def _stalled(self, live: List[Task]) -> List[Task]:
        """No live task is runnable (so every one is blocked): let the
        stall handler unblock some and return them, or raise
        :class:`DeadlockError` naming every blocked task."""
        while self.stall_handler and self.stall_handler():
            runnable = [t for t in live if t.block.is_ready()]
            if runnable:
                return runnable
        infos = [BlockedInfo(t.name, t.proc, t.thread, t.block.reason) for t in live]
        raise DeadlockError(
            f"deadlock: {len(live)} task(s) blocked with no runnable "
            f"task; {_blocked_by_rank(infos)}",
            blocked=infos,
        )

    # -- results ------------------------------------------------------------

    def makespan(self) -> float:
        """Maximum virtual clock over all tasks (the run's execution time)."""
        return max((t.clock for t in self.tasks), default=0.0)

    def clocks_by_process(self) -> dict:
        out: dict = {}
        for t in self.tasks:
            out[t.proc] = max(out.get(t.proc, 0.0), t.clock)
        return out
