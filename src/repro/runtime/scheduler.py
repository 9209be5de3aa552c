"""Cooperative, seed-deterministic task scheduler.

Every simulated thread (an MPI process main thread or an OpenMP team
member) is a Python generator that yields scheduling points:

* :class:`Step` — "I did work costing *cost* virtual time units".
* :class:`Block` — "park me until *is_ready()* returns True".

Call protocol: a task may also yield a generator; that is a call.
Each task keeps an explicit call stack, so a resume enters only its
innermost generator instead of every level of a ``yield from`` chain.
The scheduler pushes the yielded generator and runs it within the same
step.  When a generator returns, its value is ``send``-ed to its
caller; when it raises, the exception is ``throw``-n into its caller:
what ``yield from`` would deliver.  ``yield from`` still works inside a
task, since a call yielded beneath it passes through it both ways.
Only a Step or a Block ends a step, so step counts, RNG draws and
clocks do not depend on how a task splits its work into calls.  These
rare paths live in :meth:`Scheduler._transfer`; a resume that yields a
Step straight away never reaches it.

The scheduler repeatedly picks one runnable task, uniformly at random
from a seeded RNG, and advances it to its next Step or Block.
Runnability of blocked tasks is re-evaluated every iteration, so a task
whose wake condition was consumed by a competitor (e.g. two receives
racing for one message) simply stays blocked.

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
from types import GeneratorType
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

#: what :meth:`Scheduler._transfer` returns when the task's root
#: generator returned (any yielded value, None included, is a step)
_FINISHED = object()


class Task:
    """One schedulable thread of control.

    ``gen`` is the innermost generator of the task's call stack, the
    one a resume enters; ``stack`` holds its callers, root first.
    """

    __slots__ = ("name", "proc", "thread", "gen", "stack", "state", "clock",
                 "block", "steps")

    def __init__(self, name: str, proc: int, thread: int, gen: TaskGen) -> None:
        self.name = name
        self.proc = proc
        self.thread = thread
        self.gen = gen
        self.stack: List[TaskGen] = []
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
        order (blocked tasks re-evaluated in place) and resumes the
        picked task until it yields a Step or a Block; calls, returns
        and exceptions on the way go through :meth:`_transfer`, and a
        task whose root returns has taken no step.  While no task is
        blocked, an inner loop draws straight from the live list with
        no blocked-count, length or state checks per step; it hands
        back to the outer loop on a Block, a finished task, or a spawn
        (seen as the live list growing), the three events that change
        the runnable set.
        """
        if self.max_wall_seconds > 0:
            self._deadline = _time.monotonic() + self.max_wall_seconds
        live = self._live
        nblocked = sum(1 for t in live if t.state == _BLOCKED)
        # Inline random.Random's _randbelow_with_getrandbits: the same
        # getrandbits consumption as randrange(n) without the
        # randrange/_randbelow call frames on every step.
        getrandbits = self.rng.getrandbits
        total = self.total_steps
        # one compare per step covers both budgets: the step limit and
        # the wall clock, which is read every _WALL_CHECK_INTERVAL steps
        check_at = self._next_check(total)
        transfer = self._transfer
        gentype, finished = GeneratorType, _FINISHED
        try:
            while True:
                if not nblocked:
                    n = len(live)
                    if not n:
                        return
                    k = n.bit_length()
                    while True:
                        r = getrandbits(k)
                        while r >= n:
                            r = getrandbits(k)
                        task = live[r]
                        try:
                            yielded = next(task.gen)
                        except BaseException as exc:
                            yielded = transfer(task, None, exc)
                            if yielded is finished:
                                break
                        else:
                            if type(yielded) is gentype:
                                yielded = transfer(task, yielded, None)
                                if yielded is finished:
                                    break
                        task.steps += 1
                        total += 1
                        if total >= check_at:
                            self._check_budgets(total)
                            check_at = self._next_check(total)
                        if type(yielded) is Step:
                            task.clock += yielded.cost
                            if len(live) != n:
                                break
                        elif type(yielded) is Block:
                            task.state = _BLOCKED
                            task.block = yielded
                            nblocked = 1
                            break
                        else:
                            raise SchedulerError(
                                f"task {task.name} yielded {yielded!r}"
                            )
                    continue
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
                except BaseException as exc:
                    yielded = transfer(task, None, exc)
                    if yielded is finished:
                        continue
                else:
                    if type(yielded) is gentype:
                        yielded = transfer(task, yielded, None)
                        if yielded is finished:
                            continue
                task.steps += 1
                total += 1
                if total >= check_at:
                    self._check_budgets(total)
                    check_at = self._next_check(total)
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

    def _transfer(self, task: Task, yielded, exc: Optional[BaseException]):
        """The rare paths of resuming *task*: a call (*yielded* is a
        generator), or the innermost generator's return (*exc* is its
        StopIteration) or exception (*exc*).

        A call is pushed and entered; a return value is sent to the
        caller and an exception thrown into it, popping the stack.  This
        repeats until the task yields something other than a call, which
        is returned: a Step or a Block, or anything else for the loop to
        reject as it rejects a bad yield at the root.  Returns
        ``_FINISHED`` when the root returns (the task is then done and
        off the live list), and re-raises what the root lets out.
        """
        stack = task.stack
        try:
            while True:
                if exc is None:
                    if type(yielded) is not GeneratorType:
                        return yielded
                    stack.append(task.gen)
                    task.gen = gen = yielded
                elif stack:
                    task.gen = gen = stack.pop()
                elif type(exc) is StopIteration:
                    task.state = _DONE
                    self._live.remove(task)
                    return _FINISHED
                else:
                    raise exc
                try:
                    if exc is None:
                        yielded = next(gen)
                    elif type(exc) is StopIteration:
                        yielded = gen.send(exc.value)
                        exc = None
                    else:
                        yielded = gen.throw(exc)
                        exc = None
                except BaseException as err:
                    exc = err
        finally:
            # the exception's traceback holds this frame: keeping it in
            # a local would make a reference cycle per thrown exception
            exc = None

    def _next_check(self, total: int) -> int:
        """The first step count after *total* at which a budget must be
        checked: past the step limit, or the next wall-clock reading."""
        check_at = self.max_steps + 1
        if self._deadline is not None:
            check_at = min(
                check_at, (total // _WALL_CHECK_INTERVAL + 1) * _WALL_CHECK_INTERVAL
            )
        return check_at

    def _check_budgets(self, total: int) -> None:
        """Raise when *total* steps exceed the step limit or, on a
        wall-clock reading step, the run is past its deadline."""
        if total > self.max_steps:
            raise StepLimitError(
                f"scheduler exceeded {self.max_steps} steps; "
                "simulated program is probably in an infinite loop "
                f"({self._busiest_tasks()})",
                task_steps={t.name: t.steps for t in self.tasks},
            )
        if (
            self._deadline is not None
            and not total % _WALL_CHECK_INTERVAL
            and _time.monotonic() > self._deadline
        ):
            raise WallClockLimitError(
                f"scheduler exceeded its {self.max_wall_seconds:.1f}s "
                f"wall-clock budget after {total} steps"
            )

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
