"""Reference scheduler loop: :meth:`Scheduler.run` before the product
split it into an all-ready inner loop and a loop for when some task is
blocked.

It is kept as the oracle the product loop is compared against
(``test_scheduler_equivalence.py``): for any task set, both must resume
the same tasks in the same order, leave the same per-task steps and
clocks and the same ``total_steps``, and raise the same limit or
deadlock error at the same step.  Only the loop is copied; spawning,
budgets, stall handling and results are the product's own.  It also
predates the product's call protocol (a yielded generator is a call),
so a task run under it makes its calls with ``yield from``.
"""

import time as _time

from repro.errors import SchedulerError
from repro.runtime.scheduler import (
    _BLOCKED,
    _DONE,
    _READY,
    Block,
    Scheduler,
    Step,
)


class ReferenceScheduler(Scheduler):
    """The product scheduler with the single-loop ``run``."""

    def run(self) -> None:
        """:meth:`Scheduler.run` as it stood before its all-ready inner
        loop: one loop that checks the blocked count, the runnable
        length and the picked task's state on every step."""
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
        n = k = 0
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
                if len(runnable) != n:
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
