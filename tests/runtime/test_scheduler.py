"""Cooperative scheduler unit tests."""

import gc

import pytest

from repro.errors import (
    DeadlockError,
    SchedulerError,
    StepLimitError,
    WallClockLimitError,
)
from repro.runtime.scheduler import Block, Scheduler, Step


def make_counter_task(log, name, n, cost=1.0):
    def gen():
        for i in range(n):
            log.append((name, i))
            yield Step(cost)
    return gen()


class TestBasicExecution:
    def test_single_task_runs_to_completion(self):
        log = []
        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, make_counter_task(log, "a", 3))
        sched.run()
        assert log == [("a", 0), ("a", 1), ("a", 2)]

    def test_clock_accumulates_step_costs(self):
        sched = Scheduler(seed=0)
        task = sched.spawn("a", 0, 0, make_counter_task([], "a", 4, cost=2.5))
        sched.run()
        assert task.clock == 10.0

    def test_makespan_is_max_clock(self):
        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, make_counter_task([], "a", 2, cost=1.0))
        sched.spawn("b", 1, 0, make_counter_task([], "b", 2, cost=5.0))
        sched.run()
        assert sched.makespan() == 10.0

    def test_interleaving_depends_on_seed(self):
        orders = set()
        for seed in range(8):
            log = []
            sched = Scheduler(seed=seed)
            sched.spawn("a", 0, 0, make_counter_task(log, "a", 3))
            sched.spawn("b", 0, 1, make_counter_task(log, "b", 3))
            sched.run()
            orders.add(tuple(log))
        assert len(orders) > 1

    def test_same_seed_same_interleaving(self):
        def trace(seed):
            log = []
            sched = Scheduler(seed=seed)
            sched.spawn("a", 0, 0, make_counter_task(log, "a", 5))
            sched.spawn("b", 0, 1, make_counter_task(log, "b", 5))
            sched.run()
            return log
        assert trace(3) == trace(3)


class TestBlocking:
    def test_block_until_condition(self):
        flag = {"ready": False}
        log = []

        def waiter():
            yield Block("wait for flag", lambda: flag["ready"])
            log.append("woke")

        def setter():
            yield Step(1.0)
            flag["ready"] = True
            log.append("set")

        sched = Scheduler(seed=1)
        sched.spawn("w", 0, 0, waiter())
        sched.spawn("s", 0, 1, setter())
        sched.run()
        assert log.index("set") < log.index("woke")

    def test_competing_waiters_one_wins_loser_stays_blocked(self):
        # Two tasks wait on one token: exactly one is woken (the pick
        # re-evaluates conditions), and the loser deadlocks.
        tokens = [1]
        winners = []

        def taker(name):
            yield Block(f"{name} waits", lambda: bool(tokens))
            tokens.pop()
            winners.append(name)
            yield Step(1.0)

        sched = Scheduler(seed=2)
        sched.spawn("a", 0, 0, taker("a"))
        sched.spawn("b", 0, 1, taker("b"))
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        assert len(winners) == 1
        assert len(exc.value.blocked) == 1

    def test_deadlock_detected(self):
        def stuck():
            yield Block("never", lambda: False)

        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, stuck())
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        assert exc.value.blocked
        assert exc.value.blocked[0].reason == "never"

    def test_deadlock_reports_all_blocked(self):
        def stuck(reason):
            yield Block(reason, lambda: False)

        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, stuck("r1"))
        sched.spawn("b", 1, 0, stuck("r2"))
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        assert {b.reason for b in exc.value.blocked} == {"r1", "r2"}

    def test_deadlock_message_names_ranks_and_pending_ops(self):
        # timeout-vs-deadlock triage needs the full wait set in the
        # message itself, grouped per rank with each pending operation
        def stuck(reason):
            yield Block(reason, lambda: False)

        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, stuck("mpi_recv from rank 1 tag 9"))
        sched.spawn("b", 0, 1, stuck("mpi_barrier on comm 0"))
        sched.spawn("c", 1, 0, stuck("mpi_recv from rank 0 tag 9"))
        with pytest.raises(DeadlockError) as exc:
            sched.run()
        message = str(exc.value)
        assert "rank 0 [t0: mpi_recv from rank 1 tag 9, " \
               "t1: mpi_barrier on comm 0]" in message
        assert "rank 1 [t0: mpi_recv from rank 0 tag 9]" in message

    def test_spawn_during_run(self):
        log = []
        sched = Scheduler(seed=0)

        def parent():
            yield Step(1.0)
            sched.spawn("child", 0, 1, make_counter_task(log, "child", 2))
            yield Step(1.0)

        sched.spawn("p", 0, 0, parent())
        sched.run()
        assert ("child", 1) in log

    def test_max_steps_guard(self):
        def forever():
            while True:
                yield Step(1.0)

        sched = Scheduler(seed=0, max_steps=100)
        sched.spawn("loop", 0, 0, forever())
        with pytest.raises(SchedulerError, match="infinite loop"):
            sched.run()

    def test_bad_yield_type(self):
        def bad():
            yield 42

        sched = Scheduler(seed=0)
        sched.spawn("bad", 0, 0, bad())
        with pytest.raises(SchedulerError):
            sched.run()

    def test_clocks_by_process(self):
        sched = Scheduler(seed=0)
        sched.spawn("a", 0, 0, make_counter_task([], "a", 1, cost=3.0))
        sched.spawn("b", 0, 1, make_counter_task([], "b", 1, cost=7.0))
        sched.spawn("c", 1, 0, make_counter_task([], "c", 1, cost=2.0))
        sched.run()
        assert sched.clocks_by_process() == {0: 7.0, 1: 2.0}


class Boom(Exception):
    pass


def raising_callee():
    yield Step(1.0)
    raise Boom("callee")


def catching_caller(log, then_step):
    try:
        yield raising_callee()
    except Boom as err:
        log.append(str(err))
    if then_step:
        yield Step(1.0)


class TestCallProtocol:
    def test_bad_yield_inside_a_call(self):
        def bad():
            yield 42

        def caller():
            yield bad()

        sched = Scheduler(seed=0)
        sched.spawn("bad", 0, 0, caller())
        with pytest.raises(SchedulerError, match="yielded 42"):
            sched.run()

    @pytest.mark.parametrize("then_step", [True, False])
    def test_caught_exception_leaves_no_cyclic_garbage(self, then_step):
        """Neither the exception thrown into a caller nor the
        StopIteration of a root returning right after it may keep the
        scheduler frame that handled it: exception -> traceback ->
        frame -> exception would be a cycle only the collector frees."""
        log = []
        sched = Scheduler(seed=0)
        for i in range(3):
            sched.spawn(f"t{i}", 0, i, catching_caller(log, then_step))
        gc.collect()
        gc.disable()
        try:
            sched.run()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert log == ["callee"] * 3
        assert sched.total_steps == (6 if then_step else 3)

    def test_exception_out_of_a_call_leaves_no_cyclic_garbage(self):
        def caller():
            yield raising_callee()

        sched = Scheduler(seed=0)
        sched.spawn("t", 0, 0, caller())
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(Boom):
                sched.run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBudgetDiagnostics:
    def forever(self):
        while True:
            yield Step(1.0)

    def test_step_limit_carries_per_task_counts(self):
        sched = Scheduler(seed=0, max_steps=100)
        sched.spawn("hungry", 0, 0, self.forever())
        sched.spawn("idle", 0, 1, make_counter_task([], "idle", 2))
        with pytest.raises(StepLimitError) as exc:
            sched.run()
        assert exc.value.task_steps["hungry"] > exc.value.task_steps["idle"]
        assert sum(exc.value.task_steps.values()) == 101

    def test_step_limit_message_names_busiest_task(self):
        sched = Scheduler(seed=0, max_steps=100)
        sched.spawn("spinner", 0, 0, self.forever())
        with pytest.raises(StepLimitError, match="busiest tasks: spinner"):
            sched.run()

    def test_step_limit_is_a_scheduler_error(self):
        assert issubclass(StepLimitError, SchedulerError)
        assert issubclass(WallClockLimitError, SchedulerError)

    def test_wall_clock_budget_enforced(self):
        sched = Scheduler(seed=0, max_wall_seconds=0.05)
        sched.spawn("spinner", 0, 0, self.forever())
        with pytest.raises(WallClockLimitError, match="wall-clock budget"):
            sched.run()

    def test_zero_wall_budget_means_unlimited(self):
        sched = Scheduler(seed=0, max_wall_seconds=0.0)
        sched.spawn("t", 0, 0, make_counter_task([], "t", 50))
        sched.run()  # must not raise
        assert sched.total_steps == 50
