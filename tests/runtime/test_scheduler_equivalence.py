"""The scheduler loop against its reference (``reference_scheduler.py``).

Random task sets run under :class:`Scheduler` and under the
single-loop :class:`ReferenceScheduler` from the same seed.  Tasks
yield varied costs, finish, block on flags that other tasks set,
spawn children mid-run, and may meet a stall handler that sets a
flag or a step limit.  Both loops must resume the same tasks in the
same order, leave the same per-task steps, clocks and states and the
same ``total_steps``, and end the same way.

Tasks also make nested calls into subroutines that step, block, call
deeper, and return a value or raise.  The product scheduler runs a
call as a yielded generator on the task's call stack; the reference
predates that protocol, so each call site is written twice: ``yield
sub`` for the product and ``yield from sub`` for the reference.  A
caller may catch the raised exception or let it out of the task, and
out of the run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, RuntimeSimError
from repro.runtime.scheduler import Block, Scheduler, Step

from .reference_scheduler import ReferenceScheduler

NFLAGS = 3
NSUBS = 3


class Boom(Exception):
    """What a subroutine raises."""


_costs = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])
_flag = st.integers(0, NFLAGS - 1)
_call = st.tuples(st.just("call"), st.integers(0, NSUBS - 1), st.booleans())
_action = st.one_of(
    st.tuples(st.just("step"), _costs),
    st.tuples(st.just("block"), _flag),
    st.tuples(st.just("set"), _flag),
    _call,
)
_child = st.lists(_action, max_size=6)
_top_action = st.one_of(_action, st.tuples(st.just("spawn"), st.integers(0, 2)))
_sub = st.tuples(st.lists(_action, max_size=4), st.sampled_from(["return", "raise"]))
task_sets = st.fixed_dictionaries({
    "tops": st.lists(st.lists(_top_action, max_size=8), min_size=1, max_size=4),
    "children": st.lists(_child, min_size=3, max_size=3),
    # a subroutine calls only those after it, so every call returns
    "subs": st.lists(_sub, min_size=NSUBS, max_size=NSUBS),
    "seed": st.integers(0, 2**16),
    "max_steps": st.sampled_from([5, 20, 10_000]),
    "stall": st.booleans(),
})


def run_tasks(cls, spec):
    """Run *spec* under the scheduler class *cls*: the resume order, the
    per-task results, the step total and how the run ended."""
    sched = cls(seed=spec["seed"], max_steps=spec["max_steps"])
    trampolined = cls is Scheduler
    flags = [False] * NFLAGS
    order = []
    spawned = [0]

    def act(name, actions, depth):
        """The generator running *actions*; its generator calls are the
        subroutine calls, with the call protocol *cls* understands."""
        for kind, arg, *rest in actions:
            if kind == "step":
                yield Step(arg)
                order.append(name)
            elif kind == "block":
                yield Block(f"flag {arg}", lambda a=arg: flags[a])
                order.append(name)
            elif kind == "set":
                flags[arg] = True
            elif kind == "call":
                if arg < depth:
                    continue
                callee = sub(f"{name}>s{arg}", arg)
                try:
                    if trampolined:
                        value = yield callee
                    else:
                        value = yield from callee
                except Boom as err:
                    if not rest[0]:
                        raise
                    value = f"caught {err}"
                order.append((name, value))
            else:
                spawned[0] += 1
                child = f"{name}.c{spawned[0]}"
                sched.spawn(child, 0, spawned[0], task(child, spec["children"][arg]))

    def sub(name, index):
        actions, end = spec["subs"][index]
        if trampolined:
            yield act(name, actions, index + 1)
        else:
            yield from act(name, actions, index + 1)
        if end == "raise":
            raise Boom(name)
        return name

    def task(name, actions):
        order.append(name)
        if trampolined:
            yield act(name, actions, 0)
        else:
            yield from act(name, actions, 0)

    if spec["stall"]:
        def stall():
            for i, flag in enumerate(flags):
                if not flag:
                    flags[i] = True
                    return True
            return False

        sched.stall_handler = stall
    for i, actions in enumerate(spec["tops"]):
        sched.spawn(f"t{i}", i % 2, i, task(f"t{i}", actions))
    try:
        sched.run()
        ending = None
    except RuntimeSimError as err:
        blocked = getattr(err, "blocked", None)
        ending = (
            type(err).__name__, str(err),
            getattr(err, "task_steps", None),
            [str(info) for info in blocked] if blocked else None,
        )
    except Boom as err:
        ending = (type(err).__name__, str(err))
    tasks = [(t.name, t.steps, t.clock, t.state) for t in sched.tasks]
    return order, tasks, sched.total_steps, ending


@settings(max_examples=400, deadline=None)
@given(task_sets)
def test_product_loop_matches_reference(spec):
    assert run_tasks(Scheduler, spec) == run_tasks(ReferenceScheduler, spec)


_NO_SUBS = [([], "return")] * NSUBS


def test_reference_sees_every_ending():
    """The task shapes above reach all four endings the loops must
    agree on: completion, a deadlock, the step limit and an exception
    let out of a task."""
    base = {
        "children": [[], [], []], "subs": _NO_SUBS, "seed": 0,
        "max_steps": 10_000, "stall": False,
    }
    done = run_tasks(ReferenceScheduler, {
        **base, "tops": [[("block", 0)], [("step", 1.0), ("set", 0), ("spawn", 0)]],
    })
    assert done[3] is None
    stuck = run_tasks(ReferenceScheduler, {**base, "tops": [[("block", 1)]]})
    assert stuck[3][0] == DeadlockError.__name__
    limited = run_tasks(ReferenceScheduler, {
        **base, "max_steps": 5, "tops": [[("step", 1.0)] * 8],
    })
    assert limited[3][0] == "StepLimitError"
    assert limited[2] == 6
    raised = run_tasks(ReferenceScheduler, {
        **base, "subs": [([], "raise")] * NSUBS, "tops": [[("call", 0, False)]],
    })
    assert raised[3] == ("Boom", "t0>s0")


class TestNestedCalls:
    """Each call-protocol path the random sets above draw from, pinned
    with one hand-written set that takes it."""

    base = {
        "children": [[], [], []], "seed": 3, "max_steps": 10_000,
        "stall": False,
    }

    def both(self, spec):
        product = run_tasks(Scheduler, {**self.base, **spec})
        assert product == run_tasks(ReferenceScheduler, {**self.base, **spec})
        return product

    def test_return_value_reaches_the_caller(self):
        order, tasks, total, ending = self.both({
            "subs": [([("step", 1.0), ("call", 1, False)], "return"),
                     ([("step", 2.0)], "return"), ([], "return")],
            "tops": [[("call", 0, False), ("step", 0.5)]],
        })
        assert ending is None
        assert ("t0>s0", "t0>s0>s1") in order
        assert ("t0", "t0>s0") in order
        assert tasks == [("t0", 3, 3.5, "done")]
        assert total == 3

    def test_caught_exception_lets_the_caller_go_on(self):
        order, tasks, _total, ending = self.both({
            "subs": [([("step", 1.0)], "raise"), ([], "return"), ([], "return")],
            "tops": [[("call", 0, True), ("step", 1.0)]],
        })
        assert ending is None
        assert ("t0", "caught t0>s0") in order
        assert tasks == [("t0", 2, 2.0, "done")]

    def test_block_inside_a_call(self):
        order, tasks, _total, ending = self.both({
            "subs": [([("call", 2, False)], "return"), ([], "return"),
                     ([("block", 0), ("step", 1.0)], "return")],
            "tops": [[("call", 0, False)], [("step", 1.0), ("set", 0)]],
        })
        assert ending is None
        assert [t[3] for t in tasks] == ["done", "done"]
        assert tasks[0][1] == 2

    def test_task_finishes_inside_a_call(self):
        # the root's last act is a call whose callee's last act is a
        # call: three generators return on the resume after the Step,
        # which is no step of its own
        _order, tasks, total, ending = self.both({
            "subs": [([("call", 1, False)], "return"),
                     ([("step", 4.0)], "return"), ([], "return")],
            "tops": [[("call", 0, False)]],
        })
        assert ending is None
        assert tasks == [("t0", 1, 4.0, "done")]
        assert total == 1

    def test_uncaught_exception_leaves_the_run(self):
        _order, tasks, total, ending = self.both({
            "subs": [([("step", 1.0), ("call", 1, False)], "return"),
                     ([("step", 1.0)], "raise"), ([], "return")],
            "tops": [[("call", 0, False)], [("step", 1.0)] * 5],
        })
        assert ending == ("Boom", "t0>s0>s1")
        assert tasks[0][1:] == (2, 2.0, "ready")
        assert total == sum(t[1] for t in tasks)
