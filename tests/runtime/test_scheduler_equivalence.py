"""The scheduler loop against its reference (``reference_scheduler.py``).

Random task sets run under :class:`Scheduler` and under the
single-loop :class:`ReferenceScheduler` from the same seed.  Tasks
yield varied costs, finish, block on flags that other tasks set,
spawn children mid-run, and may meet a stall handler that sets a
flag or a step limit.  Both loops must resume the same tasks in the
same order, leave the same per-task steps, clocks and states and the
same ``total_steps``, and end the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, RuntimeSimError
from repro.runtime.scheduler import Block, Scheduler, Step

from .reference_scheduler import ReferenceScheduler

NFLAGS = 3

_costs = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])
_flag = st.integers(0, NFLAGS - 1)
_action = st.one_of(
    st.tuples(st.just("step"), _costs),
    st.tuples(st.just("block"), _flag),
    st.tuples(st.just("set"), _flag),
)
_child = st.lists(_action, max_size=6)
_top_action = st.one_of(_action, st.tuples(st.just("spawn"), st.integers(0, 2)))
task_sets = st.fixed_dictionaries({
    "tops": st.lists(st.lists(_top_action, max_size=8), min_size=1, max_size=4),
    "children": st.lists(_child, min_size=3, max_size=3),
    "seed": st.integers(0, 2**16),
    "max_steps": st.sampled_from([5, 20, 10_000]),
    "stall": st.booleans(),
})


def run_tasks(cls, spec):
    """Run *spec* under the scheduler class *cls*: the resume order, the
    per-task results, the step total and how the run ended."""
    sched = cls(seed=spec["seed"], max_steps=spec["max_steps"])
    flags = [False] * NFLAGS
    order = []
    spawned = [0]

    def task(name, actions):
        order.append(name)
        for kind, arg in actions:
            if kind == "step":
                yield Step(arg)
                order.append(name)
            elif kind == "block":
                yield Block(f"flag {arg}", lambda a=arg: flags[a])
                order.append(name)
            elif kind == "set":
                flags[arg] = True
            else:
                spawned[0] += 1
                child = f"{name}.c{spawned[0]}"
                sched.spawn(child, 0, spawned[0], task(child, spec["children"][arg]))

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
    tasks = [(t.name, t.steps, t.clock, t.state) for t in sched.tasks]
    return order, tasks, sched.total_steps, ending


@settings(max_examples=300, deadline=None)
@given(task_sets)
def test_product_loop_matches_reference(spec):
    assert run_tasks(Scheduler, spec) == run_tasks(ReferenceScheduler, spec)


def test_reference_sees_every_ending():
    """The task shapes above reach all three endings the loops must
    agree on: completion, a deadlock and the step limit."""
    base = {"children": [[], [], []], "seed": 0, "max_steps": 10_000, "stall": False}
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
