"""Events are never modified after they are built.

The event classes are plain slotted dataclasses, not frozen ones (see
the ``repro.events.event`` docstring), so nothing stops an analysis
from assigning to an event's field.  These tests are the guard instead:
every analysis that reads a run's log leaves its dumped bytes exactly as
the run recorded them, and events keep value equality and hashing.
"""

import dataclasses
import io

import pytest

from repro.baselines import IntelThreadChecker, Marmot
from repro.events import MPICall, dump_log
from repro.faults import builtin_plans
from repro.home import Home
from repro.runtime import run_program
from repro.workloads.npb import build_ft_mz, build_lu_mz, build_racy_npb

#: case -> (program builder, builtin fault plan name or None)
CASES = {
    "racy-npb": (build_racy_npb, None),
    "lu-jitter": (build_lu_mz, "jitter"),
    "ft-crash": (build_ft_mz, "crash"),
}

TOOLS = {"home": Home, "itc": IntelThreadChecker, "marmot": Marmot}


def trace_bytes(log):
    buffer = io.StringIO()
    dump_log(log, buffer)
    return buffer.getvalue()


def fault_overrides(plan):
    return {} if plan is None else {"fault_plan": builtin_plans(2)[plan]}


def recorded_run(tool, case):
    """``(result, static)`` of *tool*'s run of *case*, not yet analyzed."""
    build, plan = CASES[case]
    to_run, static = tool.prepare(build())
    config = tool.run_config(2, 2, 0, static=static, **fault_overrides(plan))
    return run_program(to_run, config), static


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("tool_name", sorted(TOOLS))
def test_analyze_leaves_the_log_unchanged(tool_name, case):
    tool = TOOLS[tool_name]()
    result, static = recorded_run(tool, case)
    before = trace_bytes(result.log)
    tool.analyze(result, static)
    assert trace_bytes(result.log) == before
    tool.analyze(result, static)  # a second pass reads the same log
    assert trace_bytes(result.log) == before


@pytest.mark.parametrize("case", sorted(CASES))
def test_home_check_keeps_the_log_it_recorded(case):
    build, plan = CASES[case]
    expected = trace_bytes(recorded_run(Home(), case)[0].log)
    report = Home().check(build(), seed=0, **fault_overrides(plan))
    assert trace_bytes(report.execution.log) == expected


def test_racy_npb_log_is_monitored():
    """The racy case exercises dense MemAccess streams, not an empty log."""
    result, _ = recorded_run(Home(), "racy-npb")
    assert result.log.counts().get("MemAccess", 0) > 1000


def test_equal_valued_events_compare_and_hash_equal():
    result, _ = recorded_run(IntelThreadChecker(), "lu-jitter")
    seen = set()
    for event in result.log:
        cls = type(event)
        if cls in seen:
            continue
        seen.add(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        twin = cls(*(getattr(event, name) for name in names))
        assert twin is not event
        assert twin == event
        if cls is not MPICall:  # its ``args`` dict makes it unhashable
            assert hash(twin) == hash(event)
            assert len({event, twin}) == 1
        moved = dataclasses.replace(event, seq=event.seq + 1)
        assert moved != event
    assert len(seen) >= 8
