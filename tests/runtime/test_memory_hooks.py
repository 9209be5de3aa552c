"""The VM pays for memory monitoring only at the sites the spec selects.

The bytecode compiler decides per variable or element site whether it
is monitored: an unselected site compiles with no hook lines, a
selected one carries the emitter's lines inline.  These tests read the
decision off the compiled closures, and check from the log that a
narrowed run emits exactly the selected sites' accesses of a
monitor-everything run.
"""

from __future__ import annotations

import pytest

from helpers import access_locs

from repro.events import MemAccess
from repro.minilang import ast_nodes as A
from repro.runtime import RunConfig
from repro.runtime.bytecode.compiler import (
    MONITOR_OFF,
    clear_compile_cache,
    compile_program,
)
from repro.runtime.bytecode.vm import BytecodeInterpreter
from repro.workloads.npb import build_racy_npb
from repro.workloads.npb.races import LU_SPEC


def _site_closures(compiled):
    """``(hooked, plain)``: the nids of the compiled access closures with
    and without the memory monitor's lines.  Every access closure binds
    its site's ``nid``; the monitor reads the run's ``vm.mem_run``."""
    hooked, plain = set(), set()
    seen = set()
    stack = [code.code for code in compiled.codes.values()]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and hasattr(obj, "__code__"):
            code = obj.__code__
            cells = dict(zip(code.co_freevars, obj.__closure__ or ()))
            if "nid" in cells:
                nid = cells["nid"].cell_contents
                (hooked if "mem_run" in code.co_names else plain).add(nid)
            stack.extend(
                cell.cell_contents for cell in cells.values()
                if not isinstance(cell.cell_contents, A.Node)
            )
    return hooked, plain


def _locs(program, nids):
    nodes = program.table.nodes
    return {f"{nodes[n].loc.line}:{nodes[n].loc.col}" for n in nids}


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda program: MONITOR_OFF,
        lambda program: frozenset({"9999:1"}),
        lambda program: access_locs(program, {"tmp"}),
    ],
    ids=["off", "disjoint", "narrowed"],
)
def test_unmonitored_sites_never_enter_the_hook(make_spec):
    program = build_racy_npb()
    spec = make_spec(program)
    clear_compile_cache()
    hooked, plain = _site_closures(compile_program(program, spec))
    clear_compile_cache()
    selected = spec or frozenset()
    assert plain
    assert _locs(program, hooked) <= selected
    assert not _locs(program, plain) & selected
    # only a spec selecting some of the program's sites hooks any closure
    assert bool(hooked) == bool(selected & access_locs(program, {"tmp"}))


def _accesses(result, keep=lambda event: True):
    """The run's MemAccess lines without seq and time."""
    return [
        (e.proc, e.thread, e.is_write, e.cell, e.var, e.callsite, e.index)
        for e in result.log
        if type(e) is MemAccess and keep(e)
    ]


@pytest.mark.parametrize("seed", [0, 3])
def test_narrowed_hook_entries_track_emitted_events(seed):
    """A narrowed run emits exactly the selected sites' accesses of the
    monitor-everything run of the same schedule, reduction folds
    included (the fixed twin reduces ``local_norm``)."""
    for fixed in (False, True):
        _check_selected_accesses(build_racy_npb(LU_SPEC, fixed=fixed), seed, fixed)


def _check_selected_accesses(program, seed, fixed):
    sites = access_locs(program, {"tmp", "local_norm"})
    nodes = program.table.nodes
    reducing = [
        node for node in nodes
        if isinstance(node, (A.OmpParallel, A.OmpFor)) and node.reductions
    ]
    assert all(
        "local_norm" in {name for _op, name in node.reductions}
        for node in reducing
    )
    assert bool(reducing) == fixed

    def selected(event):
        # a fold (callsite 0) is selected with its construct: every
        # reduction construct here names local_norm
        if event.callsite == 0:
            return True
        loc = nodes[event.callsite].loc
        return f"{loc.line}:{loc.col}" in sites

    runs = []
    for memory_sites in (sites, None):
        config = RunConfig(
            nprocs=2, num_threads=2, seed=seed,
            monitor_memory=True, memory_sites=memory_sites,
        )
        runs.append(BytecodeInterpreter(program, config).run())
    narrowed, everything = runs
    expected = _accesses(everything, selected)
    assert expected
    assert any(line[5] == 0 for line in expected) == fixed  # folds
    assert _accesses(narrowed) == expected
    assert len(expected) < len(_accesses(everything))
