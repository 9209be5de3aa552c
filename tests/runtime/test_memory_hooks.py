"""The VM pays for memory monitoring only at the sites the spec selects.

The bytecode compiler decides per variable site whether it is
monitored: an unselected site compiles with no hook, a selected one
carries ``compiler._mem_event``'s lines inline.  A site compiled while
``_mem_event`` is replaced calls the replacement instead, so these tests
count hook entries deterministically by swapping in a counting hook
before compiling; the last test checks that a called hook and the
inline lines emit the same events.
"""

from __future__ import annotations

import pytest

from repro.events import MemAccess
from repro.runtime import RunConfig
from repro.runtime.bytecode import compiler
from repro.runtime.bytecode.compiler import clear_compile_cache
from repro.runtime.bytecode.vm import BytecodeInterpreter
from repro.runtime.interpreter import Interpreter
from repro.workloads.npb import RACY_VARS, build_racy_npb


@pytest.fixture
def hook_entries(monkeypatch):
    """Entry counts of the VM's two ways into the memory monitor: the
    compiled sites' hook and the shared ``_mem_access`` (reduction
    folds)."""
    counts = {"sites": 0, "shared": 0}
    site_hook = compiler._mem_event
    shared = Interpreter._mem_access

    def counting_site_hook(*args):
        counts["sites"] += 1
        return site_hook(*args)

    def counting_shared(self, *args, **kwargs):
        counts["shared"] += 1
        return shared(self, *args, **kwargs)

    monkeypatch.setattr(compiler, "_mem_event", counting_site_hook)
    monkeypatch.setattr(Interpreter, "_mem_access", counting_shared)
    clear_compile_cache()
    yield counts
    clear_compile_cache()


def _run(program, seed=0, **cfg):
    config = RunConfig(nprocs=2, num_threads=2, seed=seed, **cfg)
    return BytecodeInterpreter(program, config).run()


@pytest.mark.parametrize(
    "cfg",
    [
        {},
        {"monitor_memory": True, "monitored_vars": frozenset({"no_such_var"})},
    ],
    ids=["off", "disjoint"],
)
def test_unmonitored_sites_never_enter_the_hook(hook_entries, cfg):
    result = _run(build_racy_npb(), **cfg)
    assert result.completed
    assert hook_entries["sites"] == 0
    assert not any(type(e) is MemAccess for e in result.log)


@pytest.mark.parametrize("seed", [0, 3])
def test_narrowed_hook_entries_track_emitted_events(hook_entries, seed):
    result = _run(
        build_racy_npb(), seed=seed,
        monitor_memory=True, monitored_vars=frozenset(RACY_VARS),
    )
    emitted = sum(1 for e in result.log if type(e) is MemAccess)
    entries = hook_entries["sites"] + hook_entries["shared"]
    assert emitted > 0
    assert entries <= 1.01 * emitted, (entries, emitted)


@pytest.mark.parametrize("monitored", [None, frozenset(RACY_VARS)], ids=["all", "narrowed"])
def test_called_hook_emits_what_the_inline_lines_emit(monkeypatch, monitored):
    cfg = {"monitor_memory": True, "monitored_vars": monitored}
    clear_compile_cache()
    inline = _run(build_racy_npb(), seed=3, **cfg)
    stock = compiler._mem_event
    monkeypatch.setattr(compiler, "_mem_event", lambda *args: stock(*args))
    clear_compile_cache()
    try:
        called = _run(build_racy_npb(), seed=3, **cfg)
    finally:
        clear_compile_cache()
    assert any(type(e) is MemAccess for e in inline.log)
    assert list(called.log) == list(inline.log)
