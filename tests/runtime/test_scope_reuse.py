"""Loop-iteration scopes and ``compute`` charges, under both engines.

The bytecode VM builds one body scope per execution of a loop and
empties it at each later iteration, where the tree-walk builds a fresh
scope per iteration; ``compute(<literal>)`` hands the scheduler its
cached Step instead of a generator.  None of that may be
visible: a read before the body's own declaration still sees the outer
binding, every iteration's cells are new (fresh cids), a team forked
in an iteration sees that iteration's cells, a return or abort
mid-iteration restores the thread's scope, and each run charges its
own cost model's compute units.
"""

from __future__ import annotations

import types

import pytest

from helpers import drive, run_main, wrap_main

from repro.errors import SimAbort
from repro.events import MemAccess
from repro.minilang import parse, validate
from repro.runtime import RunConfig, make_interpreter
from repro.runtime.bytecode.compiler import compile_program, monitor_spec
from repro.runtime.costmodel import CostModel
from repro.runtime.scheduler import Step
from repro.runtime.values import ArrayValue, Scope

ENGINES = ("ast", "bytecode")

#: loop heads whose body runs three times with ``i`` = 0, 1, 2
LOOPS = {
    "for": ("", "for (var i = 0; i < 3; i = i + 1) {", "}"),
    "while": ("var i = -1;", "while (i < 2) { i = i + 1;", "}"),
    "omp-for": ("", "omp for for (var i = 0; i < 3; i = i + 1) {", "}"),
}


def loop(kind: str, body: str) -> str:
    before, head, tail = LOOPS[kind]
    return f"{before}\n{head}\n{body}\n{tail}"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", sorted(LOOPS))
class TestIterationScopes:
    def test_read_before_own_var_sees_outer_binding(self, kind, engine):
        body = loop(kind, "print(x); var x = i * 10; print(x);")
        result = run_main("var x = 7;\n" + body, nprocs=1, engine=engine)
        assert result.printed_lines() == ["7", "0", "7", "10", "7", "20"]

    def test_no_cell_survives_into_the_next_iteration(self, kind, engine):
        # the second iteration reads y before declaring it; no outer y
        # exists, so the read must abort as undefined, not see the
        # first iteration's cell
        body = loop(kind, "if (i > 0) { print(y); } var y = i;")
        result = run_main(body, nprocs=1, engine=engine)
        assert result.aborts == ["rank 0: aborted: undefined variable 'y'"]

    def test_nested_team_sees_current_iteration(self, kind, engine):
        body = loop(
            kind, "var t = i * 10; omp parallel num_threads(2) { print(t + i); }"
        )
        result = run_main(body, nprocs=1, engine=engine)
        assert result.printed_lines() == ["0", "0", "11", "11", "22", "22"]

    def test_each_iteration_declares_a_fresh_cell(self, kind, engine):
        body = loop(
            kind, "var t = i; omp parallel num_threads(2) { var r = t; }"
        )
        result = run_main(body, nprocs=1, engine=engine, monitor_memory=True)
        reads = [e for e in result.log.of_type(MemAccess) if e.var == "t"]
        by_cid = {}
        for event in reads:
            by_cid.setdefault(event.cell, []).append(event)
        assert len(by_cid) == 3
        assert all(len(events) == 2 for events in by_cid.values())


@pytest.mark.parametrize("engine", ENGINES)
def test_dynamic_omp_for_nested_team_sees_current_iteration(engine):
    result = run_main("""
    omp parallel num_threads(2) {
        omp for schedule(dynamic, 1) for (var i = 0; i < 3; i = i + 1) {
            var t = i * 10;
            omp parallel num_threads(2) { print(t + i); }
        }
    }
    """, nprocs=1, engine=engine)
    assert sorted(result.printed_lines()) == ["0", "0", "11", "11", "22", "22"]


@pytest.mark.parametrize("engine", ENGINES)
def test_loop_after_early_return_runs_fresh(engine):
    """A function that returns mid-iteration, called from inside
    another loop, leaves its caller's iteration cells intact, and its
    next call starts a new loop execution."""
    result = run_main("""
    for (var i = 0; i < 3; i = i + 1) {
        var t = i * 100;
        var r = first_over(i);
        print(t + r);
    }
    """, globals_="""
func first_over(k) {
    var n = 0;
    while (n < 5) {
        var v = n * 2;
        if (v > k) { return v; }
        n = n + 1;
    }
    return -1;
}
""", nprocs=1, engine=engine)
    assert result.printed_lines() == ["2", "102", "204"]


# -- the VM's loops restore ctx.scope however an iteration ends -----------


def _loop_stmt(source: str):
    """The compiled first statement of ``f`` in *source*."""
    program = parse(wrap_main("", globals_=source))
    validate(program)
    return compile_program(program).codes["f"].code[0][0]


def _drive(stmt, scope):
    """Run the compiled statement *stmt* to its end on a thread whose
    scope is *scope*; its flow and the thread's scope afterwards."""
    vm = types.SimpleNamespace(_step_stmt=Step(1.0))
    ctx = types.SimpleNamespace(scope=scope)
    is_gen, fn = stmt
    assert is_gen
    return drive(fn(vm, ctx)), ctx.scope


LOOP_FUNCS = {
    "for": "for (var i = 0; i < 5; i = i + 1) { var t = i; BODY }",
    "while": "while (i < 5) { var t = i; i = i + 1; BODY }",
}


@pytest.mark.parametrize("kind", sorted(LOOP_FUNCS))
def test_return_mid_iteration_restores_scope(kind):
    stmt = _loop_stmt(
        "func f() { " + LOOP_FUNCS[kind].replace("BODY", "if (t == 2) { return t; }")
        + " }"
    )
    root = Scope()
    root.declare("i", 0)
    flow, after = _drive(stmt, root)
    assert flow == ("return", 2)
    assert after is root


@pytest.mark.parametrize("kind", sorted(LOOP_FUNCS))
def test_abort_mid_iteration_restores_scope(kind):
    stmt = _loop_stmt(
        "var a[2];\nfunc f() { " + LOOP_FUNCS[kind].replace("BODY", "a[t] = 1;") + " }"
    )
    root = Scope()
    root.declare("i", 0)
    root.declare("a", ArrayValue(2))
    vm = types.SimpleNamespace(_step_stmt=Step(1.0))
    ctx = types.SimpleNamespace(scope=root)
    with pytest.raises(SimAbort, match="out of bounds"):
        drive(stmt[1](vm, ctx))
    assert ctx.scope is root


# -- compute ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_one_compilation_charges_each_cost_model(engine):
    """A program compiled once (the second run is a memo hit) charges
    each run's own cost model for ``compute(<literal>)``."""
    program = parse(wrap_main("compute(3); compute(3);"))
    validate(program)
    makespans = []
    compiled = []
    for unit in (10.0, 7.0):
        config = RunConfig(
            nprocs=1, engine=engine, cost_model=CostModel(compute_unit=unit)
        )
        if engine == "bytecode":
            compiled.append(compile_program(program, monitor_spec(config)))
        makespans.append(make_interpreter(program, config).run().makespan)
    assert makespans[0] - makespans[1] == pytest.approx(2 * 3 * (10.0 - 7.0))
    if compiled:
        assert compiled[0] is compiled[1]


def test_literal_compute_builds_no_generator():
    program = parse(wrap_main("compute(3);"))
    validate(program)
    _is_gen, fn = compile_program(program).codes["main"].code[0][0]
    vm = types.SimpleNamespace(cm=CostModel(compute_unit=4.0))
    charge = fn(vm, None)
    assert type(charge) is Step
    assert charge == Step(12.0)
    assert fn(vm, None) is charge
