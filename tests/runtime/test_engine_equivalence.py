"""Byte-identity between the two execution engines.

The bytecode VM's contract is not "similar results" — it is
*byte-identical traces*: the same events in the same order with the
same payloads, the same virtual clocks, the same RNG consumption, for
every workload, fault plan and monitoring configuration.  These tests
enforce that contract by running one program object under both engines
and comparing the fully serialized traces plus every observable result
field.  No state is reset between the runs: every id a trace carries
is per-run.
"""

from __future__ import annotations

import io

import pytest

from helpers import wrap_main

from repro.errors import WorkerKillFault
from repro.events import MemAccess
from repro.events.serialize import dump_log
from repro.faults.plan import builtin_plans
from repro.minilang import parse, validate
from repro.runtime import RunConfig, make_interpreter
from repro.runtime.bytecode.vm import BytecodeInterpreter
from repro.runtime.interpreter import Interpreter
from repro.workloads.npb import BENCHMARKS, build_racy_npb

# ---------------------------------------------------------------------------
# harness


def _run_program(cls, program, config):
    """Run an already-built *program*; return the result and its trace."""
    result = cls(program, config).run()
    buf = io.StringIO()
    dump_log(result.log, buf)
    return result, buf.getvalue()


def assert_equivalent(build, **cfg):
    """Run *build()* under both engines and require byte-identity."""
    program = build()
    ast_result, ast_trace = _run_program(
        Interpreter, program, RunConfig(engine="ast", **cfg)
    )
    vm_result, vm_trace = _run_program(
        BytecodeInterpreter, program, RunConfig(engine="bytecode", **cfg)
    )
    assert ast_trace == vm_trace, "serialized traces differ between engines"
    assert ast_result.outputs == vm_result.outputs
    assert ast_result.notes == vm_result.notes
    assert ast_result.makespan == vm_result.makespan
    assert ast_result.proc_clocks == vm_result.proc_clocks
    assert ast_result.stats == vm_result.stats
    assert ast_result.failure == vm_result.failure
    if ast_result.deadlock is None:
        assert vm_result.deadlock is None
    else:
        assert vm_result.deadlock is not None
        assert ast_result.deadlock.blocked == vm_result.deadlock.blocked
    return ast_result


def src_builder(source):
    def build():
        program = parse(source)
        validate(program)
        return program

    return build


def assert_src_equivalent(source, **cfg):
    return assert_equivalent(src_builder(source), **cfg)


def assert_both_abort(source, match, **cfg):
    """Both engines must abort identically (SimAbort is caught per rank
    and surfaces as an ``aborted: ...`` note, which assert_equivalent
    already compares verbatim — here we additionally pin the message)."""
    result = assert_src_equivalent(source, **cfg)
    assert any(
        "aborted" in note and match in note for note in result.notes
    ), result.notes


# ---------------------------------------------------------------------------
# NPB workloads x fault plans


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_npb_fault_free(self, name, seed):
        assert_equivalent(
            BENCHMARKS[name], nprocs=2, num_threads=2, seed=seed
        )

    @pytest.mark.parametrize(
        "plan_name",
        ["none", "downgrade", "crash", "delay", "reorder", "rendezvous", "jitter"],
    )
    def test_lu_under_fault_plan(self, plan_name):
        plan = builtin_plans(2)[plan_name]
        assert_equivalent(
            BENCHMARKS["lu"], nprocs=2, num_threads=2, seed=3, fault_plan=plan
        )

    def test_killworker_drill_raises_identically(self):
        """WORKER_KILL escapes run() — both engines must die at the
        same point with the same message and identical partial state."""
        plan = builtin_plans(2)["killworker"]
        outcomes = {}
        program = BENCHMARKS["lu"]()
        for engine in ("ast", "bytecode"):
            config = RunConfig(
                engine=engine, nprocs=2, num_threads=2, seed=0, fault_plan=plan
            )
            interp = make_interpreter(program, config)
            with pytest.raises(WorkerKillFault) as exc:
                interp.run()
            buf = io.StringIO()
            dump_log(interp.log, buf)
            outcomes[engine] = (
                str(exc.value),
                interp.scheduler.total_steps,
                buf.getvalue(),
            )
        assert outcomes["ast"] == outcomes["bytecode"]


# ---------------------------------------------------------------------------
# monitoring narrowing


class TestMonitoringNarrowing:
    def test_monitor_everything(self):
        assert_equivalent(
            BENCHMARKS["lu"], nprocs=2, num_threads=2, monitor_memory=True
        )

    def test_monitored_vars_narrowing(self):
        result = assert_equivalent(
            BENCHMARKS["lu"],
            nprocs=2,
            num_threads=2,
            monitor_memory=True,
            monitored_vars=frozenset({"field"}),
        )
        assert any(type(e).__name__ == "MemAccess" for e in result.log)

    def test_collective_monitoring(self):
        assert_equivalent(
            BENCHMARKS["lu"], nprocs=2, num_threads=2, monitor_collectives=True
        )

    def test_collective_sites_narrowing(self):
        # narrow to a site set that cannot match anything: the engines
        # must agree on suppression too
        assert_equivalent(
            BENCHMARKS["lu"],
            nprocs=2,
            num_threads=2,
            monitor_collectives=True,
            collective_sites=frozenset({"9999:1"}),
        )

    def test_one_program_across_monitoring_specs(self):
        """The VM compiles monitoring in, memoized per (program, spec):
        one Program object run under a sequence of specs must hit the
        right compilation each time, including the first spec again."""
        program = build_racy_npb()
        specs = [
            {},
            {"monitor_memory": True, "monitored_vars": frozenset({"field"})},
            {"monitor_memory": True, "monitored_vars": frozenset({"tmp"})},
            {"monitor_memory": True},
            {},
        ]
        seen = []
        for spec in specs:
            traces = []
            for cls in (Interpreter, BytecodeInterpreter):
                result, trace = _run_program(cls, program, RunConfig(
                    nprocs=2, num_threads=2, seed=1, **spec
                ))
                traces.append(trace)
            assert traces[0] == traces[1], spec
            seen.append({e.var for e in result.log if type(e) is MemAccess})
        assert seen[0] == seen[4] == set()
        assert seen[1] == {"field"}
        assert seen[2] == {"tmp"}
        assert seen[3] >= {"field", "tmp", "local_norm"}

    def test_config_change_before_run_is_honoured(self):
        """The monitoring spec is read when run() starts, not when the
        interpreter is built."""
        program = build_racy_npb()
        expected = {}
        for cls in (Interpreter, BytecodeInterpreter):
            config = RunConfig(
                nprocs=2, num_threads=2, seed=1,
                monitor_memory=True, monitored_vars=frozenset({"field"}),
            )
            interp = cls(program, config)
            config.monitored_vars = frozenset({"tmp"})
            result = interp.run()
            buf = io.StringIO()
            dump_log(result.log, buf)
            expected[cls] = buf.getvalue()
            assert {e.var for e in result.log if type(e) is MemAccess} == {"tmp"}
        assert expected[Interpreter] == expected[BytecodeInterpreter]


# ---------------------------------------------------------------------------
# language constructs


class TestConstructs:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_control_flow_kitchen_sink(self, seed):
        assert_src_equivalent(
            """
program t;
var total = 0;
func acc(x) {
    var s = 0;
    for (var i = 0; i < x; i = i + 1) {
        if (i % 3 == 0) { s = s + i; }
        else if (i % 3 == 1) { s = s - 1; }
        else { s = s + 2; }
    }
    while (s > 40) { s = s - 7; }
    return s;
}
func main() {
    for (var k = 0; k < 4; k = k + 1) { total = total + acc(5 + k); }
    print(total);
}
""",
            nprocs=1,
            num_threads=1,
            seed=seed,
        )

    def test_scope_shadowing_and_body_declares(self):
        # declarations inside loop bodies exercise the body push-scope
        # path the compiler inlines per construct
        assert_src_equivalent(
            """
program t;
var x = 1;
func main() {
    var x = 2;
    for (var i = 0; i < 3; i = i + 1) {
        var x = i * 10;
        print(x);
    }
    while (x < 5) {
        var y = x * 2;
        x = x + y + 1;
    }
    print(x);
}
""",
            nprocs=1,
            num_threads=1,
        )

    @pytest.mark.parametrize("seed", [0, 2])
    def test_omp_constructs(self, seed):
        assert_src_equivalent(
            wrap_main(
                """
    omp parallel num_threads(3) reduction(+: total) firstprivate(arr) {
        var t = omp_get_thread_num();
        total = total + t;
        omp critical { arr[t] = total; }
        omp for schedule(dynamic, 2) for (var j = 0; j < 9; j = j + 1) {
            compute(1);
        }
        omp for nowait for (var j = 0; j < 6; j = j + 1) {
            omp atomic total = total + 1;
        }
        omp single { print(total); }
        omp barrier;
        omp master { print(0 - total); }
        omp sections {
            omp section { omp atomic total = total + 100; }
            omp section { omp atomic total = total + 200; }
        }
    }
    print(total);
""",
                globals_="var total = 0;\nvar arr[4];",
            ),
            nprocs=1,
            num_threads=2,
            seed=seed,
        )

    @pytest.mark.parametrize("seed", [0, 4])
    def test_mpi_pingpong(self, seed):
        assert_src_equivalent(
            """
program t;
var a[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    if (rank == 0) {
        a[0] = 41;
        mpi_send(a, 1, 1, 0, MPI_COMM_WORLD);
        mpi_recv(a, 1, 1, 0, MPI_COMM_WORLD);
        print(a[0]);
    }
    if (rank == 1) {
        mpi_recv(a, 1, 0, 0, MPI_COMM_WORLD);
        a[0] = a[0] + 1;
        mpi_send(a, 1, 0, 0, MPI_COMM_WORLD);
    }
    mpi_barrier(MPI_COMM_WORLD);
    mpi_finalize();
}
""",
            nprocs=2,
            num_threads=2,
            seed=seed,
        )

    def test_pthreads(self):
        assert_src_equivalent(
            """
program t;
var counter = 0;
func bump(n) {
    for (var i = 0; i < n; i = i + 1) {
        omp_set_lock("m");
        counter = counter + 1;
        omp_unset_lock("m");
    }
    return 0;
}
func main() {
    omp_init_lock("m");
    var a = thread_spawn("bump", 4);
    var b = thread_spawn("bump", 4);
    thread_join(a);
    thread_join(b);
    print(counter);
}
""",
            nprocs=1,
            num_threads=2,
            seed=1,
        )

    def test_recursion(self):
        assert_src_equivalent(
            """
program t;
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() { print(fib(10)); }
""",
            nprocs=1,
            num_threads=1,
        )

    def test_return_inside_constructs(self):
        # a return unwinding out of loop/if nesting exercises the
        # flow-tuple propagation through every inlined statement loop
        assert_src_equivalent(
            """
program t;
func find(limit) {
    for (var i = 0; i < limit; i = i + 1) {
        if (i * i > 20) {
            while (1 == 1) { return i; }
        }
    }
    return 0 - 1;
}
func main() { print(find(10)); }
""",
            nprocs=1,
            num_threads=1,
        )

    def test_compute_superinstruction_costs(self):
        # distinct compute() costs share per-site Step caching in the
        # VM; clocks must still match the tree-walk exactly
        assert_src_equivalent(
            wrap_main(
                """
    for (var i = 0; i < 4; i = i + 1) { compute(i); }
    compute(0 - 3);
    print(mpi_wtime());
"""
            ),
            nprocs=1,
            num_threads=1,
        )


# ---------------------------------------------------------------------------
# abort parity


class TestAbortParity:
    def test_call_depth_exceeded(self):
        assert_both_abort(
            """
program t;
func spin(n) { return spin(n + 1); }
func main() { print(spin(0)); }
""",
            match="call depth exceeded",
            nprocs=1,
            num_threads=1,
        )

    def test_unknown_function(self):
        assert_both_abort(
            wrap_main("    nosuch(1, 2);"),
            match="unknown function",
            nprocs=1,
            num_threads=1,
        )

    def test_division_by_zero(self):
        assert_both_abort(
            wrap_main("    var z = 0;\n    print(1 / z);"),
            match="division",
            nprocs=1,
            num_threads=1,
        )

    def test_array_index_out_of_bounds(self):
        assert_both_abort(
            wrap_main("    arr[9] = 1;", globals_="var arr[2];"),
            match="out of",
            nprocs=1,
            num_threads=1,
        )

    def test_undefined_variable(self):
        assert_both_abort(
            wrap_main("    print(ghost);"),
            match="ghost",
            nprocs=1,
            num_threads=1,
        )

    def test_arity_mismatch(self):
        assert_both_abort(
            """
program t;
func two(a, b) { return a + b; }
func main() { print(two(1)); }
""",
            match="argument",
            nprocs=1,
            num_threads=1,
        )
