"""Bytecode-VM benchmarks: compile cost, dispatch rates, NPB speedup.

Three claims backed by numbers:

* compilation is cheap enough to be a non-event (one-time, well under
  the cost of a single run) and memoized, so campaign cells re-running
  one program pay it once per worker process;
* per-construct dispatch — tight arithmetic loops, call-heavy code,
  OMP worksharing — is at least as fast as the tree-walk everywhere,
  and substantially faster on the loop/call paths the superinstructions
  target;
* end-to-end NPB-MZ stepping rate beats the tree-walk by a solid
  multiple.  The measured rates and the VM-vs-tree-walk speedup are
  exported into ``BENCH_campaign.json`` next to the gated
  ``stepping_rate`` (which ``test_campaign_parallel.py`` owns).
"""

import time

from repro.minilang import parse, validate
from repro.runtime import RunConfig
from repro.runtime.bytecode.compiler import (
    MONITOR_OFF,
    clear_compile_cache,
    compile_program,
)
from repro.runtime.bytecode.vm import BytecodeInterpreter
from repro.runtime.interpreter import Interpreter
from repro.workloads.npb import BENCHMARKS

#: one-time lowering of a full NPB-MZ program must stay far below the
#: cost of a single run of it (generous for shared-runner noise)
_COMPILE_BUDGET_S = 0.25

#: end-to-end VM speedup over the tree-walk the suite insists on.
#: Measured ~2.6x on the reference box; 1.5x leaves noise headroom.
_MIN_E2E_SPEEDUP = 1.5


def _rate(interp_cls, program, reps=3, **cfg):
    """Best-of-*reps* stepping rate for one engine."""
    best, steps = 0.0, 0
    for _ in range(reps):
        config = RunConfig(nprocs=2, num_threads=2, **cfg)
        start = time.perf_counter()
        result = interp_cls(program, config).run()
        elapsed = time.perf_counter() - start
        steps = result.stats["scheduler_steps"]
        best = max(best, steps / elapsed)
    return best, steps


class TestCompileCost:
    def test_compile_time_budget(self):
        program = BENCHMARKS["lu"](inject=False)
        clear_compile_cache()
        start = time.perf_counter()
        compiled = compile_program(program)
        elapsed = time.perf_counter() - start
        print(f"\nLU compile: {elapsed * 1e3:.2f} ms")
        assert compiled.codes
        assert elapsed < _COMPILE_BUDGET_S

    def test_compilation_is_memoized(self):
        program = BENCHMARKS["bt"](inject=False)
        clear_compile_cache()
        first = compile_program(program)
        assert compile_program(program) is first

    def test_memo_is_keyed_on_monitoring_spec(self):
        """One compilation per (program, monitoring spec): the same spec
        hits the memo, a different monitored set compiles afresh, and
        the spec-less call keeps meaning "no memory monitoring"."""
        program = BENCHMARKS["lu"](inject=True)
        clear_compile_cache()
        plain = compile_program(program)
        assert plain.codes
        field = compile_program(program, frozenset({"field"}))
        assert compile_program(program, frozenset({"field"})) is field
        tmp = compile_program(program, frozenset({"tmp"}))
        everything = compile_program(program, None)
        assert compile_program(program, None) is everything
        assert len({id(plain), id(field), id(tmp), id(everything)}) == 4
        assert compile_program(program) is plain
        assert compile_program(program, MONITOR_OFF) is plain

    def test_shared_across_interpreter_instances(self):
        """A campaign cell's repeated runs of one program object reuse
        one compilation — the compile-once contract."""
        program = BENCHMARKS["sp"](inject=False)
        clear_compile_cache()
        a = BytecodeInterpreter(program, RunConfig(nprocs=2, num_threads=2))
        b = BytecodeInterpreter(program, RunConfig(nprocs=2, num_threads=2))
        a.run()
        b.run()
        assert a.compiled is b.compiled


_MICRO = {
    # the inner-loop shape of the NPB zone kernels: indexed update +
    # metered compute, where the call-statement and compute
    # superinstructions apply
    "arith-loop": """
program m;
var field[16];
func main() {
    for (var i = 0; i < 3000; i = i + 1) {
        field[i % 16] = field[i % 16] + 1.0;
        compute(2);
    }
}
""",
    # call-heavy: user-function dispatch via the compiled entry path
    "calls": """
program m;
func f(x) { return x + 1; }
func g(x) { return f(x) + f(x + 1); }
func main() {
    var s = 0;
    for (var i = 0; i < 1500; i = i + 1) { s = g(s) % 1000; }
    print(s);
}
""",
    # OMP worksharing: team spin-up, dynamic chunking, critical
    "omp-for": """
program m;
var total = 0;
func main() {
    omp parallel num_threads(2) {
        omp for schedule(dynamic, 4) for (var i = 0; i < 600; i = i + 1) {
            omp critical { total = total + 1; }
        }
    }
    print(total);
}
""",
}


class TestPerConstructDispatch:
    def test_microbenches_never_regress_vs_tree_walk(self):
        print()
        for name, src in _MICRO.items():
            program = parse(src)
            validate(program)
            ast_rate, steps = _rate(Interpreter, program)
            vm_rate, vm_steps = _rate(BytecodeInterpreter, program)
            assert vm_steps == steps
            print(
                f"{name:>12}: ast {ast_rate:>10,.0f}  "
                f"vm {vm_rate:>10,.0f} steps/s  "
                f"({vm_rate / ast_rate:.2f}x, {steps} steps)"
            )
            # noise guard rather than a speedup claim: the VM must never
            # be slower than the tree-walk on any construct class
            assert vm_rate > ast_rate * 0.85, name

    def test_hot_loop_superinstructions_pay_off(self):
        """The targeted path — indexed arithmetic + compute() in a tight
        loop — must show a real multiple, not parity."""
        program = parse(_MICRO["arith-loop"])
        validate(program)
        ast_rate, _ = _rate(Interpreter, program)
        vm_rate, _ = _rate(BytecodeInterpreter, program)
        print(f"\narith-loop speedup: {vm_rate / ast_rate:.2f}x")
        assert vm_rate > ast_rate * 1.3


class TestEndToEndNPB:
    def test_lu_stepping_rate_speedup(self, bench_campaign_stats):
        program = BENCHMARKS["lu"](inject=False)
        ast_rate, steps = _rate(Interpreter, program)
        vm_rate, vm_steps = _rate(BytecodeInterpreter, program)
        assert vm_steps == steps, "engines disagree on step count"
        speedup = vm_rate / ast_rate
        print(
            f"\nNPB-MZ LU: ast {ast_rate:,.0f}  vm {vm_rate:,.0f} steps/s "
            f"({speedup:.2f}x, {steps} steps)"
        )
        bench_campaign_stats["stepping_rate_ast"] = round(ast_rate, 1)
        bench_campaign_stats["stepping_rate_bytecode"] = round(vm_rate, 1)
        bench_campaign_stats["vm_speedup"] = round(speedup, 2)
        assert speedup >= _MIN_E2E_SPEEDUP
