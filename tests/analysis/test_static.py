"""Static analysis: site discovery, instrumentation, thread-level checks,
checklist generation."""

import pytest

from repro.analysis.static_ import (
    build_callgraph,
    check_thread_level,
    collect_sites,
    infer_thread_level,
    instrument_program,
    run_static_analysis,
)
from repro.analysis.static_.checklist import build_checklist
from repro.events.event import MonitoredKind
from repro.minilang import ast_nodes as A
from repro.minilang import parse, print_program
from repro.mpi.constants import MPI_THREAD_MULTIPLE, MPI_THREAD_SINGLE


HYBRID = """
program h;
var buf[4];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    mpi_barrier(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, 5, MPI_COMM_WORLD);
        omp critical (guard) {
            mpi_send(buf, 1, 0, 6, MPI_COMM_WORLD);
        }
        omp master {
            mpi_probe(0, 7, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""


class TestSiteDiscovery:
    def test_all_sites_found(self):
        sites = collect_sites(parse(HYBRID))
        ops = sorted(s.op for s in sites)
        assert ops == sorted([
            "mpi_init_thread", "mpi_comm_rank", "mpi_barrier",
            "mpi_recv", "mpi_send", "mpi_probe", "mpi_finalize",
        ])

    def test_hybrid_classification(self):
        sites = {s.op: s for s in collect_sites(parse(HYBRID))}
        assert sites["mpi_recv"].in_parallel
        assert sites["mpi_send"].in_parallel
        assert not sites["mpi_barrier"].in_parallel
        assert not sites["mpi_finalize"].in_parallel

    def test_enclosing_criticals_tracked(self):
        sites = {s.op: s for s in collect_sites(parse(HYBRID))}
        assert sites["mpi_send"].criticals == ("guard",)
        assert sites["mpi_recv"].criticals == ()

    def test_master_guard_tracked(self):
        sites = {s.op: s for s in collect_sites(parse(HYBRID))}
        assert sites["mpi_probe"].in_master
        assert not sites["mpi_recv"].in_master

    def test_static_args_extracted(self):
        sites = {s.op: s for s in collect_sites(parse(HYBRID))}
        recv = sites["mpi_recv"]
        # (buf, 1, 0, 5, MPI_COMM_WORLD) -> indices 1..4 statically known
        assert recv.static_args[2] == 0
        assert recv.static_args[3] == 5
        assert recv.static_args[4] == 0  # MPI_COMM_WORLD

    def test_interprocedural_propagation(self):
        src = """
program ip;
func talk() { mpi_barrier(MPI_COMM_WORLD); return 0; }
func middle() { talk(); return 0; }
func main() {
    mpi_init();
    omp parallel { middle(); }
    mpi_finalize();
}
"""
        sites = {s.op: s for s in collect_sites(parse(src), interprocedural=True)}
        assert sites["mpi_barrier"].in_parallel
        assert not sites["mpi_barrier"].lexical_parallel

    def test_call_chain_lists_every_direct_hybrid_caller(self):
        src = """
program ip;
func helper() { var r = mpi_comm_rank(MPI_COMM_WORLD); return r; }
func alpha() { helper(); return 0; }
func beta() { helper(); return 0; }
func gamma() { helper(); return 0; }
func main() {
    mpi_init();
    omp parallel { alpha(); }
    omp parallel { beta(); }
    omp parallel { gamma(); }
    mpi_finalize();
}
"""
        (site,) = [s for s in collect_sites(parse(src)) if s.func == "helper"]
        assert site.call_chain == ("alpha", "beta", "gamma", "helper")

    def test_interprocedural_disabled(self):
        src = """
program ip;
func talk() { mpi_barrier(MPI_COMM_WORLD); return 0; }
func main() { mpi_init(); omp parallel { talk(); } mpi_finalize(); }
"""
        sites = {s.op: s for s in collect_sites(parse(src), interprocedural=False)}
        assert not sites["mpi_barrier"].in_parallel


#: calls that appear only in construct clauses: the ``num_threads``
#: expression of an ``omp parallel`` and the chunk of an ``omp for``
CLAUSE_CALLS = """
program clause_calls;
func width(n) {
    return n;
}
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel num_threads(mpi_comm_size(MPI_COMM_WORLD)) {
        omp for schedule(dynamic, width(2)) for (var i = 0; i < 4; i = i + 1) {
            compute(1);
        }
    }
    mpi_finalize();
}
"""


class TestClauseCalls:
    """A clause expression runs like any other code of the enclosing
    context, so its calls are MPI sites and call-graph edges."""

    def test_num_threads_call_is_an_mpi_site(self):
        sites = {s.op: s for s in collect_sites(parse(CLAUSE_CALLS))}
        assert "mpi_comm_size" in sites
        # the clause is evaluated before the team forks
        assert not sites["mpi_comm_size"].in_parallel

    def test_chunk_call_is_a_call_site(self):
        cg = build_callgraph(parse(CLAUSE_CALLS))
        assert [(cs.caller, cs.callee) for cs in cg.sites] == [("main", "width")]


def instrument(prog, **kw):
    return instrument_program(prog, collect_sites(prog), **kw)


class TestInstrumentation:
    def test_hybrid_only_policy(self):
        result = instrument(parse(HYBRID), policy="hybrid-only")
        names = {
            n.name for n in result.program.walk() if isinstance(n, A.CallExpr)
        }
        assert "hmpi_recv" in names and "hmpi_send" in names and "hmpi_probe" in names
        assert "mpi_barrier" in names  # filtered (outside parallel region)
        assert "mpi_finalize" in names

    def test_original_program_untouched(self):
        prog = parse(HYBRID)
        instrument(prog)
        names = {n.name for n in prog.walk() if isinstance(n, A.CallExpr)}
        assert not any(n.startswith("hmpi_") for n in names)

    def test_all_policy_instruments_everything_instrumentable(self):
        result = instrument(parse(HYBRID), policy="all")
        names = {
            n.name for n in result.program.walk() if isinstance(n, A.CallExpr)
        }
        assert "hmpi_barrier" in names and "hmpi_finalize" in names
        # queries are never instrumented
        assert "mpi_comm_rank" in names

    def test_none_policy(self):
        result = instrument(parse(HYBRID), policy="none")
        assert result.n_instrumented == 0
        assert result.n_filtered > 0

    def test_reduction_ratio(self):
        result = instrument(parse(HYBRID), policy="hybrid-only")
        assert 0.0 < result.reduction_ratio < 1.0

    def test_monitor_setup_inserted(self):
        result = instrument(parse(HYBRID))
        main = result.program.function("main")
        first = main.body.stmts[0]
        assert isinstance(first, A.ExprStmt)
        assert first.expr.name == "mpi_monitor_setup"

    def test_instrumented_program_parses_back(self):
        result = instrument(parse(HYBRID))
        reparsed = parse(print_program(result.program))
        assert reparsed.name == "h"


class TestThreadLevelChecks:
    def test_infer_multiple(self):
        info = infer_thread_level(parse(HYBRID))
        assert info.declared_level == MPI_THREAD_MULTIPLE
        assert info.uses_init_thread

    def test_infer_plain_init(self):
        src = "program p;\nfunc main() { mpi_init(); mpi_finalize(); }"
        info = infer_thread_level(parse(src))
        assert info.declared_level == MPI_THREAD_SINGLE
        assert not info.uses_init_thread

    def test_infer_dynamic_level(self):
        src = """
program p;
func main() { var lvl = 3; var p = mpi_init_thread(lvl); mpi_finalize(); }
"""
        assert infer_thread_level(parse(src)).declared_level is None

    def test_single_with_hybrid_sites_warns(self):
        src = """
program p;
func main() {
    mpi_init();
    omp parallel { mpi_barrier(MPI_COMM_WORLD); }
    mpi_finalize();
}
"""
        prog = parse(src)
        warnings = check_thread_level(prog, collect_sites(prog))
        assert any(w.kind == "initialization" for w in warnings)

    def test_funneled_unguarded_warns(self):
        src = """
program p;
func main() {
    var p = mpi_init_thread(MPI_THREAD_FUNNELED);
    omp parallel { mpi_barrier(MPI_COMM_WORLD); }
    mpi_finalize();
}
"""
        prog = parse(src)
        warnings = check_thread_level(prog, collect_sites(prog))
        assert any(w.kind == "funneled-non-master" for w in warnings)

    def test_funneled_master_guarded_clean(self):
        src = """
program p;
func main() {
    var p = mpi_init_thread(MPI_THREAD_FUNNELED);
    omp parallel { omp master { mpi_barrier(MPI_COMM_WORLD); } }
    mpi_finalize();
}
"""
        prog = parse(src)
        assert check_thread_level(prog, collect_sites(prog)) == []

    def test_multiple_is_statically_clean(self):
        prog = parse(HYBRID)
        assert check_thread_level(prog, collect_sites(prog)) == []

    def test_no_hybrid_sites_no_warnings(self):
        src = "program p;\nfunc main() { mpi_init(); mpi_finalize(); }"
        prog = parse(src)
        assert check_thread_level(prog, collect_sites(prog)) == []


class TestChecklist:
    def test_checklist_kinds_per_op(self):
        prog = parse(HYBRID)
        hybrid = [s for s in collect_sites(prog) if s.in_parallel]
        checklist = build_checklist(hybrid)
        by_op = {e.site.op: e for e in checklist.entries}
        assert MonitoredKind.TAG in by_op["mpi_recv"].kinds
        assert MonitoredKind.SRC in by_op["mpi_probe"].kinds

    def test_candidate_violations_linked(self):
        prog = parse(HYBRID)
        hybrid = [s for s in collect_sites(prog) if s.in_parallel]
        checklist = build_checklist(hybrid)
        assert "ConcurrentRecvViolation" in checklist.candidate_violations()
        assert "ProbeViolation" in checklist.candidate_violations()


class TestStaticReport:
    def test_full_report(self):
        report = run_static_analysis(parse(HYBRID))
        assert report.program_name == "h"
        assert len(report.hybrid_sites) == 3
        assert report.instrumentation.n_instrumented == 3
        assert "main" in report.cfgs
        summary = report.summary()
        assert "MPI call sites" in summary and "instrumented" in summary


class TestFoldStaticValue:
    """Edge cases of the shared constant-folding helper."""

    @staticmethod
    def fold(text):
        from repro.analysis.static_.mpi_sites import fold_static_value

        prog = parse(f"program t;\nfunc main() {{ var x = {text}; }}")
        (decl,) = [
            n
            for n in prog.function("main").walk()
            if isinstance(n, A.VarDecl)
        ]
        return fold_static_value(decl.init)

    def test_nested_unary_minus(self):
        assert self.fold("-(-(3))") == 3
        assert self.fold("-(-(-(2)))") == -2

    def test_mixed_type_arithmetic_promotes(self):
        assert self.fold("1 + 2.5") == 3.5
        assert self.fold("2 * MPI_ANY_TAG") == -2  # int language constant

    def test_truncating_division_toward_zero(self):
        assert self.fold("7 / -2") == -3
        assert self.fold("-7 % 2") == -1  # sign follows the dividend

    def test_division_and_modulo_by_zero_never_fold(self):
        assert self.fold("1 / 0") is None
        assert self.fold("1 % 0") is None

    def test_float_modulo_never_folds(self):
        assert self.fold("5.0 % 2") is None

    def test_booleans_do_not_participate_in_arithmetic(self):
        assert self.fold("true") is True
        assert self.fold("true + 1") is None
        assert self.fold("-(true)") is None

    def test_non_constant_name_stays_symbolic(self):
        # a plain variable — even one later assigned a constant — is the
        # dataflow layer's job, not the lexical folder's
        assert self.fold("y + 1") is None
        assert self.fold("y") is None


class TestStaticAnalysisCache:
    """The memo cache is keyed on the program object's ``id()``; each
    entry holds the program, so its id cannot be recycled while the
    entry lives, and building and dropping programs in a loop never
    aliases cache entries."""

    SRC = "program cachetest;\nfunc main() { compute(1); }\n"

    def test_same_program_object_hits_cache(self):
        from repro.analysis.static_.report import clear_static_analysis_cache

        clear_static_analysis_cache()
        prog = parse(self.SRC)
        first = run_static_analysis(prog)
        assert run_static_analysis(prog) is first

    def test_build_and_drop_loop_never_aliases(self):
        from repro.analysis.static_.report import clear_static_analysis_cache

        clear_static_analysis_cache()
        for i in range(6):
            prog = parse(f"program p{i};\nfunc main() {{ compute(1); }}\n")
            report = run_static_analysis(prog)
            # the report always belongs to *this* program, even though
            # earlier loop iterations' ASTs have been dropped
            assert report.program_name == f"p{i}"
            del prog, report

    def test_distinct_parses_get_distinct_reports(self):
        a, b = parse(self.SRC), parse(self.SRC)
        assert run_static_analysis(a) is not run_static_analysis(b)

    def test_option_variants_are_separate_entries(self):
        prog = parse(self.SRC)
        with_summaries = run_static_analysis(prog)
        without = run_static_analysis(prog, summaries=False)
        assert with_summaries is not without
        assert run_static_analysis(prog) is with_summaries
        assert run_static_analysis(prog, summaries=False) is without

    def test_cache_false_bypasses(self):
        prog = parse(self.SRC)
        cached = run_static_analysis(prog)
        assert run_static_analysis(prog, cache=False) is not cached
