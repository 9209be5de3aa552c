"""Call-graph construction: edges, recursion, bottom-up order, spawn
reachability, context opacity, the guard meet, and parallel-context
resolution with root-nid propagation through call chains, and parallel
reachability against the separate walk MPI-site collection made."""

from pathlib import Path

from repro.analysis.static_ import (
    GUARD_BOTTOM,
    build_callgraph,
    parallel_guard_contexts,
    resolve_parallel_contexts,
    run_static_analysis,
)
from repro.analysis.static_.callgraph import parallel_callers
from repro.analysis.static_.dataflow import compute_mhp
from repro.fuzz.generator import generate_program
from repro.minilang import ast_nodes as A
from repro.minilang import parse
from repro.workloads.case_studies import (
    case_study_1,
    case_study_2,
    case_study_2_fixed,
    safe_funneled,
)
from repro.workloads.patterns import ALL_PATTERNS

from helpers import npb_sources

PROG = "program t;\n"


def cg_for(src):
    return build_callgraph(parse(src))


class TestGraphShape:
    SRC = PROG + """
func leaf(x) {
    return x;
}
func mid(x) {
    return leaf(x + 1);
}
func main() {
    mid(1);
    leaf(2);
}"""

    def test_edges_and_site_indexes(self):
        cg = cg_for(self.SRC)
        assert {(a, b) for a, bs in cg.callees.items() for b in bs} == {
            ("main", "mid"), ("main", "leaf"), ("mid", "leaf"),
        }
        assert {cs.caller for cs in cg.sites_by_callee["leaf"]} == {
            "main", "mid",
        }
        assert len(cg.sites_by_caller["main"]) == 2
        assert cg.user_funcs == {"leaf", "mid", "main"}

    def test_bottom_up_order_callees_first(self):
        cg = cg_for(self.SRC)
        order = cg.bottom_up
        assert order.index("leaf") < order.index("mid") < order.index("main")

    def test_call_site_args_recorded(self):
        cg = cg_for(self.SRC)
        (site,) = cg.sites_by_callee["mid"]
        assert len(site.args) == 1

    def test_no_recursion_detected(self):
        assert cg_for(self.SRC).recursive == frozenset()


class TestRecursion:
    def test_self_loop(self):
        cg = cg_for(PROG + """
func f(n) {
    if (n > 0) {
        f(n - 1);
    }
    return 0;
}
func main() {
    f(3);
}""")
        assert cg.recursive == {"f"}

    def test_mutual_scc(self):
        cg = cg_for(PROG + """
func a(n) {
    if (n > 0) {
        b(n - 1);
    }
    return 0;
}
func b(n) {
    if (n > 0) {
        a(n - 1);
    }
    return 0;
}
func main() {
    a(4);
}""")
        assert cg.recursive == {"a", "b"}
        # SCC members still appear before their non-SCC caller
        assert cg.bottom_up.index("a") < cg.bottom_up.index("main")
        assert cg.bottom_up.index("b") < cg.bottom_up.index("main")


class TestReachability:
    SPAWN = PROG + """
func deep() {
    return 0;
}
func worker(n) {
    deep();
    return 0;
}
func untouched() {
    return 0;
}
func main() {
    var t = thread_spawn("worker", 1);
    thread_join(t);
    untouched();
}"""

    def test_spawn_reachable_is_transitive(self):
        cg = cg_for(self.SPAWN)
        assert cg.spawn_reachable == {"worker", "deep"}
        (site,) = cg.sites_by_callee["worker"]
        assert site.spawned

    def test_spawned_targets_count_as_parallel_reached(self):
        cg = cg_for(self.SPAWN)
        assert "worker" in cg.reached_from_parallel
        assert "deep" in cg.reached_from_parallel
        assert "untouched" not in cg.reached_from_parallel

    def test_reached_from_parallel_via_region(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func sub() {
    helper();
    return 0;
}
func seq_only() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        sub();
    }
    seq_only();
}""")
        assert {"sub", "helper"} <= cg.reached_from_parallel
        assert "seq_only" not in cg.reached_from_parallel


class TestContextFields:
    def test_lexical_context_captured(self):
        prog = parse(PROG + """
func helper(i) {
    return i;
}
func main() {
    omp parallel num_threads(2) {
        omp for
        for (var i = 0; i < 4; i = i + 1) {
            omp critical(tally) {
                helper(i);
            }
        }
    }
}""")
        (site,) = build_callgraph(prog).sites_by_callee["helper"]
        assert site.region is not None and site.parallel_depth == 1
        assert site.omp_for is not None
        assert prog.table.loop_index(site.omp_for) == "i"
        assert site.criticals == ("tally",)
        assert site.guards  # critical token present

    def test_serialized_master_in_loop(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        for (var k = 0; k < 3; k = k + 1) {
            omp master {
                helper();
            }
        }
    }
}""")
        (site,) = cg.sites_by_callee["helper"]
        # master is one fixed thread: serialized even across encounters
        assert site.in_master and site.master_only and site.serialized

    def test_nowait_single_in_loop_not_serialized(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        for (var k = 0; k < 3; k = k + 1) {
            omp single nowait {
                helper();
            }
        }
    }
}""")
        (site,) = cg.sites_by_callee["helper"]
        assert site.in_master and not site.master_only
        assert site.single is not None and not site.single[1]
        assert not site.serialized

    def test_serial_single_is_serialized(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        omp single {
            helper();
        }
    }
}""")
        (site,) = cg.sites_by_callee["helper"]
        assert site.serialized and not site.master_only

    def test_context_opaque_constructs(self):
        cg = cg_for(PROG + """
func forks() {
    omp parallel num_threads(2) {
        compute(1);
    }
    return 0;
}
func syncs() {
    omp barrier;
    return 0;
}
func plain(i) {
    return i + 1;
}
func main() {
    forks();
    syncs();
    plain(0);
}""")
        assert {"forks", "syncs"} <= cg.context_opaque
        assert "plain" not in cg.context_opaque


class TestGuardContexts:
    def test_unguarded_path_drives_meet_to_bottom(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        omp master {
            helper();
        }
        helper();
    }
}""")
        guards = parallel_guard_contexts(cg)
        assert guards["helper"] == GUARD_BOTTOM

    def test_all_paths_guarded_keeps_master(self):
        cg = cg_for(PROG + """
func leaf() {
    return 0;
}
func mid() {
    leaf();
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        omp master {
            mid();
        }
    }
}""")
        guards = parallel_guard_contexts(cg)
        assert guards["mid"].in_master
        # inherited through the chain: leaf is only reached under master
        assert guards["leaf"].in_master

    def test_critical_names_intersect_across_paths(self):
        cg = cg_for(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        omp critical(a) {
            omp critical(b) {
                helper();
            }
        }
        omp critical(a) {
            helper();
        }
    }
}""")
        guards = parallel_guard_contexts(cg)
        assert guards["helper"].criticals == frozenset({"a"})


class TestResolvedContexts:
    def test_chain_shares_root_nid(self):
        prog = parse(PROG + """
func leaf() {
    return 0;
}
func mid() {
    leaf();
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        omp master {
            mid();
        }
    }
}""")
        cg = build_callgraph(prog)
        mhp = compute_mhp(prog, record_all=True, implicit_ws_barriers=True)
        ctx = resolve_parallel_contexts(cg, mhp)
        assert ctx["mid"].serialized and ctx["leaf"].serialized
        assert ctx["mid"].nid == ctx["leaf"].nid  # one chain identity
        assert len(ctx["leaf"].info.regions) == 1

    def test_multiple_call_sites_unresolved(self):
        prog = parse(PROG + """
func helper() {
    return 0;
}
func main() {
    omp parallel num_threads(2) {
        helper();
    }
    helper();
}""")
        cg = build_callgraph(prog)
        mhp = compute_mhp(prog, record_all=True)
        assert "helper" not in resolve_parallel_contexts(cg, mhp)

    def test_opaque_and_spawned_unresolved(self):
        prog = parse(PROG + """
func forks() {
    omp parallel num_threads(2) {
        compute(1);
    }
    return 0;
}
func worker(n) {
    return 0;
}
func main() {
    forks();
    var t = thread_spawn("worker", 1);
    thread_join(t);
}""")
        cg = build_callgraph(prog)
        mhp = compute_mhp(prog, record_all=True)
        ctx = resolve_parallel_contexts(cg, mhp)
        assert "forks" not in ctx
        assert "worker" not in ctx


def reference_parallel_callers(program):
    """The walk MPI-site collection made before it read the call graph:
    user-call edges (spawn targets included) from the node table, roots
    at calls inside a parallel region and at spawn targets, and each
    reached non-root function's reached callers."""
    user = {fn.name for fn in program.functions}
    table = program.table
    callees, roots = {}, set()
    for fn in program.functions:
        for call in table.calls(fn):
            if call.name == "thread_spawn" and call.args and isinstance(
                call.args[0], A.StrLit
            ):
                callee, in_parallel = call.args[0].value, True
            else:
                callee, in_parallel = call.name, table.ctx[call.nid].region != 0
            if callee not in user:
                continue
            callees.setdefault(fn.name, []).append(callee)
            if in_parallel:
                roots.add(callee)
    seen, stack = set(roots), list(roots)
    while stack:
        for callee in callees.get(stack.pop(), ()):
            if callee not in seen:
                seen.add(callee)
                stack.append(callee)
    out = {fname: set() for fname in seen}
    for caller in seen:
        for callee in callees.get(caller, ()):
            if callee not in roots:
                out[callee].add(caller)
    return out


def _reachability_corpus():
    for name, source in sorted(npb_sources().items()):
        yield name, parse(source)
    for seed in range(400):
        yield f"fuzz-{seed}", generate_program(seed)
    corpus = Path(__file__).resolve().parents[2] / "examples" / "fuzz_corpus"
    for path in sorted(corpus.glob("*.mini")):
        yield path.name, parse(path.read_text())
    for build in (case_study_1, case_study_2, case_study_2_fixed, safe_funneled):
        yield build.__name__, build()
    for name, build in sorted(ALL_PATTERNS.items()):
        yield name, build()


class TestParallelReachability:
    def test_call_graph_matches_the_site_walk(self):
        """``CallGraph.reached_from_parallel`` and ``parallel_callers`` are
        the set and caller map the separate site walk computed, on the
        NPB, generated-fuzz, fuzz-corpus and example programs."""
        checked = 0
        for name, program in _reachability_corpus():
            cg = build_callgraph(program)
            expected = reference_parallel_callers(program)
            assert set(cg.reached_from_parallel) == set(expected), name
            assert parallel_callers(cg) == expected, name
            checked += 1
        assert checked > 400

    def test_static_passes_share_the_call_graph_set(self):
        program = parse(npb_sources()["ip"])
        report = run_static_analysis(program, cache=False)
        reached = report.summaries.callgraph.reached_from_parallel
        assert reached
        assert report.dataflow_facts.unsafe_funcs == set(reached)
