"""Worklist dataflow framework tests: the SymInterval domain, the
forward engine, the three client analyses, and the candidate pruning
they enable — including the soundness guarantee that pruning never
hides a dynamically confirmed violation."""

import pytest

from repro.analysis.cfg import build_cfg, build_program_cfgs
from repro.analysis.static_ import (
    collect_sites,
    find_candidates,
    run_static_analysis,
)
from repro.analysis.static_.dataflow import (
    PRUNE_ENVELOPE,
    PRUNE_LOCKSTATE,
    PRUNE_MHP,
    EnvelopeAnalysis,
    LockStateAnalysis,
    SymInterval,
    Symbol,
    TOP,
    compute_dataflow,
    compute_mhp,
    const,
    interval,
    may_happen_in_parallel,
    provably_disjoint,
    solve,
    symbol,
)
from repro.analysis.static_.dataflow.lockstate import critical_token, lock_token
from repro.analysis.static_.dataflow.values import (
    add,
    join,
    mod,
    mul,
    neg,
    sub,
    widen,
)
from repro.home import check_program
from repro.minilang import parse
from repro.mpi.constants import MPI_ANY_TAG
from repro.violations import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
)


def facts_for(src):
    prog = parse(src)
    sites = collect_sites(prog)
    return compute_dataflow(prog, build_program_cfgs(prog), sites), sites


def site(sites, op, index=0):
    return [s for s in sites if s.op == op][index]


RANK = Symbol("rank", 1, 0.0, float("inf"))
OTHER = Symbol("rank", 2, 0.0, float("inf"))


class TestSymIntervalDomain:
    def test_constant_arithmetic(self):
        assert add(const(2), const(3)).constant == 5
        assert sub(const(2), const(3)).constant == -1
        assert mul(const(4), const(3)).constant == 12
        assert mod(const(7), const(3)).constant == 1
        assert neg(const(5)).constant == -5

    def test_symbol_plus_offset(self):
        value = add(symbol(RANK), const(4))
        assert value.base == RANK and value.lo == value.hi == 4

    def test_same_base_subtraction_cancels(self):
        a = add(symbol(RANK), const(9))
        b = add(symbol(RANK), const(4))
        diff = sub(a, b)
        assert diff.base is None and diff.constant == 5

    def test_two_symbols_add_to_top(self):
        assert add(symbol(RANK), symbol(OTHER)).is_top

    def test_disjoint_same_base_offsets(self):
        a = add(symbol(RANK), const(4))
        b = add(symbol(RANK), const(9))
        assert provably_disjoint(a, b)
        assert not provably_disjoint(a, a)

    def test_distinct_bases_compare_concrete_ranges(self):
        # rank#1 + 4 and rank#2 + 9 both concretize to unbounded ranges
        a = add(symbol(RANK), const(4))
        b = add(symbol(OTHER), const(9))
        assert not provably_disjoint(a, b)

    def test_wildcard_blocks_disjointness(self):
        assert provably_disjoint(const(1), const(2))
        assert not provably_disjoint(const(MPI_ANY_TAG), const(2), wildcard=MPI_ANY_TAG)
        assert not provably_disjoint(interval(-2, 0), const(5), wildcard=-1)

    def test_none_means_no_information(self):
        assert not provably_disjoint(None, const(2))
        assert not provably_disjoint(const(1), None)

    def test_join_same_base_keeps_symbol(self):
        a = add(symbol(RANK), const(4))
        b = add(symbol(RANK), const(9))
        merged = join(a, b)
        assert merged.base == RANK and (merged.lo, merged.hi) == (4, 9)

    def test_join_base_mismatch_widens_to_concrete(self):
        merged = join(add(symbol(RANK), const(4)), const(3))
        assert merged.base is None

    def test_widen_unstable_bound_to_infinity(self):
        widened = widen(interval(0, 1), interval(0, 2))
        assert widened.lo == 0 and widened.hi == float("inf")
        assert widen(const(5), const(5)) == const(5)

    def test_mod_bounds_nonnegative_dividend(self):
        value = mod(interval(0, float("inf")), const(8))
        assert (value.lo, value.hi) == (0, 7)

    def test_top_absorbs(self):
        assert add(TOP, const(1)).is_top
        assert mul(TOP, const(0)).constant == 0  # annihilator still exact


class TestEngine:
    def test_straightline_constant(self):
        prog = parse(
            "program p;\nfunc main() {\n"
            "  var x = 1;\n  x = x + 2;\n  compute(x);\n}"
        )
        cfg = build_cfg(prog.function("main"))
        result = solve(cfg, EnvelopeAnalysis(cfg))
        exit_env = result.fact_before(cfg.exit)
        assert exit_env["x"].constant == 3

    def test_branch_join_becomes_range(self):
        prog = parse(
            "program p;\nfunc main() {\n"
            "  var x = 0;\n  if (c) { x = 1; } else { x = 5; }\n  compute(x);\n}"
        )
        cfg = build_cfg(prog.function("main"))
        result = solve(cfg, EnvelopeAnalysis(cfg))
        exit_env = result.fact_before(cfg.exit)
        assert (exit_env["x"].lo, exit_env["x"].hi) == (1, 5)

    def test_loop_terminates_via_widening(self):
        prog = parse(
            "program p;\nfunc main() {\n"
            "  var x = 0;\n  while (c) { x = x + 1; }\n  compute(x);\n}"
        )
        cfg = build_cfg(prog.function("main"))
        result = solve(cfg, EnvelopeAnalysis(cfg))
        exit_env = result.fact_before(cfg.exit)
        # widened: lower bound stays, upper bound blown to +inf
        assert exit_env["x"].lo == 0 and exit_env["x"].hi == float("inf")

    def test_unreachable_code_gets_no_fact(self):
        prog = parse(
            "program p;\nfunc main() {\n  return;\n  compute(1);\n}"
        )
        cfg = build_cfg(prog.function("main"))
        result = solve(cfg, EnvelopeAnalysis(cfg))
        dead = [n for n in cfg.linearize() if n.kind == "stmt"][-1]
        assert result.fact_before(dead) is None


ENVELOPE_HEAD = """
program df;
var buf[4];
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var size = mpi_comm_size(MPI_COMM_WORLD);
"""


class TestEnvelopePropagation:
    def test_rank_relative_tags_disjoint(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    var tag1 = rank + 4;
    var tag2 = rank + 9;
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, tag1, MPI_COMM_WORLD);
        mpi_recv(buf, 1, 0, tag2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelopes_disjoint(a, b)
        assert not facts.envelopes_disjoint(a, a)

    def test_thread_num_tag_never_disjoint(self):
        # omp_get_thread_num() differs between the compared threads, so
        # tag = tid + 4 vs tid + 9 may alias (thread 5's tag1 == thread
        # 0's tag2): no symbolic base, no prune.
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(8) private(tag1, tag2) {
        var tag1 = omp_get_thread_num() + 4;
        var tag2 = omp_get_thread_num() + 9;
        mpi_recv(buf, 1, 0, tag1, MPI_COMM_WORLD);
        mpi_recv(buf, 1, 0, tag2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert not facts.envelopes_disjoint(a, b)

    def test_shared_variable_assigned_in_region_is_poisoned(self):
        # Another thread may run the second assignment before this
        # thread's first recv, so "tag" has no provable value inside.
        facts, sites = facts_for(ENVELOPE_HEAD + """
    var tag = 0;
    omp parallel num_threads(2) {
        tag = rank + 4;
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
        tag = rank + 9;
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelope(a).tag is None
        assert not facts.envelopes_disjoint(a, b)

    def test_nested_shadowing_declaration_does_not_unpoison(self):
        # The inner "var tag" is a different variable: the writes in the
        # region still go to the shared outer "tag".
        facts, sites = facts_for(ENVELOPE_HEAD + """
    var tag = 0;
    omp parallel num_threads(2) {
        tag = rank + 4;
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
        tag = rank + 9;
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
        if (rank > 100) { var tag = 1; }
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelope(a).tag is None
        assert not facts.envelopes_disjoint(a, b)

    def test_write_to_region_declared_variable_not_poisoned(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        var tag = 0;
        tag = rank + 4;
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
        var tag2 = rank + 9;
        mpi_recv(buf, 1, 0, tag2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelopes_disjoint(a, b)

    def test_region_local_declaration_not_poisoned(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        var tag1 = rank + 4;
        var tag2 = rank + 9;
        mpi_recv(buf, 1, 0, tag1, MPI_COMM_WORLD);
        mpi_recv(buf, 1, 0, tag2, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelopes_disjoint(a, b)

    def test_wildcard_source_blocks_prune(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    var tag1 = rank + 4;
    var tag2 = rank + 9;
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, tag1, MPI_COMM_WORLD);
        mpi_recv(buf, 1, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert not facts.envelopes_disjoint(a, b)

    def test_global_killed_by_user_call(self):
        # helper() reassigns the global tag between the definition and
        # the use, so the recv's tag must be unknown.
        facts, sites = facts_for("""
program df;
var buf[4];
var tag = 0;
func helper() {
    tag = 99;
}
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    tag = 5;
    helper();
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, tag, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        recv = site(sites, "mpi_recv")
        assert facts.envelope(recv).tag is None

    def test_constant_global_propagates(self):
        facts, sites = facts_for("""
program df;
var buf[4];
var the_tag = 42;
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, the_tag, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        recv = site(sites, "mpi_recv")
        assert facts.envelope(recv).tag.constant == 42

    def test_parameter_hides_a_constant_global(self):
        facts, sites = facts_for("""
program df;
var buf[4];
var tag = 7;
func helper(tag) {
    omp parallel num_threads(2) {
        if (omp_get_thread_num() == 0) {
            mpi_recv(buf, 1, 1, tag, MPI_COMM_WORLD);
        } else {
            mpi_recv(buf, 1, 1, 0, MPI_COMM_WORLD);
        }
    }
    return 0;
}
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    helper(0);
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.envelope(a).tag is None
        assert not facts.envelopes_disjoint(a, b)


class TestLockState:
    def test_set_unset_lock_serializes_pair(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        omp_set_lock("m");
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
        omp_unset_lock("m");
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.locks_held.get(a.nid) == frozenset({lock_token("m")})
        assert facts.serialized_by_locks(a, a)
        assert not facts.serialized_by_locks(a, b)

    def test_candidate_pair_pruned_by_lock(self):
        """Acceptance: a pair serialized by omp_set_lock/omp_unset_lock
        is excluded from the candidate set."""
        prog = parse(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        omp_set_lock("m");
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
        omp_unset_lock("m");
    }
    mpi_finalize();
}
""")
        sites = collect_sites(prog)
        baseline = find_candidates(sites)
        facts = compute_dataflow(prog, build_program_cfgs(prog), sites)
        pruned = find_candidates(sites, facts)
        recv_pairs = [c for c in baseline if c.vclass == CONCURRENT_RECV]
        assert recv_pairs  # without facts the self-pair is a candidate
        assert not [c for c in pruned if c.vclass == CONCURRENT_RECV]
        assert facts.pruned[PRUNE_LOCKSTATE] == 1

    def test_unset_with_unknown_name_drops_all_locks(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    var which = "m";
    omp parallel num_threads(2) {
        omp_set_lock("m");
        omp_unset_lock(which);
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        recv = site(sites, "mpi_recv")
        assert not facts.locks_held.get(recv.nid)

    def test_user_call_drops_locks_but_not_criticals(self):
        facts, sites = facts_for("""
program df;
var buf[4];
func helper() {
    compute(1);
}
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp_set_lock("m");
        omp critical(c) {
            helper();
            mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
        }
        omp_unset_lock("m");
    }
    mpi_finalize();
}
""")
        recv = site(sites, "mpi_recv")
        assert facts.locks_held[recv.nid] == frozenset({critical_token("c")})

    def test_conditional_acquisition_not_must_held(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        if (rank == 0) { omp_set_lock("m"); }
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        recv = site(sites, "mpi_recv")
        assert not facts.locks_held.get(recv.nid)


class TestMHP:
    def test_barrier_separates_phases(self):
        """Acceptance: a pair separated by ``omp barrier`` is pruned."""
        prog = parse(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
        omp barrier;
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        sites = collect_sites(prog)
        facts = compute_dataflow(prog, build_program_cfgs(prog), sites)
        a = [s for s in sites if s.op == "mpi_recv"][0]
        b = [s for s in sites if s.op == "mpi_recv"][1]
        # cross-phase ordered; each site still races with itself
        assert not facts.may_happen_in_parallel(a, b)
        assert facts.may_happen_in_parallel(a, a)
        pruned = find_candidates(sites, facts)
        cross = [
            c for c in pruned
            if c.vclass == CONCURRENT_RECV and c.site_a.nid != c.site_b.nid
        ]
        assert not cross
        assert facts.pruned[PRUNE_MHP] == 1

    def test_conditional_barrier_is_unreliable(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
        if (rank == 0) { omp barrier; }
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert facts.may_happen_in_parallel(a, b)

    def test_distinct_parallel_regions_sequential(self):
        facts, sites = facts_for(ENVELOPE_HEAD + """
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
""")
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert not facts.may_happen_in_parallel(a, b)

    def test_function_called_from_parallel_is_unsafe(self):
        facts, sites = facts_for("""
program df;
var buf[4];
func worker() {
    mpi_recv(buf, 1, 0, 7, MPI_COMM_WORLD);
}
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        worker();
    }
    mpi_finalize();
}
""")
        assert "worker" in facts.unsafe_funcs
        recv = site(sites, "mpi_recv")
        assert facts.may_happen_in_parallel(recv, recv)

    def test_mhp_unit_rules(self):
        from repro.analysis.static_.dataflow.mhp import MHPInfo

        same = MHPInfo("f", (1,), phase=0)
        later = MHPInfo("f", (1,), phase=1)
        other = MHPInfo("f", (2,), phase=0)
        unreliable = MHPInfo("f", (1,), phase=1, phase_reliable=False)
        assert may_happen_in_parallel(same, same)
        assert not may_happen_in_parallel(same, later)
        assert not may_happen_in_parallel(same, other)
        assert may_happen_in_parallel(same, unreliable)
        assert may_happen_in_parallel(None, same)
        assert may_happen_in_parallel(same, later, unsafe_funcs={"f"})


class TestCandidateReduction:
    DISJOINT_TAGS = ENVELOPE_HEAD + """
    var tag1 = rank + 4;
    var tag2 = rank + 9;
    omp parallel num_threads(2) {
        if (omp_get_thread_num() == 0) {
            mpi_recv(buf, 1, 0, tag1, MPI_COMM_WORLD);
        } else {
            mpi_recv(buf, 1, 0, tag2, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""

    def test_dataflow_reduces_candidates(self):
        """Acceptance: tags provably disjoint only through dataflow
        (``rank + 4`` vs ``rank + 9``) reduce the candidate count."""
        prog = parse(self.DISJOINT_TAGS)
        without = run_static_analysis(prog, dataflow=False)
        with_df = run_static_analysis(prog, dataflow=True)
        assert len(with_df.candidates) < len(without.candidates)
        facts = with_df.dataflow_facts
        assert facts.pruned[PRUNE_ENVELOPE] >= 1
        assert with_df.summary()  # prune line renders

    SHADOWED_TAG = ENVELOPE_HEAD + """
    var tag = 0;
    {
        var tag = 7;
    }
    omp parallel num_threads(2) {
        if (omp_get_thread_num() == 0) {
            mpi_recv(buf, 1, 1, tag, MPI_COMM_WORLD);
        } else {
            mpi_recv(buf, 1, 1, 0, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""

    def test_shadowing_declaration_does_not_leak_its_value(self):
        """The inner ``var tag = 7`` ends with its block: the first recv
        uses the outer ``tag``, 0, so the pair may match and stays."""
        facts, sites = facts_for(self.SHADOWED_TAG)
        a, b = site(sites, "mpi_recv", 0), site(sites, "mpi_recv", 1)
        assert not facts.envelopes_disjoint(a, b)
        prog = parse(self.SHADOWED_TAG)
        static = run_static_analysis(prog, cache=False)
        assert static.dataflow_facts.pruned[PRUNE_ENVELOPE] == 0
        assert len(static.candidates) == len(
            run_static_analysis(prog, dataflow=False, cache=False).candidates
        )
        report = check_program(parse(self.SHADOWED_TAG), nprocs=2, seed=0)
        assert CONCURRENT_RECV in report.violations.classes()

    def test_compute_mhp_covers_all_calls(self):
        prog = parse(self.DISJOINT_TAGS)
        infos = compute_mhp(prog)
        sites = collect_sites(prog)
        assert all(s.nid in infos for s in sites)


class TestSoundnessAgainstDynamicPhase:
    def test_injected_violations_still_detected(self):
        """Acceptance: dataflow pruning (on by default) must not hide
        any of the six seeded violation classes from the full HOME
        pipeline."""
        from helpers import inject_all
        from tests.workloads.test_injection import clean_program

        injected = inject_all(clean_program())
        report = check_program(injected.program, nprocs=2)
        assert set(report.violations.classes()) >= {
            CONCURRENT_RECV, CONCURRENT_REQUEST, PROBE, COLLECTIVE,
            FINALIZATION, INITIALIZATION,
        }

    def test_npb_dynamic_findings_covered_with_dataflow(self):
        from repro.workloads.npb import build_lu_mz

        program = build_lu_mz(inject=True)
        static = run_static_analysis(program, dataflow=True)
        report = check_program(program, nprocs=2)
        candidate_locs = set()
        for c in static.candidates:
            candidate_locs.update(c.locs())
        for violation in report.violations:
            if violation.vclass in (INITIALIZATION,):
                continue
            assert any(loc in candidate_locs for loc in violation.locs)


class TestReportSurfaces:
    def test_as_dict_includes_dataflow(self):
        prog = parse(TestCandidateReduction.DISJOINT_TAGS)
        report = run_static_analysis(prog)
        payload = report.as_dict()
        assert payload["dataflow"] is not None
        assert payload["dataflow"]["pruned"][PRUNE_ENVELOPE] >= 1
        assert payload["dataflow"]["iterations"] > 0
        import json

        json.dumps(payload)  # fully serializable

    def test_dataflow_off_leaves_facts_none(self):
        prog = parse(TestCandidateReduction.DISJOINT_TAGS)
        report = run_static_analysis(prog, dataflow=False)
        assert report.dataflow_facts is None
        assert report.as_dict()["dataflow"] is None

    def test_home_extras_expose_prune_counts(self):
        prog = parse(TestCandidateReduction.DISJOINT_TAGS)
        report = check_program(prog, nprocs=2)
        assert "static_candidates" in report.extras
        assert PRUNE_ENVELOPE in report.extras["dataflow_pruned"]
