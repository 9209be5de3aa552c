"""Static collective-matching / barrier-divergence pass tests."""

from repro.analysis.cfg import build_cfg
from repro.analysis.static_ import (
    STATIC_REPORT_SCHEMA_VERSION,
    check_report_schema,
    find_collective_divergence,
    run_static_analysis,
)
from repro.analysis.static_.collectives import (
    COLLECTIVE_COLORS,
    KIND_BARRIER_DIVERGENCE,
    KIND_COLLECTIVE_ORDER,
    KIND_MPI_COLLECTIVE,
    PRUNE_DIV_BALANCED,
    PRUNE_DIV_SERIAL,
    PRUNE_DIV_UNIFORM,
)
from repro.analysis.static_.dataflow import (
    branch_taints,
    expr_thread_dependent,
    solve_thread_dependence,
)
from repro.minilang import ast_nodes as A
from repro.minilang import parse

PROG = "program t;\n"


def divergence(src):
    return find_collective_divergence(parse(src))


def kinds(report):
    return [c.kind for c in report.candidates]


class TestThreadDependence:
    def test_thread_num_call_taints_assigned_var(self):
        prog = parse(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        var twice = tid * 2;
        var clean = 7;
    }
}""")
        fn = prog.function("main")
        result = solve_thread_dependence(fn, build_cfg(fn))
        exit_fact = result.out_facts[result.cfg.exit.cfg_id]
        assert "tid" in exit_fact and "twice" in exit_fact
        assert "clean" not in exit_fact

    def test_reassignment_kills_taint(self):
        prog = parse(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        tid = 0;
    }
}""")
        fn = prog.function("main")
        result = solve_thread_dependence(fn, build_cfg(fn))
        assert "tid" not in result.out_facts[result.cfg.exit.cfg_id]

    def test_branch_taints_keyed_by_branch_nid(self):
        prog = parse(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { compute(1); }
    }
}""")
        fn = prog.function("main")
        taints = branch_taints(fn, build_cfg(fn))
        branches = [n for n in fn.body.walk() if isinstance(n, A.If)]
        assert len(branches) == 1
        cond = branches[0].cond
        assert expr_thread_dependent(cond, taints[branches[0].nid])


class TestStaticCandidates:
    def test_divergent_barrier_counts(self):
        report = divergence(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { omp barrier; omp barrier; } else { omp barrier; }
    }
}""")
        assert kinds(report) == [KIND_BARRIER_DIVERGENCE]

    def test_equal_length_different_colors_is_order_mismatch(self):
        report = divergence(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) {
            omp barrier;
            omp single nowait { x = 1; }
        } else {
            omp single nowait { x = 2; }
            omp barrier;
        }
    }
}""")
        assert kinds(report) == [KIND_COLLECTIVE_ORDER]

    def test_mpi_collective_under_divergent_branch(self):
        report = divergence(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { x = mpi_allreduce(1, MPI_SUM, MPI_COMM_WORLD); }
    }
}""")
        assert kinds(report) == [KIND_MPI_COLLECTIVE]
        (cand,) = report.candidates
        assert any(s.op == "mpi_allreduce" for s in cand.sites)
        assert cand.monitored_locs  # the dynamic pass has sites to watch

    def test_balanced_arms_pruned_even_at_different_locs(self):
        report = divergence(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { omp barrier; } else { omp barrier; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_DIV_BALANCED] == 1

    def test_uniform_branch_pruned(self):
        report = divergence(PROG + """
func main() {
    var flag = 1;
    omp parallel num_threads(2) {
        if (flag == 1) { omp barrier; }
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_DIV_UNIFORM] == 1

    def test_funneled_mpi_collective_pruned_as_serial(self):
        report = divergence(PROG + """
func main() {
    var x = 0;
    omp parallel num_threads(2) {
        omp master { x = mpi_allreduce(1, MPI_SUM, MPI_COMM_WORLD); }
        omp barrier;
    }
}""")
        assert not report.candidates
        assert report.pruned[PRUNE_DIV_SERIAL] == 1

    def test_omp_collective_under_master_is_candidate(self):
        report = divergence(PROG + """
func main() {
    omp parallel num_threads(2) {
        omp master { omp barrier; }
    }
}""")
        assert kinds(report) == [KIND_BARRIER_DIVERGENCE]

    def test_serial_mpi_collective_outside_parallel_ignored(self):
        report = divergence(PROG + """
func main() {
    var x = mpi_allreduce(1, MPI_SUM, MPI_COMM_WORLD);
}""")
        assert not report.candidates
        assert not report.sites

    def test_thread_dependent_loop_trip_count(self):
        report = divergence(PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        for (var i = 0; i < tid; i = i + 1) {
            omp barrier;
        }
    }
}""")
        assert kinds(report) == [KIND_BARRIER_DIVERGENCE]

    def test_uniform_loop_is_opaque_not_candidate(self):
        report = divergence(PROG + """
func main() {
    omp parallel num_threads(2) {
        for (var i = 0; i < 3; i = i + 1) {
            omp barrier;
        }
    }
}""")
        assert not report.candidates

    def test_color_table_matches_parcoach_exemplar(self):
        assert COLLECTIVE_COLORS["barrier"] == 36
        assert COLLECTIVE_COLORS["region-end"] == 1
        assert COLLECTIVE_COLORS["return"] == 38
        assert COLLECTIVE_COLORS["single"] == 3
        assert COLLECTIVE_COLORS["sections"] == 4
        assert COLLECTIVE_COLORS["for"] == 5
        assert COLLECTIVE_COLORS["mpi"] == 2


DIVERGENT = PROG + """
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { omp barrier; omp barrier; } else { omp barrier; }
    }
    mpi_finalize();
}"""


class TestReportIntegration:
    def test_report_carries_collectives_section(self):
        report = run_static_analysis(parse(DIVERGENT))
        assert report.collectives is not None
        assert len(report.collectives.candidates) == 1
        assert "collective-divergence candidates: 1" in report.summary()

    def test_collectives_flag_off(self):
        report = run_static_analysis(parse(DIVERGENT), collectives=False)
        assert report.collectives is None
        payload = report.as_dict()
        assert payload["collectives"] is None

    def test_prune_counts_merge_divergence_kinds(self):
        src = PROG + """
func main() {
    omp parallel num_threads(2) {
        var tid = omp_get_thread_num();
        if (tid == 0) { omp barrier; } else { omp barrier; }
    }
}"""
        report = run_static_analysis(parse(src))
        assert report.prune_counts().get(PRUNE_DIV_BALANCED) == 1

    def test_as_dict_has_schema_version(self):
        payload = run_static_analysis(parse(DIVERGENT)).as_dict()
        assert payload["schema_version"] == STATIC_REPORT_SCHEMA_VERSION
        assert payload["collectives"]["candidate_count"] == 1
        assert payload["collectives"]["monitored_locs"]


class TestReportSchema:
    def test_current_payload_is_clean(self):
        payload = run_static_analysis(parse(DIVERGENT)).as_dict()
        assert check_report_schema(payload) == []

    def test_missing_version_warns_not_crashes(self):
        problems = check_report_schema({"program": "t"})
        assert any("schema_version" in p for p in problems)

    def test_version_mismatch_warns(self):
        problems = check_report_schema(
            {"schema_version": STATIC_REPORT_SCHEMA_VERSION + 41}
        )
        assert any("version" in p for p in problems)

    def test_unknown_section_warns_by_name(self):
        payload = run_static_analysis(parse(DIVERGENT)).as_dict()
        payload["from_the_future"] = {"x": 1}
        problems = check_report_schema(payload)
        assert any("from_the_future" in p for p in problems)
        # warn, never raise: consumers keep reading the known sections
        assert isinstance(problems, list)

    def test_pre_v3_flat_prunes_warns(self):
        problems = check_report_schema({"schema_version": 2})
        assert any("flat merged dict" in p for p in problems)

    def test_v3_prunes_missing_subsections_warns(self):
        payload = run_static_analysis(parse(DIVERGENT)).as_dict()
        del payload["prunes"]["collectives"]
        problems = check_report_schema(payload)
        assert any("collectives" in p and "prunes" in p for p in problems)

    def test_v3_prunes_sections_complete_and_summed(self):
        payload = run_static_analysis(parse(DIVERGENT)).as_dict()
        prunes = payload["prunes"]
        assert set(prunes) == {"dataflow", "races", "collectives", "total"}
        assert prunes["total"] == sum(
            sum(section.values())
            for key, section in prunes.items()
            if key != "total"
        )
