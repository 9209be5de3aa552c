"""HOME pipeline tests."""

import gc

import pytest

from helpers import npb_sources

from repro.analysis.static_.report import clear_static_analysis_cache
from repro.home import Home, HomeOptions, check_program
from repro.minilang import parse, validate
from repro.runtime.bytecode.compiler import clear_compile_cache
from repro.violations import (
    COLLECTIVE,
    CONCURRENT_RECV,
    CONCURRENT_REQUEST,
    FINALIZATION,
    INITIALIZATION,
    PROBE,
)
from repro.workloads.case_studies import (
    case_study_1,
    case_study_2,
    case_study_2_fixed,
    safe_funneled,
)


class TestCaseStudies:
    def test_case_study_1_initialization_violation(self):
        report = check_program(case_study_1(), nprocs=2)
        assert INITIALIZATION in report.violations.classes()
        # The static phase flags it before any execution.
        assert any(
            w.kind == "initialization" for w in report.extras["static_warnings"]
        )

    def test_case_study_1_observably_broken(self):
        report = check_program(case_study_1(), nprocs=2)
        assert report.deadlocked  # half the send/recv pairing is skipped

    def test_case_study_2_concurrent_recv(self):
        report = check_program(case_study_2(), nprocs=2)
        assert report.violations.classes() == [CONCURRENT_RECV]

    def test_case_study_2_fixed_clean(self):
        report = check_program(case_study_2_fixed(), nprocs=2)
        assert len(report.violations) == 0
        assert not report.deadlocked

    def test_safe_funneled_clean(self):
        report = check_program(safe_funneled(), nprocs=2)
        assert len(report.violations) == 0
        assert report.extras["static_warnings"] == []


class TestSelectiveInstrumentation:
    def test_static_filter_reported(self):
        report = check_program(safe_funneled(), nprocs=2)
        assert report.extras["instrumented_sites"] >= 1
        assert report.extras["filtered_sites"] >= 1

    def test_instrument_all_policy_costs_more(self):
        options_all = HomeOptions(instrument_policy="all")
        default = check_program(case_study_2(), nprocs=2)
        everything = check_program(case_study_2(), nprocs=2, options=options_all)
        assert everything.makespan >= default.makespan
        # same violations either way — the filter drops only safe regions
        assert everything.violations.classes() == default.violations.classes()

    def test_filtered_regions_are_really_error_free(self):
        """The overhead reduction is sound: serial-region MPI calls the
        filter drops cannot participate in thread-level races."""
        report = check_program(safe_funneled(), nprocs=2)
        static = report.static
        for site in static.instrumentation.filtered:
            assert not site.in_parallel


class TestDetectorKnobs:
    def test_seed_does_not_change_verdict(self):
        classes = set()
        for seed in range(4):
            report = check_program(case_study_2(), nprocs=2, seed=seed)
            classes.add(tuple(report.violations.classes()))
        assert classes == {(CONCURRENT_RECV,)}

    def test_report_summary_format(self):
        report = check_program(case_study_2(), nprocs=2)
        text = report.summary()
        assert "HOME" in text and "ConcurrentRecvViolation" in text

    def test_overhead_against_plain_run(self):
        from repro.baselines import BaseRunner

        base = BaseRunner().check(case_study_2(), nprocs=2)
        home = check_program(case_study_2(), nprocs=2)
        assert home.makespan > base.makespan


ALL_SIX = """
program allsix;
var buf[2];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_SERIALIZED);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, partner, 7, MPI_COMM_WORLD);
    }
    mpi_send(buf, 1, partner, 8, MPI_COMM_WORLD);
    var req = mpi_irecv(buf, 1, partner, 8, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_wait(req);
    }
    mpi_send(buf, 1, partner, 9, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_probe(partner, 9, MPI_COMM_WORLD);
    }
    mpi_recv(buf, 1, partner, 9, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_barrier(MPI_COMM_WORLD);
    }
    omp parallel num_threads(2) {
        if (omp_get_thread_num() == 1) {
            mpi_finalize();
        }
    }
}
"""


class TestAllSixClasses:
    def test_every_violation_class_detectable(self):
        report = check_program(parse(ALL_SIX), nprocs=2)
        classes = set(report.violations.classes())
        assert classes == {
            INITIALIZATION, FINALIZATION, CONCURRENT_RECV,
            CONCURRENT_REQUEST, PROBE, COLLECTIVE,
        }


class TestCyclicCollector:
    """A checked program is freed by reference counting alone: parsing,
    validation and a whole HOME check leave no reference cycle."""

    @pytest.mark.parametrize("name", sorted(npb_sources()))
    def test_a_check_leaves_no_cyclic_garbage(self, name):
        source = npb_sources()[name]
        clear_static_analysis_cache()
        clear_compile_cache()
        gc.collect()
        gc.disable()
        try:
            program = parse(source)
            validate(program)
            report = Home().check(program)
            assert report.execution.completed
            del program, report
            # the caches hold the program's report and compiled code
            clear_static_analysis_cache()
            clear_compile_cache()
            assert gc.collect() == 0
        finally:
            gc.enable()
