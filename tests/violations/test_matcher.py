"""Violation matcher and report aggregation tests."""

import pytest

from repro.home import check_program
from repro.minilang import parse
from repro.violations import (
    CONCURRENT_RECV,
    Violation,
    ViolationReport,
    extract_thread_level,
    match_violations,
)
from repro.workloads.case_studies import case_study_2


def v(vclass=CONCURRENT_RECV, proc=0, callsites=(1, 2)):
    return Violation(vclass=vclass, proc=proc, message="m", callsites=tuple(callsites))


class TestViolationReport:
    def test_add_and_count(self):
        report = ViolationReport()
        report.add(v())
        assert report.count() == 1
        assert report.count(CONCURRENT_RECV) == 1
        assert report.count("Nope") == 0

    def test_dedup_same_class_and_sites(self):
        report = ViolationReport()
        report.add(v(proc=0))
        report.add(v(proc=1))
        assert len(report) == 1
        key = v().dedup_key()
        assert report.procs_by_finding[key] == [0, 1]

    def test_different_sites_not_deduped(self):
        report = ViolationReport()
        report.add(v(callsites=(1, 2)))
        report.add(v(callsites=(3, 4)))
        assert len(report) == 2

    def test_callsite_order_irrelevant_for_dedup(self):
        report = ViolationReport()
        report.add(v(callsites=(2, 1)))
        report.add(v(callsites=(1, 2)))
        assert len(report) == 1

    def test_summary_mentions_ranks(self):
        report = ViolationReport()
        report.add(v(proc=0))
        report.add(v(proc=1))
        assert "ranks 0,1" in report.summary()

    def test_empty_summary(self):
        assert "no thread-safety violations" in ViolationReport().summary()


class TestEndToEndMatching:
    def test_thread_level_extracted_from_log(self):
        report = check_program(case_study_2(), nprocs=2)
        assert extract_thread_level(report.execution.log, 0) == 3

    def test_case_study_2_violations_merged_across_ranks(self):
        report = check_program(case_study_2(), nprocs=2)
        classes = report.violations.classes()
        assert classes == [CONCURRENT_RECV]
        # one finding per rank-side callsite pair
        assert len(report.violations) == 2

    def test_clean_program_empty_report(self):
        src = """
program clean;
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    omp parallel num_threads(2) { compute(5); }
    mpi_finalize();
}
"""
        report = check_program(parse(src), nprocs=2)
        assert len(report.violations) == 0
