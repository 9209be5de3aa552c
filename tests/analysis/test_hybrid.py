"""Hybrid (lockset + happens-before) detector over instrumented runs."""

import pytest

from repro.analysis.dynamic_.hybrid import DetectorConfig, analyze, analyze_process
from repro.analysis.static_ import collect_sites, instrument_program
from repro.events.event import MonitoredKind
from repro.minilang import parse
from repro.runtime import Interpreter, RunConfig


def instrumented_run(src, nprocs=2, seed=0, **kw):
    program = parse(src)
    result = instrument_program(program, collect_sites(program))
    config = RunConfig(nprocs=nprocs, num_threads=2, seed=seed,
                       thread_level_mode="permissive", **kw)
    return Interpreter(result.program, config).run()


RACY_RECV = """
program r;
var buf[2];
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, partner, 7, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""

GUARDED_RECV = """
program g;
var buf[2];
func main() {
    var p = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    mpi_send(buf, 1, partner, 7, MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp critical {
            mpi_recv(buf, 1, partner, 7, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""


class TestCallRecords:
    def test_records_grouped_per_call(self):
        result = instrumented_run(RACY_RECV)
        reports = analyze(result.log)
        report = reports[0]
        recv_records = [r for r in report.records.values() if r.op == "mpi_recv"]
        assert len(recv_records) == 2
        for rec in recv_records:
            assert rec.arg(MonitoredKind.TAG) == 7
            assert rec.arg(MonitoredKind.COMM) == 0

    def test_records_know_thread_and_loc(self):
        result = instrumented_run(RACY_RECV)
        report = analyze_process(result.log, 0)
        threads = {r.thread for r in report.records.values() if r.op == "mpi_recv"}
        assert len(threads) == 2

    def test_no_records_without_instrumentation(self):
        config = RunConfig(nprocs=2, num_threads=2, thread_level_mode="permissive")
        result = Interpreter(parse(RACY_RECV), config).run()
        report = analyze_process(result.log, 0)
        assert report.records == {}
        assert report.pairs == []


class TestDetection:
    def test_racy_recvs_detected_as_concurrent(self):
        result = instrumented_run(RACY_RECV)
        report = analyze_process(result.log, 0)
        assert report.concurrent(MonitoredKind.TAG)
        assert report.concurrent(MonitoredKind.SRC)
        assert report.concurrent(MonitoredKind.COMM)
        recv_pairs = report.pairs_for_ops({"mpi_recv"}, {"mpi_recv"})
        assert len(recv_pairs) == 1

    def test_critical_guard_suppresses_detection(self):
        result = instrumented_run(GUARDED_RECV)
        report = analyze_process(result.log, 0)
        assert not report.concurrent(MonitoredKind.TAG)
        assert report.pairs == []

    def test_detection_is_schedule_independent(self):
        """The key HOME claim: the potential race is found on every seed."""
        for seed in range(5):
            result = instrumented_run(RACY_RECV, seed=seed)
            report = analyze_process(result.log, 0)
            assert report.concurrent(MonitoredKind.TAG), f"seed {seed}"

    def test_per_process_reports(self):
        result = instrumented_run(RACY_RECV)
        reports = analyze(result.log)
        assert set(reports) == {0, 1}
        assert reports[1].concurrent(MonitoredKind.TAG)


class TestDetectorConfig:
    def test_lockset_only_flags_guarded_pair(self):
        """Pure lockset treats critical-serialized recvs as racy only if
        locksets are disjoint — here they share the lock, so even the
        lockset-only detector stays quiet; but disabling the lockset and
        keeping HB with no lock edges must fire."""
        result = instrumented_run(GUARDED_RECV)
        config = DetectorConfig(use_lockset=False, use_hb=True, lock_edges=False)
        report = analyze_process(result.log, 0, config)
        assert report.concurrent(MonitoredKind.TAG)

    def test_hb_with_lock_edges_orders_guarded_pair(self):
        result = instrumented_run(GUARDED_RECV)
        config = DetectorConfig(use_lockset=False, use_hb=True, lock_edges=True)
        report = analyze_process(result.log, 0, config)
        assert not report.concurrent(MonitoredKind.TAG)

    def test_ignored_locks_reintroduce_false_positive(self):
        result = instrumented_run(GUARDED_RECV)
        config = DetectorConfig(
            ignored_locks=lambda name: name.startswith("critical:")
        )
        report = analyze_process(result.log, 0, config)
        assert report.concurrent(MonitoredKind.TAG)

    def test_pairs_for_ops_orientation(self):
        result = instrumented_run(RACY_RECV)
        report = analyze_process(result.log, 0)
        a = report.pairs_for_ops({"mpi_recv"}, {"mpi_send"})
        b = report.pairs_for_ops({"mpi_send"}, {"mpi_recv"})
        assert a == b
