"""Deadlock diagnosis tests (wait-for graph and simulator fidelity)."""

import pytest

from helpers import MPI_PAIR_HEADER, run_src, wrap_main

from repro.mpi.deadlock import DeadlockDiagnosis, diagnose
from repro.runtime.scheduler import BlockedInfo


class TestDiagnosisStructure:
    def _info(self, proc=0, thread=0, reason="mpi_recv waiting"):
        return BlockedInfo(name=f"p{proc}.t{thread}", proc=proc,
                           thread=thread, reason=reason)

    def test_counts_blocked(self):
        diag = diagnose([self._info(), self._info(proc=1)])
        assert diag.nblocked == 2

    def test_graph_has_waiter_and_resource_nodes(self):
        diag = diagnose([self._info()])
        kinds = set(diag.kinds.values())
        assert kinds == {"thread", "resource"}

    def test_summary_lists_every_thread(self):
        diag = diagnose([self._info(proc=0), self._info(proc=3, thread=2)])
        text = diag.summary()
        assert "rank 0" in text and "rank 3 thread 2" in text


class TestEndToEndDeadlocks:
    def test_cyclic_sync_sends_deadlock(self):
        """Classic head-to-head rendezvous deadlock: both ranks send
        synchronously before either receives."""
        body = """
    var buf[1];
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 5, MPI_COMM_WORLD);
    mpi_recv(buf, 1, partner, 5, MPI_COMM_WORLD);
    mpi_finalize();
"""
        result = run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=2,
                         sync_sends=True)
        assert result.deadlocked
        assert result.deadlock.nblocked == 2
        assert all("mpi" in info.reason for info in result.deadlock.blocked)

    def test_same_program_buffered_is_fine(self):
        body = """
    var buf[1];
    var partner = 1 - rank;
    mpi_send(buf, 1, partner, 5, MPI_COMM_WORLD);
    mpi_recv(buf, 1, partner, 5, MPI_COMM_WORLD);
    mpi_finalize();
"""
        result = run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=2)
        assert not result.deadlocked

    def test_tag_mismatch_deadlock_names_the_envelope(self):
        body = """
    var buf[1];
    if (rank == 0) { mpi_send(buf, 1, 1, 5, MPI_COMM_WORLD); }
    if (rank == 1) { mpi_recv(buf, 1, 0, 6, MPI_COMM_WORLD); }
    mpi_finalize();
"""
        result = run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=2)
        assert result.deadlocked
        assert "tag=6" in result.deadlock.summary()

    def test_barrier_team_deadlock_via_diverging_singles(self):
        """One thread stuck in a blocking receive never reaches the
        implicit barrier: the team deadlocks and the report shows both
        the MPI wait and the barrier wait."""
        body = """
    omp parallel num_threads(2) {
        var buf[1];
        if (omp_get_thread_num() == 1) {
            mpi_recv(buf, 1, 1 - rank, 99, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
"""
        result = run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=2)
        assert result.deadlocked
        summary = result.deadlock.summary()
        assert "mpi_recv" in summary
        assert "join omp parallel team" in summary or "barrier" in summary


class TestMessageRaceFidelity:
    def test_same_tag_matching_is_schedule_dependent(self):
        """Simulator fidelity for the paper's motivation: with one shared
        tag, which thread gets which message varies with the schedule —
        the nondeterminism behind the Concurrent-Recv violation."""
        body = """
    var buf[1];
    var partner = 1 - rank;
    if (rank == 0) {
        buf[0] = 1; mpi_send(buf, 1, 1, 7, MPI_COMM_WORLD);
        buf[0] = 2; mpi_send(buf, 1, 1, 7, MPI_COMM_WORLD);
    }
    if (rank == 1) {
        omp parallel num_threads(2) {
            var mine[1];
            mpi_recv(mine, 1, 0, 7, MPI_COMM_WORLD);
            print(omp_get_thread_num(), mine[0]);
        }
    }
    mpi_finalize();
"""
        outcomes = set()
        for seed in range(8):
            result = run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=2,
                             seed=seed)
            outcomes.add(tuple(sorted(result.printed_lines())))
        # Message values always {1, 2} in total ...
        for outcome in outcomes:
            values = sorted(line.split()[1] for line in outcome)
            assert values == ["1.0", "2.0"]
        # ... but the thread-to-message assignment varies with the seed.
        assert len(outcomes) > 1
