"""End-to-end determinism: same inputs, bit-identical outcomes.

Everything the harness reports — virtual times, event streams,
violation findings — must be a pure function of (program, config).
"""

import io
from itertools import zip_longest

import pytest

from helpers import MPI_PAIR_HEADER, wrap_main

from repro.baselines import IntelThreadChecker, Marmot
from repro.events.serialize import dump_log
from repro.home import check_program
from repro.minilang import parse, validate
from repro.runtime import RunConfig, run_program
from repro.workloads.case_studies import case_study_2
from repro.workloads.npb import build_lu_mz, build_racy_npb


def fingerprint(result):
    return (
        result.makespan,
        tuple(sorted(result.proc_clocks.items())),
        tuple((type(e).__name__, e.proc, e.thread, e.seq, e.time) for e in result.log),
        tuple(result.outputs),
        tuple(result.notes),
    )


class TestRunDeterminism:
    def test_identical_runs_identical_traces(self):
        prog_a, prog_b = case_study_2(), case_study_2()
        ra = run_program(prog_a, RunConfig(nprocs=2, seed=5, thread_level_mode="permissive"))
        rb = run_program(prog_b, RunConfig(nprocs=2, seed=5, thread_level_mode="permissive"))
        assert fingerprint(ra) == fingerprint(rb)

    def test_different_seeds_may_differ_in_order_not_verdict(self):
        makespans = set()
        for seed in range(3):
            r = run_program(
                case_study_2(),
                RunConfig(nprocs=2, seed=seed, thread_level_mode="permissive"),
            )
            makespans.add(r.makespan)
        # virtual time is schedule-independent for this program shape:
        # all costs are charged per-thread, so makespan coincides
        assert len(makespans) >= 1

    def test_npb_run_deterministic(self):
        ra = run_program(build_lu_mz(inject=True),
                         RunConfig(nprocs=4, seed=1, thread_level_mode="permissive"))
        rb = run_program(build_lu_mz(inject=True),
                         RunConfig(nprocs=4, seed=1, thread_level_mode="permissive"))
        assert fingerprint(ra) == fingerprint(rb)


#: p2p traffic on MPI_COMM_WORLD, a duplicate and a split communicator:
#: every message id and derived communicator id lands in the trace
COMM_PROGRAM = wrap_main(MPI_PAIR_HEADER + """
    var buf[2];
    var dup = mpi_comm_dup(MPI_COMM_WORLD);
    var sub = mpi_comm_split(MPI_COMM_WORLD, 0, size - rank);
    if (rank == 0) {
        mpi_send(buf, 2, 1, 1, MPI_COMM_WORLD);
        mpi_send(buf, 2, 1, 2, dup);
        mpi_recv(buf, 2, 1, 3, sub);
    }
    if (rank == 1) {
        mpi_recv(buf, 2, 0, 2, dup);
        mpi_recv(buf, 2, 0, 1, MPI_COMM_WORLD);
        mpi_send(buf, 2, 0, 3, sub);
    }
    print(dup, sub);
    mpi_finalize();
""")


class TestRunsShareNoState:
    """A trace is a pure function of the program object and the
    RunConfig: runs earlier in the same process leave no trace in it
    (cell, message and communicator ids are all per-run)."""

    @staticmethod
    def _first_difference(a, b):
        """``(line number, a's line, b's line)`` where two traces first
        differ, or None; cheap to report where a full string diff of
        two multi-megabyte traces is not."""
        pairs = zip_longest(a.splitlines(), b.splitlines())
        for lineno, (line_a, line_b) in enumerate(pairs, 1):
            if line_a != line_b:
                return lineno, line_a, line_b
        return None

    @staticmethod
    def _trace(program, engine, **cfg):
        config = RunConfig(nprocs=2, num_threads=2, seed=3, engine=engine, **cfg)
        buf = io.StringIO()
        dump_log(run_program(program, config).log, buf)
        return buf.getvalue()

    @pytest.mark.parametrize("engine", ["ast", "bytecode"])
    def test_interleaved_runs_replay_byte_identical(self, engine):
        racy = build_racy_npb()
        comms = parse(COMM_PROGRAM)
        validate(comms)

        def run_a():
            return self._trace(racy, engine, monitor_memory=True)

        def run_b():
            return self._trace(comms, engine)

        a1, b1, a2, b2 = run_a(), run_b(), run_a(), run_b()
        assert '"t": "MemAccess"' in a1
        assert self._first_difference(a1, a2) is None
        assert self._first_difference(b1, b2) is None


class TestToolDeterminism:
    def _violation_keys(self, report):
        return sorted(
            (v.vclass, v.proc, v.locs) for v in report.violations
        )

    def test_home_verdicts_reproducible(self):
        a = check_program(case_study_2(), nprocs=2, seed=7)
        b = check_program(case_study_2(), nprocs=2, seed=7)
        assert a.makespan == b.makespan
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_marmot_verdicts_reproducible(self):
        a = Marmot().check(build_lu_mz(inject=True), nprocs=2, seed=0)
        b = Marmot().check(build_lu_mz(inject=True), nprocs=2, seed=0)
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_itc_verdicts_reproducible(self):
        a = IntelThreadChecker().check(case_study_2(), nprocs=2, seed=3)
        b = IntelThreadChecker().check(case_study_2(), nprocs=2, seed=3)
        assert self._violation_keys(a) == self._violation_keys(b)

    def test_home_verdict_stable_across_seeds(self):
        """HOME's hybrid analysis detects potential races regardless of
        which interleaving actually ran — the verdict set is seed-stable."""
        verdicts = {
            tuple(sorted(check_program(case_study_2(), nprocs=2, seed=s)
                         .violations.classes()))
            for s in range(5)
        }
        assert len(verdicts) == 1
