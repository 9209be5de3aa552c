"""A finished run's result never changes afterwards.

A run that ends with threads still suspended (deadlock, rank abort)
leaves their generators open.  Whatever unwinding those threads does
when they are closed — ``ThreadEnd`` and ``LockRelease`` from
``finally`` blocks — must not reach the finished trace, whenever the
garbage collector gets to them.  And a finished run's interpreter is
freed as soon as it is dropped, not by the cyclic collector.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import weakref

import pytest

from repro.events.serialize import dump_log
from repro.minilang import parse, validate
from repro.runtime import RunConfig, make_interpreter
from repro.workloads.npb import build_racy_npb

#: both ranks receive inside a critical section and nobody sends: one
#: thread per rank blocks holding the lock, its sibling blocks on it
DEADLOCK = """
program deadlock;
var buf[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    omp parallel num_threads(2) {
        omp critical {
            mpi_recv(buf, 1, 1 - rank, 0, MPI_COMM_WORLD);
        }
    }
    mpi_finalize();
}
"""

#: rank 1 aborts; rank 0's team waits for it forever
ABORT = """
program abort;
var buf[1];
func main() {
    var provided = mpi_init_thread(MPI_THREAD_MULTIPLE);
    var rank = mpi_comm_rank(MPI_COMM_WORLD);
    if (rank == 1) {
        thread_join(99);
    }
    omp parallel num_threads(2) {
        mpi_recv(buf, 1, 1, 0, MPI_COMM_WORLD);
    }
    mpi_finalize();
}
"""


def _dump(log) -> str:
    buf = io.StringIO()
    dump_log(log, buf)
    return buf.getvalue()


@pytest.mark.parametrize("engine", ["ast", "bytecode"])
@pytest.mark.parametrize("source", [DEADLOCK, ABORT], ids=["deadlock", "abort"])
def test_trace_unchanged_by_garbage_collection(source, engine):
    program = parse(source)
    validate(program)
    config = RunConfig(nprocs=2, num_threads=2, seed=0, engine=engine)
    gc.disable()
    try:
        result = make_interpreter(program, config).run()
        notes = list(result.notes)
        before = _dump(result.log)
        gc.collect()
        after = _dump(result.log)
    finally:
        gc.enable()
    assert result.deadlock is not None
    assert before == after
    assert result.notes == notes


@pytest.mark.parametrize("engine", ["ast", "bytecode"])
@pytest.mark.parametrize("source", [None, DEADLOCK], ids=["racy-npb", "deadlock"])
def test_finished_interpreter_freed_without_cycle_collection(source, engine):
    """Dropping a finished run's interpreter frees it, and the trace it
    holds, at once: no run state refers back to it, so a campaign's
    finished cells do not pile up waiting for the cyclic collector."""
    if source is None:
        program = build_racy_npb()
    else:
        program = parse(source)
        validate(program)
    config = RunConfig(
        nprocs=2, num_threads=2, seed=0, engine=engine, monitor_memory=True
    )
    gc.disable()
    try:
        interp = make_interpreter(program, config)
        interp.run()
        dead = weakref.ref(interp)
        del interp
        assert dead() is None
    finally:
        gc.enable()


def test_engine_oracle_clean_on_seed_run_first_in_fresh_process():
    """Generator seed 12262003720143 deadlocks; run first in a fresh
    process, its ast trace used to gain a late ``ThreadEnd`` from the
    garbage collector before the engine oracle dumped it."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "from repro.fuzz import FuzzConfig, run_fuzz\n"
        "report = run_fuzz(FuzzConfig(seeds=1, seed_base=12262003720143,"
        " reduce=False))\n"
        "print([v['message'].splitlines()[0] for o in report.outcomes\n"
        "       for v in o.violations if v['class'] == 'fuzz:engine'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
