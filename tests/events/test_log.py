"""EventLog query tests."""

import functools
from pathlib import Path

import pytest

from helpers import npb_sources

from repro.events import EventLog, LockAcquire, MemAccess, MonitoredWrite, MPICall
from repro.events.event import MonitoredKind
from repro.faults import builtin_plans
from repro.home import Home
from repro.minilang import parse
from repro.runtime import run_program
from repro.workloads import case_studies


def make_log():
    log = EventLog()
    log.append(MPICall(proc=0, thread=0, seq=log.next_seq(), time=1.0,
                       op="mpi_send", phase="begin", call_id=1))
    log.append(MPICall(proc=0, thread=0, seq=log.next_seq(), time=2.0,
                       op="mpi_send", phase="end", call_id=1))
    log.append(MPICall(proc=0, thread=1, seq=log.next_seq(), time=1.5,
                       op="mpi_recv", phase="begin", call_id=2))
    log.append(MPICall(proc=1, thread=0, seq=log.next_seq(), time=0.5,
                       op="mpi_barrier", phase="begin", call_id=3))
    log.append(MonitoredWrite(proc=0, thread=1, seq=log.next_seq(), time=1.4,
                              kind=MonitoredKind.TAG, value=7, mpi_op="mpi_recv",
                              call_id=2))
    log.append(LockAcquire(proc=0, thread=0, seq=log.next_seq(), time=3.0, lock="L"))
    return log


class TestQueries:
    def test_len_and_iter(self):
        log = make_log()
        assert len(log) == 6
        assert len(list(log)) == 6

    def test_seq_monotonic(self):
        log = make_log()
        seqs = [e.seq for e in log]
        assert seqs == sorted(seqs)

    def test_of_type_exact(self):
        log = make_log()
        assert len(log.of_type(MPICall)) == 4
        assert len(log.of_type(MonitoredWrite)) == 1
        assert log.of_type(MemAccess) == []

    def test_processes(self):
        assert make_log().processes() == [0, 1]

    def test_threads_of(self):
        assert sorted(make_log().by_thread(0)) == [0, 1]

    def test_for_process(self):
        streams = make_log().by_thread(1)
        assert sum(len(events) for events in streams.values()) == 1

    def test_by_thread_streams(self):
        streams = make_log().by_thread(0)
        assert set(streams) == {0, 1}
        assert len(streams[0]) == 3

    def test_mpi_calls_phase_filter(self):
        log = make_log()
        begins = log.mpi_calls(0)
        assert all(e.phase == "begin" for e in begins)
        assert len(begins) == 2

    def test_call_intervals_pairs_begin_end(self):
        log = make_log()
        pairs = log.mpi_call_intervals(0)
        assert len(pairs) == 1
        begin, end = pairs[0]
        assert begin.call_id == end.call_id == 1

    def test_unfinished_calls(self):
        log = make_log()
        unfinished = log.unfinished_mpi_calls(0)
        assert [e.call_id for e in unfinished] == [2]

    def test_monitored_writes(self):
        log = make_log()
        writes = log.of_process_type(0, MonitoredWrite)
        assert len(writes) == 1 and writes[0].kind is MonitoredKind.TAG
        assert log.of_process_type(1, MonitoredWrite) == []

    def test_counts(self):
        counts = make_log().counts()
        assert counts["MPICall"] == 4
        assert counts["LockAcquire"] == 1


# -- seqs strictly increase in every interpreter log --------------------------
#
# The happens-before replay uses each event's seq as its clock epoch,
# which needs seqs strictly increasing in log order.  Checked on every
# program the analyses are tested on, under every builtin fault plan
# (but the drill that kills its host process) and both engines.

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "fuzz_corpus"


def _sources():
    sources = {f"npb-{name}": src for name, src in npb_sources().items()}
    for name in ("case_study_1", "case_study_2", "case_study_2_fixed",
                 "safe_funneled"):
        sources[name] = getattr(case_studies, name.upper())
    for path in sorted(CORPUS.glob("seed-*.mini")):
        sources[f"corpus-{path.stem}"] = path.read_text()
    return sources


SOURCES = _sources()
PLANS = {name: plan for name, plan in builtin_plans(2).items() if name != "killworker"}


@functools.lru_cache(maxsize=None)
def _prepared(name):
    return Home().prepare(parse(SOURCES[name]))


@pytest.mark.parametrize("engine", ["ast", "bytecode"])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_interpreter_logs_have_strictly_increasing_seqs(name, engine):
    to_run, static = _prepared(name)
    for plan in PLANS.values():
        config = Home().run_config(
            2, 2, 0, static=static, engine=engine, fault_plan=plan,
            max_steps=200_000, capture_partial=True,
        )
        seqs = [event.seq for event in run_program(to_run, config).log]
        assert len(seqs) > 1
        assert all(a < b for a, b in zip(seqs, seqs[1:])), plan.name
