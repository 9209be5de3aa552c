"""DAMPI-style message-race detection tests."""

import itertools
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import MPI_PAIR_HEADER, npb_sources, run_src, wrap_main

from .reference_dynamic import CrossProcessHB
from repro.analysis.dynamic_ import msgrace
from repro.analysis.dynamic_.happensbefore import (
    compute_cross_process_happens_before,
)
from repro.analysis.dynamic_.msgrace import (
    find_message_races,
    wildcard_races,
)
from repro.events import EventLog, MemAccess, MPICall
from repro.home import Home
from repro.minilang import parse
from repro.runtime import run_program
from repro.workloads import case_studies
from repro.workloads.patterns import master_worker

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "fuzz_corpus"


def run_world(body, nprocs=3, **kw):
    return run_src(wrap_main(MPI_PAIR_HEADER + body), nprocs=nprocs, **kw)


class TestWildcardRaces:
    def test_two_senders_one_wildcard_recv(self):
        """The canonical message race: two candidate senders, a wildcard
        receive — either could match."""
        body = """
    var buf[1];
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 2) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
"""
        result = run_world(body)
        races = wildcard_races(result.log)
        assert races, "two-sender wildcard receive must race"
        assert all(r.is_wildcard for r in races)

    def test_single_sender_wildcard_not_racy(self):
        """One candidate sender: the wildcard is determined."""
        body = """
    var buf[1];
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) { mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD); }
    mpi_finalize();
"""
        result = run_world(body, nprocs=2)
        assert wildcard_races(result.log) == []

    def test_specific_sources_not_racy(self):
        body = """
    var buf[1];
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 2) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) {
        mpi_recv(buf, 1, 1, 5, MPI_COMM_WORLD);
        mpi_recv(buf, 1, 2, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
"""
        result = run_world(body)
        assert find_message_races(result.log) == []

    def test_causally_ordered_sends_not_alternatives(self):
        """A send that happens only *because* the receive completed (it
        is causally after it) cannot have raced it."""
        body = """
    var buf[1];
    if (rank == 1) {
        mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD);
    }
    if (rank == 0) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
        mpi_send(buf, 1, 2, 6, MPI_COMM_WORLD);
    }
    if (rank == 2) {
        mpi_recv(buf, 1, 0, 6, MPI_COMM_WORLD);
        mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD);
    }
    if (rank == 0) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
"""
        result = run_world(body)
        first_recv_races = [
            r for r in wildcard_races(result.log)
            if r.matched_send is not None and r.matched_send.proc == 1
        ]
        # rank 2's send is causally after the first receive (it waits for
        # a message that only exists once the receive happened), so the
        # first receive has no true alternative.
        assert first_recv_races == []

    def test_barrier_separation_removes_race(self):
        """Collective synchronization orders the second sender after the
        first receive: no race."""
        body = """
    var buf[1];
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) { mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD); }
    mpi_barrier(MPI_COMM_WORLD);
    if (rank == 2) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) { mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD); }
    mpi_finalize();
"""
        result = run_world(body)
        assert wildcard_races(result.log) == []


class TestRaceReporting:
    def test_race_names_alternative_ranks(self):
        body = """
    var buf[1];
    if (rank == 1) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 2) { mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD); }
    if (rank == 0) {
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
        mpi_recv(buf, 1, MPI_ANY_SOURCE, 5, MPI_COMM_WORLD);
    }
    mpi_finalize();
"""
        result = run_world(body)
        race = wildcard_races(result.log)[0]
        text = str(race)
        assert "MessageRace" in text and "could also have matched" in text

    def test_any_tag_race(self):
        body = """
    var buf[1];
    if (rank == 1) {
        mpi_send(buf, 1, 0, 5, MPI_COMM_WORLD);
        mpi_send(buf, 1, 0, 6, MPI_COMM_WORLD);
    }
    if (rank == 0) {
        mpi_recv(buf, 1, 1, MPI_ANY_TAG, MPI_COMM_WORLD);
        mpi_recv(buf, 1, 1, MPI_ANY_TAG, MPI_COMM_WORLD);
    }
    mpi_finalize();
"""
        result = run_world(body, nprocs=2)
        assert wildcard_races(result.log)


class TestCrossProcessHB:
    def test_send_recv_edge_orders_events(self):
        body = """
    var buf[1];
    if (rank == 0) {
        compute(5);
        mpi_send(buf, 1, 1, 5, MPI_COMM_WORLD);
    }
    if (rank == 1) {
        mpi_recv(buf, 1, 0, 5, MPI_COMM_WORLD);
        compute(5);
    }
    mpi_finalize();
"""
        result = run_world(body, nprocs=2)
        hb = compute_cross_process_happens_before(result.log)
        # The causal edge sources at the send *begin* (the message's
        # content is fixed when it is posted).
        send_begin = next(
            e for e in result.log
            if getattr(e, "op", "") == "mpi_send" and e.phase == "begin"
        )
        recv_end = next(
            e for e in result.log
            if getattr(e, "op", "") == "mpi_recv" and e.phase == "end"
        )
        assert hb.happens_before(send_begin, recv_end)
        # ...and therefore everything before the send orders before
        # everything after the receive.
        recv_begin = next(
            e for e in result.log
            if getattr(e, "op", "") == "mpi_recv" and e.phase == "begin"
        )
        assert not hb.happens_before(recv_begin, send_begin)

    def test_independent_processes_concurrent(self):
        result = run_world("    compute(3);\n    mpi_finalize();", nprocs=2)
        hb = compute_cross_process_happens_before(result.log)
        ends = [e for e in result.log
                if getattr(e, "op", "") == "mpi_finalize" and e.phase == "end"]
        assert len(ends) == 2
        assert not hb.ordered(ends[0], ends[1])

    def test_master_worker_pattern_is_racy_by_design(self):
        """ANY_SOURCE result collection in master/worker is the textbook
        (usually benign) message race."""
        from repro.workloads.patterns import master_worker

        from repro.runtime import RunConfig, run_program

        result = run_program(master_worker(tasks=4),
                             RunConfig(nprocs=3, num_threads=2))
        assert wildcard_races(result.log)


class TestThreadKeys:
    def test_thread_ids_past_ten_thousand_stay_distinct(self):
        """Threads are keyed by (process, thread): thread 10000 of process
        0 is not thread 0 of process 1, and with no edge between them
        their events are unordered."""
        log = EventLog()
        for proc, thread in ((0, 10_000), (1, 0)):
            log.append(MemAccess(proc, thread, log.next_seq(), 0.0, True, 1, "x", 1, -1))
        first, second = log
        hb = compute_cross_process_happens_before(log)
        assert not hb.ordered(first, second)
        assert not hb.happens_before(first, second)
        assert not hb.happens_before(second, first)


# -- equivalence with the reference replay ------------------------------------


def _programs():
    programs = {f"npb-{name}": src for name, src in npb_sources().items()}
    for name in ("case_study_1", "case_study_2", "case_study_2_fixed",
                 "safe_funneled"):
        programs[name] = getattr(case_studies, name.upper())
    for path in sorted(CORPUS.glob("seed-*.mini")):
        programs[f"corpus-{path.stem}"] = path.read_text()
    return programs


PROGRAMS = _programs()
#: master/worker's wildcard result collection races by design; its
#: synchronous-send run puts each send's end after its receive's end
MASTER_WORKER = ("master-worker", "master-worker-sync")


@lru_cache(maxsize=None)
def _log(name, engine):
    tool = Home()
    if name in MASTER_WORKER:
        to_run, static = master_worker(tasks=4), None
        nprocs, extra = 3, {"sync_sends": name.endswith("-sync")}
    else:
        to_run, static = tool.prepare(parse(PROGRAMS[name]))
        nprocs, extra = 2, {}
    config = tool.run_config(
        nprocs, 2, 0, static=static, engine=engine, max_steps=200_000,
        capture_partial=True, **extra,
    )
    return run_program(to_run, config).log


@pytest.mark.parametrize("engine", ["ast", "bytecode"])
@pytest.mark.parametrize("name", [*sorted(PROGRAMS), *MASTER_WORKER])
def test_cross_process_order_matches_the_reference(name, engine, monkeypatch):
    log = _log(name, engine)
    with monkeypatch.context() as patch:
        patch.setattr(msgrace, "compute_cross_process_happens_before", CrossProcessHB)
        expected = find_message_races(log), wildcard_races(log)
    assert (find_message_races(log), wildcard_races(log)) == expected
    reference = CrossProcessHB(log)
    hb = compute_cross_process_happens_before(log)
    calls = log.of_type(MPICall)
    for a, b in itertools.product(calls, repeat=2):
        assert hb.happens_before(a, b) == reference.happens_before(a, b), (a, b)
        assert hb.ordered(a, b) == reference.ordered(a, b), (a, b)


def test_reference_logs_exercise_the_message_edges():
    """The logs above include wildcard races, message races refuted by
    causality, collectives, and a receive that ends before its send."""
    log = _log("master-worker", "bytecode")
    assert wildcard_races(log)
    sync_log = _log("master-worker-sync", "bytecode")
    ends = {}
    for call in sync_log.mpi_calls(phase="end"):
        msg_id = call.args.get("msg_id")
        if msg_id:
            ends.setdefault(msg_id, []).append(call.op)
    assert any(ops[0] == "mpi_recv" and ops[1] == "mpi_send"
               for ops in ends.values() if len(ops) == 2)
    assert any(call.op == "mpi_allreduce"
               for call in _log("npb-lu", "bytecode").of_type(MPICall))
