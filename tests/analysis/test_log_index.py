"""The per-process ``EventLog`` index and the analyses that read it.

The index is built from one pass over the log and rebuilt when the log
grows.  The index-backed analyses must give exactly what the whole-log
scans they replaced gave; those scans are kept in
:mod:`reference_dynamic` as the oracle.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from helpers import npb_sources
from .reference_dynamic import (
    reference_call_records,
    reference_happens_before,
    reference_match_violations,
    reference_memory_races,
    reference_relation,
    relation,
)

from repro.analysis.dynamic_.happensbefore import (
    compute_cross_process_happens_before,
    compute_happens_before,
)
from repro.analysis.dynamic_.hybrid import analyze, collect_call_records
from repro.analysis.dynamic_.memraces import find_memory_races
from repro.baselines import IntelThreadChecker
from repro.baselines.itc import itc_ignores_lock
from repro.events import (
    BarrierEvent,
    EventLog,
    LockAcquire,
    LockRelease,
    MemAccess,
    MPICall,
    ThreadBegin,
    ThreadFork,
    ThreadJoin,
)
from repro.home import Home
from repro.minilang import parse
from repro.runtime import run_program
from repro.violations import match_violations
from repro.workloads.npb import build_racy_npb


class _CountingList(list):
    """A list that counts the iterations started over it."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _access(log, proc, thread, cell, index=-1, is_write=True):
    return MemAccess(proc, thread, log.next_seq(), 0.0, is_write, cell, "x", 1, index)


class TestIndex:
    def test_sees_raw_appends_after_a_query(self):
        log = EventLog()
        append = log.raw_append()
        append(_access(log, 0, 0, cell=1))
        assert log.processes() == [0]
        assert len(log.memory_locations(0)[1, -1]) == 1
        # appended behind the log's back, after the index was built
        append(_access(log, 1, 0, cell=1))
        append(_access(log, 0, 1, cell=1))
        append(LockAcquire(0, 1, log.next_seq(), 0.0, lock="L"))
        assert log.processes() == [0, 1]
        assert [e.thread for e in log.memory_locations(0)[1, -1]] == [0, 1]
        assert sum(len(events) for events in log.by_thread(0).values()) == 3
        assert len(log.of_process_type(0, LockAcquire)) == 1
        assert sorted(log.by_thread(0)) == [0, 1]

    def test_typed_queries_hand_out_copies(self):
        log = EventLog()
        log.append(_access(log, 0, 0, cell=1))
        log.of_type(MemAccess).clear()
        log.of_process_type(0, MemAccess).clear()
        assert len(log.of_type(MemAccess)) == 1
        assert len(log.of_process_type(0, MemAccess)) == 1

    def test_of_type_keeps_log_order_across_processes(self):
        log = EventLog()
        for proc in (1, 0, 1, 0):
            log.append(_access(log, proc, 0, cell=proc))
        assert [e.proc for e in log.of_type(MemAccess)] == [1, 0, 1, 0]
        assert log.of_type(MPICall) == []

    def test_location_groups_are_not_kept_with_the_log(self):
        log = EventLog()
        for thread, cell in ((0, 1), (1, 2), (1, 1)):
            log.append(_access(log, 0, thread, cell=cell))
        groups = log.memory_locations(0)
        assert list(groups) == [(1, -1), (2, -1)]
        assert [e.thread for e in groups[1, -1]] == [0, 1]
        again = log.memory_locations(0)
        assert again == groups and again is not groups

    def test_pickle_keeps_events_and_seq_allocator(self):
        log = EventLog()
        log.append(_access(log, 0, 0, cell=1))
        log.processes()
        clone = pickle.loads(pickle.dumps(log))
        assert list(clone) == list(log)
        assert clone.next_seq() == log.next_seq() == 1
        assert clone.processes() == [0]

    def test_reserve_seqs_only_moves_forward(self):
        log = EventLog()
        log.reserve_seqs(9)
        assert log.next_seq() == 10
        log.reserve_seqs(3)
        assert log.next_seq() == 11


def test_home_analyze_makes_one_pass_over_a_campaign_cell_log():
    home = Home()
    to_run, static = home.prepare(build_racy_npb())
    result = run_program(to_run, home.run_config(2, 2, 7, static=static))
    assert result.config.monitor_memory
    log = result.log
    counting = log._events = _CountingList(log._events)
    violations = home.analyze(result, static)
    assert counting.passes == 1
    assert any(v.vclass == "DataRace" for v in violations)


class _ReadCounter(list):
    """A list that counts the elements read by iterating over it."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


SYNC_TYPES = (ThreadFork, ThreadBegin, ThreadJoin, BarrierEvent, LockAcquire, LockRelease)


def _count_reads(log):
    """Wrap every process's event list and per-type lists of *log*'s
    index in :class:`_ReadCounter`; returns the wrappers."""
    counters = []
    for proc in log.processes():
        index = log._indexed().process(proc)
        index.typed(MemAccess)  # split by type before wrapping
        index.events = _ReadCounter(index.events)
        index._typed = {kind: _ReadCounter(events) for kind, events in index._typed.items()}
        counters += [index.events, *index._typed.values()]
    return counters


def test_replay_reads_only_sync_events():
    home = Home()
    to_run, static = home.prepare(build_racy_npb())
    # every access site monitored: a dense stream, where reading only
    # the sync events matters most
    config = home.run_config(2, 2, 7, static=static, memory_sites=None)
    log = run_program(to_run, config).log
    counters = _count_reads(log)
    for proc in log.processes():
        sync = [e for e in log if e.proc == proc and type(e) in SYNC_TYPES]
        before = sum(counter.reads for counter in counters)
        hb = compute_happens_before(log, proc)
        assert sum(counter.reads for counter in counters) - before == len(sync)
        # one timeline entry per sync event, and nothing kept per event
        assert sum(len(t.seqs) - 1 for t in hb.timelines.values()) == len(sync)
        assert set(vars(hb)) == {"proc", "timelines"}
    job_sync = [e for e in log if type(e) in (*SYNC_TYPES, MPICall)]
    before = sum(counter.reads for counter in counters)
    compute_cross_process_happens_before(log)
    assert sum(counter.reads for counter in counters) - before == len(job_sync)
    assert len(job_sync) < len(log) / 10


TOOLS = {"home": Home, "itc": IntelThreadChecker}


@functools.lru_cache(maxsize=None)
def _prepared(name: str, tool_name: str):
    tool = TOOLS[tool_name]()
    return (tool, *tool.prepare(parse(npb_sources()[name])))


def _fresh(log):
    """A copy of *log* with no index, so each side starts cold."""
    copy = EventLog()
    copy.extend(log)
    return copy


@pytest.mark.parametrize("engine", ["ast", "bytecode"])
@pytest.mark.parametrize("tool_name", sorted(TOOLS))
@pytest.mark.parametrize("name", sorted(npb_sources()))
def test_index_backed_analyses_match_the_whole_log_scans(name, tool_name, engine):
    tool, to_run, static = _prepared(name, tool_name)
    result = run_program(to_run, tool.run_config(2, 2, 0, static=static, engine=engine))
    log = result.log
    assert len(log.processes()) == 2
    hb_configs = [{}, {"lock_edges": False}, {"ignored_locks": itc_ignores_lock}]
    for proc in log.processes():
        for cfg in hb_configs:
            hb = compute_happens_before(_fresh(log), proc, **cfg)
            assert relation(log, proc, hb) == reference_relation(
                reference_happens_before(log, proc, **cfg)
            )
        for lockset in (True, False):
            assert find_memory_races(_fresh(log), proc, use_lockset=lockset) == (
                reference_memory_races(log, proc, use_lockset=lockset)
            )
        assert collect_call_records(_fresh(log), proc) == (
            reference_call_records(log, proc)
        )
    reports = analyze(log)
    got = match_violations(_fresh(log), reports)
    want = reference_match_violations(log, reports)
    assert got.violations == want.violations
    assert got.procs_by_finding == want.procs_by_finding
