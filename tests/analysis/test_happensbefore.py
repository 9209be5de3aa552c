"""Happens-before computation over real interpreter traces."""

import pytest

from helpers import run_main

from .reference_dynamic import covered, thread_seqs
from repro.analysis.dynamic_.happensbefore import compute_happens_before
from repro.events import LockAcquire, LockRelease, MemAccess


def hb_for(body, **kw):
    kw.setdefault("monitor_memory", True)
    result = run_main(body, **kw)
    return result, compute_happens_before(result.log, 0, **{
        k: kw.pop(k) for k in () })


def mem_events(result, var):
    return [e for e in result.log.of_type(MemAccess) if e.var == var]


def covered_by(result, hb, event):
    """Thread -> how many of its events the clock at *event* covers."""
    return covered(thread_seqs(result.log, 0), hb.clock(event))


def leq(counts_a, counts_b):
    return all(n <= counts_b.get(tid, 0) for tid, n in counts_a.items())


def strictly_before(result, hb, a, b):
    """The epoch test, checked against the full clocks it stands for."""
    clock_a, clock_b = covered_by(result, hb, a), covered_by(result, hb, b)
    assert hb.happens_before(a, b) == (
        leq(clock_a, clock_b) and not leq(clock_b, clock_a)
    )
    return hb.happens_before(a, b)


class TestProgramOrder:
    def test_same_thread_events_ordered(self):
        body = """
var x = 0;
omp parallel num_threads(2) {
    x = x + 1;
    x = x + 2;
}
"""
        result = run_main(body, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        per_thread = {}
        for e in mem_events(result, "x"):
            per_thread.setdefault(e.thread, []).append(e)
        for evs in per_thread.values():
            for a, b in zip(evs, evs[1:]):
                assert strictly_before(result, hb, a, b)


class TestForkJoin:
    def test_pre_fork_writes_ordered_before_worker_reads(self):
        body = """
var x = 1;
omp parallel num_threads(2) {
    var y = x;
    compute(1);
}
"""
        result = run_main(body, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        events = mem_events(result, "x")
        writes = [e for e in events if e.is_write]
        reads = [e for e in events if not e.is_write]
        # NOTE: the initial declaration happens before monitoring starts
        # (outside any parallel region); reads inside the region exist.
        assert reads
        for a in writes:
            for b in reads:
                assert hb.ordered(a, b)

    def test_post_join_reads_ordered_after_worker_writes(self):
        body = """
var x = 0;
omp parallel num_threads(2) {
    omp critical { x = x + 1; }
}
omp parallel num_threads(2) {
    var y = x;
}
"""
        result = run_main(body, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        events = mem_events(result, "x")
        writes = [e for e in events if e.is_write]
        reads = [e for e in events if not e.is_write and e.seq > max(w.seq for w in writes)]
        assert reads
        for w in writes:
            for r in reads:
                assert hb.ordered(w, r)


class TestConcurrency:
    RACY = """
var x = 0;
omp parallel num_threads(2) {
    x = x + 1;
}
"""

    def test_unsynchronized_writes_concurrent(self):
        result = run_main(self.RACY, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        writes = [e for e in mem_events(result, "x") if e.is_write]
        by_thread = {}
        for e in writes:
            by_thread.setdefault(e.thread, e)
        threads = list(by_thread.values())
        assert len(threads) == 2
        assert hb.concurrent(threads[0], threads[1])

    def test_barrier_orders_across_threads(self):
        body = """
var x = 0;
omp parallel num_threads(2) {
    if (omp_get_thread_num() == 0) { x = 1; }
    omp barrier;
    if (omp_get_thread_num() == 1) { x = 2; }
}
"""
        result = run_main(body, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        writes = [e for e in mem_events(result, "x") if e.is_write]
        assert len(writes) == 2
        a, b = sorted(writes, key=lambda e: e.seq)
        assert strictly_before(result, hb, a, b)


class TestLockEdges:
    CRITICAL = """
var x = 0;
omp parallel num_threads(2) {
    omp critical { x = x + 1; }
}
"""

    def _write_pair(self, result):
        writes = [e for e in result.log.of_type(MemAccess)
                  if e.var == "x" and e.is_write]
        by_thread = {}
        for e in writes:
            by_thread.setdefault(e.thread, e)
        return list(by_thread.values())

    def test_critical_creates_order_with_lock_edges(self):
        result = run_main(self.CRITICAL, monitor_memory=True)
        hb = compute_happens_before(result.log, 0, lock_edges=True)
        a, b = self._write_pair(result)
        assert hb.ordered(a, b)

    def test_without_lock_edges_writes_concurrent(self):
        result = run_main(self.CRITICAL, monitor_memory=True)
        hb = compute_happens_before(result.log, 0, lock_edges=False)
        a, b = self._write_pair(result)
        assert hb.concurrent(a, b)

    def test_locksets_disjointness(self):
        result = run_main(self.CRITICAL, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        a, b = self._write_pair(result)
        # Both writes hold the same critical lock.
        assert not hb.disjoint_locks(a, b)

    def test_ignored_locks_predicate(self):
        body = """
var x = 0;
omp parallel num_threads(2) {
    omp critical (named) { x = x + 1; }
}
"""
        result = run_main(body, monitor_memory=True)
        hb = compute_happens_before(
            result.log, 0,
            ignored_locks=lambda name: "named" in name,
        )
        a, b = self._write_pair(result)
        assert hb.concurrent(a, b)
        assert hb.disjoint_locks(a, b)

    def test_ignored_locks_set(self):
        result = run_main(self.CRITICAL, monitor_memory=True)
        hb = compute_happens_before(
            result.log, 0, ignored_locks={"critical:<anonymous>"}
        )
        a, b = self._write_pair(result)
        assert hb.concurrent(a, b)

    def test_lockset_snapshot_inside_critical(self):
        result = run_main(self.CRITICAL, monitor_memory=True)
        hb = compute_happens_before(result.log, 0)
        writes = [e for e in result.log.of_type(MemAccess)
                  if e.var == "x" and e.is_write]
        for w in writes:
            assert "critical:<anonymous>" in hb.locks(w)
