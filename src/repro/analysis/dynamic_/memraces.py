"""Happens-before data-race detection on user memory accesses.

This is what a general-purpose thread checker (the paper's ITC
comparison) does: monitor *every* shared memory access in parallel
regions and report unordered conflicting pairs.  HOME deliberately does
not do this — it is the expensive path — but the ITC baseline model
needs it, and it doubles as an ablation showing why monitored-variable
filtering is so much cheaper.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ...events import EventLog, MemAccess
from .happensbefore import HBResult, compute_happens_before


_THREAD = attrgetter("thread")
_IS_WRITE = attrgetter("is_write")


@dataclass
class MemRace:
    """A conflicting, unordered access pair on one memory cell."""

    proc: int
    cell: int
    index: int
    var: str
    seq_a: int
    seq_b: int
    thread_a: int
    thread_b: int
    callsite_a: int
    callsite_b: int


def find_memory_races(
    log: EventLog,
    proc: int,
    lock_edges: bool = True,
    ignored_locks=None,
    use_lockset: bool = True,
    hb: Optional[HBResult] = None,
) -> List[MemRace]:
    """Conflicting unordered access pairs on shared cells of *proc*.

    One race per racy memory location (cell, element): the
    lexicographically first ``(i, j)`` pair of its accesses in log
    order.  *hb*, when given, must be the replay of *proc* under the
    same ``lock_edges``/``ignored_locks``; without it the log is
    replayed here.
    """
    accesses = log.memory_locations(proc)
    if not accesses:
        return []

    if hb is None:
        hb = compute_happens_before(
            log, proc, lock_edges=lock_edges, ignored_locks=ignored_locks
        )

    races: List[MemRace] = []
    for (cell, index), evs in accesses.items():
        pair = _first_race(evs, hb, use_lockset)
        if pair is not None:
            a, b = pair
            races.append(MemRace(
                proc=proc, cell=cell, index=index, var=a.var,
                seq_a=a.seq, seq_b=b.seq,
                thread_a=a.thread, thread_b=b.thread,
                callsite_a=a.callsite, callsite_b=b.callsite,
            ))
    return races


def _first_race(
    evs: List[MemAccess], hb: HBResult, use_lockset: bool
) -> Optional[Tuple[MemAccess, MemAccess]]:
    """The lexicographically first racing ``(evs[i], evs[j])``, i < j.

    *evs* are in emission order, so ``evs[i]`` happens-before ``evs[j]``
    (i < j) iff ``evs[j]``'s view has reached ``evs[i]``'s seq — the
    one-sided epoch test of :mod:`.happensbefore` (an access is never
    ordered before one emitted earlier).

    Accesses come in runs of one thread.  Within a run every access has
    the same next access (and next write) on each other thread, so when
    the run's last write is ordered before each other thread's next
    access and its last access before each other thread's next write,
    program order clears the whole run at once.  One backward pass over
    the runs applies that test; only the runs it cannot clear get the
    per-access search of :func:`_first_race_in_runs`.  With lock edges
    on, accesses under a common lock are ordered, so the scan is linear.
    """
    # most locations are touched by one thread or only read: skip them
    # with C-level passes before any per-run bookkeeping
    tid = evs[0].thread
    if evs[-1].thread == tid and list(map(_THREAD, evs)).count(tid) == len(evs):
        return None
    if not any(map(_IS_WRITE, evs)):
        return None
    runs = [(thread, list(run)) for thread, run in groupby(evs, _THREAD)]
    #: other thread -> the view components at its next access / next
    #: write after the current run
    next_access: Dict[int, Dict] = {}
    next_write: Dict[int, Dict] = {}
    suspects: List[int] = []
    for r in range(len(runs) - 1, -1, -1):
        tid, run = runs[r]
        last_write = next(filter(_IS_WRITE, reversed(run)), None)
        if not _run_ordered(tid, run, last_write, next_access, next_write):
            suspects.append(r)
        timeline = hb.timeline(tid)
        seqs, views = timeline.seqs, timeline.views
        next_access[tid] = views[bisect_right(seqs, run[0].seq) - 1]
        if last_write is not None:
            first_write = next(filter(_IS_WRITE, run))
            next_write[tid] = views[bisect_right(seqs, first_write.seq) - 1]
    if not suspects:
        return None
    suspects.reverse()
    return _first_race_in_runs(evs, runs, suspects, hb, use_lockset)


def _run_ordered(
    tid: int,
    run: List[MemAccess],
    last_write: Optional[MemAccess],
    next_access: Dict[int, Dict],
    next_write: Dict[int, Dict],
) -> bool:
    """True when every access of thread *tid*'s *run* is ordered before
    every later conflicting access of the other threads."""
    if last_write is not None:
        own = last_write.seq
        for other, view in next_access.items():
            if other != tid and own > view.get(tid, -1):
                return False
    last = run[-1]
    if last is not last_write:
        own = last.seq
        for other, view in next_write.items():
            if other != tid and own > view.get(tid, -1):
                return False
    return True


def _first_race_in_runs(
    evs: List[MemAccess],
    runs: List[Tuple[int, List[MemAccess]]],
    suspects: List[int],
    hb: HBResult,
    use_lockset: bool,
) -> Optional[Tuple[MemAccess, MemAccess]]:
    """The first race of an access in one of the *suspects* runs.

    Per access ``a`` and per other thread, only that thread's later
    accesses that could conflict with ``a`` are walked (its writes if
    ``a`` is a read), and the walk stops at the first one ordered after
    ``a``: that thread's later accesses are then ordered after ``a`` too.
    """
    # thread -> (positions of all its accesses, positions of its writes)
    by_thread: Dict[int, Tuple[List[int], List[int]]] = {}
    for pos, event in enumerate(evs):
        mine = by_thread.get(event.thread)
        if mine is None:
            mine = by_thread[event.thread] = ([], [])
        mine[0].append(pos)
        if event.is_write:
            mine[1].append(pos)
    # the view components and lockset at each access, by position
    end = len(evs)
    views: List = [None] * end
    locks: List = [None] * end
    for thread, (everything, _writes) in by_thread.items():
        timeline = hb.timeline(thread)
        seqs, thread_views, thread_locks = (
            timeline.seqs, timeline.views, timeline.locks
        )
        for pos in everything:
            at = bisect_right(seqs, evs[pos].seq) - 1
            views[pos] = thread_views[at]
            locks[pos] = thread_locks[at]
    offsets = list(accumulate((len(run) for _, run in runs), initial=0))
    for r in suspects:
        tid = runs[r][0]
        start, stop = offsets[r], offsets[r + 1]
        # each other thread's accesses and writes from the run's end on
        tails = [
            (everything[bisect_right(everything, start):],
             writes[bisect_right(writes, start):])
            for other, (everything, writes) in by_thread.items()
            if other != tid
        ]
        for i in range(start, stop):
            a = evs[i]
            own = a.seq
            first = end
            for everything, writes in tails:
                for j in (everything if a.is_write else writes):
                    if j >= first or own <= views[j].get(tid, -1):
                        break  # cannot improve, or ordered after a
                    if use_lockset and locks[i] & locks[j]:
                        continue
                    first = j
                    break
            if first < end:
                return a, evs[first]
    return None
