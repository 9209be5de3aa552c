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
from typing import Dict, List, Optional, Tuple

from ...events import EventLog, MemAccess
from .happensbefore import HBResult, compute_happens_before


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
    accesses: Dict[tuple, List[MemAccess]] = {}
    for event in log:
        if type(event) is MemAccess and event.proc == proc:
            key = (event.cell, event.index)
            evs = accesses.get(key)
            if evs is None:
                accesses[key] = [event]
            else:
                evs.append(event)
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

    *evs* are in replay order, so ``evs[i]`` happens-before ``evs[j]``
    (i < j) iff ``evs[j]``'s clock has reached ``evs[i]``'s own epoch —
    the one-sided epoch test of :mod:`.happensbefore` (an access is never
    ordered before one replayed earlier).  Per access ``a`` and per
    other thread, only that thread's later accesses that could conflict
    with ``a`` are walked (its writes if ``a`` is a read), and the walk
    stops at the first one ordered after ``a``: that thread's later
    accesses are then ordered after ``a`` too.

    Accesses come in runs of one thread.  Within a run every access has
    the same next access (and next write) on each other thread, so when
    the run's last write is ordered before each other thread's next
    access and its last access before each other thread's next write,
    program order clears the whole run at once.  With lock edges on,
    accesses under a common lock are ordered, so the scan is linear.
    """
    tid = evs[0].thread
    if all(event.thread == tid for event in evs):
        return None
    # thread -> (positions of all its accesses, positions of its writes)
    by_thread: Dict[int, Tuple[List[int], List[int]]] = {}
    for pos, event in enumerate(evs):
        mine = by_thread.get(event.thread)
        if mine is None:
            mine = by_thread[event.thread] = ([], [])
        mine[0].append(pos)
        if event.is_write:
            mine[1].append(pos)
    if not any(writes for _, writes in by_thread.values()):
        return None

    clocks, locks = hb.clocks, hb.locks_held
    vcs = [clocks[event.seq]._c for event in evs]
    end = len(evs)
    start = 0
    while start < end:
        tid = evs[start].thread
        stop = start + 1
        while stop < end and evs[stop].thread == tid:
            stop += 1
        # each other thread's accesses and writes from the run's end on
        tails = []
        for other, (everything, writes) in by_thread.items():
            if other != tid and everything[-1] > start:
                k = bisect_right(everything, start)
                tails.append((everything[k:], writes[bisect_right(writes, start):]))
        if tails and not _run_ordered(evs, vcs, start, stop, tails):
            for i in range(start, stop):
                a = evs[i]
                epoch = vcs[i][tid]
                first = end
                for everything, writes in tails:
                    for j in (everything if a.is_write else writes):
                        if j >= first or epoch <= vcs[j].get(tid, 0):
                            break  # cannot improve, or ordered after a
                        if use_lockset and locks[a.seq] & locks[evs[j].seq]:
                            continue
                        first = j
                        break
                if first < end:
                    return a, evs[first]
        start = stop
    return None


def _run_ordered(
    evs: List[MemAccess],
    vcs: List[Dict[int, int]],
    start: int,
    stop: int,
    tails: List[Tuple[List[int], List[int]]],
) -> bool:
    """True when every access of the one-thread run ``evs[start:stop]``
    is ordered before every later conflicting access of the *tails*."""
    tid = evs[start].thread
    last_write = next(
        (i for i in range(stop - 1, start - 1, -1) if evs[i].is_write), None
    )
    last = stop - 1
    for everything, writes in tails:
        if last_write is not None and everything:
            if vcs[last_write][tid] > vcs[everything[0]].get(tid, 0):
                return False
        if last != last_write and writes:
            if vcs[last][tid] > vcs[writes[0]].get(tid, 0):
                return False
    return True
