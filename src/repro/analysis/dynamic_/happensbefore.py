"""Happens-before computation over one process's event stream.

Replays a process's events in emission order, maintaining per-thread
vector clocks.  Synchronization edges:

* **program order** within each thread;
* **fork** — team workers start with the forking master's clock;
* **join** — the master absorbs every worker's final clock;
* **barrier** — all team members' clocks join at each barrier epoch;
* **lock edges** (optional) — release of lock L happens-before the next
  acquire of L.  With lock edges on, this is the O'Callahan-Choi hybrid
  ordering the paper builds on; turning them off gives the "pure"
  happens-before used in the ablation study.

Emission order is a legal linearization: the interpreter only emits an
event when its thread actually executes, and barrier/join events are
emitted strictly after every prerequisite event of other threads (see
the scheduler's wake conditions), so single-pass replay is sound.

**Epoch ordering.**  Every replayed event ticks its own thread's
component, and a component only ever grows by its own thread's ticks;
other threads learn it solely by joining whole clocks.  So the clock of
event *a* on thread *t* is dominated by every clock whose *t* component
reaches *a*'s own epoch ``C_a[t]``, which makes ``C_a <= C_b`` equivalent
to ``C_a[t] <= C_b[t]`` — the FastTrack epoch test (Flanagan & Freund,
PLDI 2009).  :meth:`HBResult.ordered` applies it in both directions, so
it needs neither a full clock walk nor the replay position of either
event (loaded traces may carry seq values out of replay order).  The
equivalence also means an event replayed later is never ordered before
an earlier one, which the memory-race scan relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...events import (
    BarrierEvent,
    EventLog,
    LockAcquire,
    LockRelease,
    ThreadBegin,
    ThreadFork,
    ThreadJoin,
)
from ...events.event import Event
from .vectorclock import VectorClock, VectorClockBuilder


#: the event kinds that carry synchronization edges or change locksets
_SYNC_EVENTS = frozenset({
    ThreadFork, ThreadBegin, ThreadJoin, BarrierEvent, LockAcquire, LockRelease,
})


@dataclass
class HBResult:
    """Vector clocks and lockset snapshots for one process's events."""

    proc: int
    #: event seq -> vector clock at that event
    clocks: Dict[int, VectorClock] = field(default_factory=dict)
    #: event seq -> frozenset of lock names held by the thread at the event
    locks_held: Dict[int, frozenset] = field(default_factory=dict)
    threads: Set[int] = field(default_factory=set)
    #: event seq -> thread that executed it (the clock component the
    #: event ticked, so ``clocks[seq].get(thread_of[seq])`` is its epoch)
    thread_of: Dict[int, int] = field(default_factory=dict)

    def ordered(self, seq_a: int, seq_b: int) -> bool:
        """True iff the two events are happens-before ordered (either way).

        O(1): the epoch test of the module docstring, equal to
        ``clocks[a].leq(clocks[b]) or clocks[b].leq(clocks[a])``.
        """
        # the component dicts directly: this is the race scans' hot path
        clock_a, clock_b = self.clocks[seq_a]._c, self.clocks[seq_b]._c
        tid = self.thread_of[seq_a]
        if clock_a[tid] <= clock_b.get(tid, 0):
            return True
        tid = self.thread_of[seq_b]
        return clock_b[tid] <= clock_a.get(tid, 0)

    def concurrent(self, seq_a: int, seq_b: int) -> bool:
        return not self.ordered(seq_a, seq_b)

    def disjoint_locks(self, seq_a: int, seq_b: int) -> bool:
        return not (self.locks_held[seq_a] & self.locks_held[seq_b])


def compute_happens_before(
    log: EventLog,
    proc: int,
    lock_edges: bool = True,
    ignored_locks=None,
) -> HBResult:
    """Compute vector clocks for every event of process *proc*.

    ``ignored_locks``: a set of lock names, or a predicate
    ``name -> bool``, describing locks the analysis cannot see — used to
    model the Intel Thread Checker's failure to recognize named ``omp
    critical`` sections.  Ignored locks contribute neither
    happens-before edges nor lockset membership.
    """
    if ignored_locks is None:
        def _is_ignored(_name: str) -> bool:
            return False
    elif callable(ignored_locks):
        _is_ignored = ignored_locks
    else:
        _ignored_set = set(ignored_locks)

        def _is_ignored(name: str) -> bool:
            return name in _ignored_set
    result = HBResult(proc)
    clocks = result.clocks
    locks_held = result.locks_held
    thread_of = result.thread_of
    vc: Dict[int, VectorClock] = {}
    #: locks each thread holds; one frozenset shared by all the thread's
    #: events until its next acquire/release replaces it
    held: Dict[int, frozenset] = {}
    #: last released clock per lock
    lock_vc: Dict[str, VectorClock] = {}
    #: fork clock per team id
    fork_vc: Dict[int, VectorClock] = {}
    #: barrier join clock per (team, epoch)
    barrier_vc: Dict[Tuple[int, int], VectorClock] = {}
    #: team id -> member thread ids (learned from fork/begin events)
    team_members: Dict[int, Set[int]] = {}

    def start_thread(tid: int) -> VectorClock:
        vc[tid] = VectorClock({tid: 1})
        held[tid] = frozenset()
        result.threads.add(tid)
        return vc[tid]

    #: clocks this event must absorb before its program-order tick;
    #: reused across iterations so the common no-edge event stays
    #: allocation-free until the tick itself
    incoming: List[VectorClock] = []

    for event in log:
        if event.proc != proc:
            continue
        tid = event.thread
        current = vc.get(tid)
        if current is None:
            current = start_thread(tid)
        kind = type(event)

        if kind not in _SYNC_EVENTS:
            pass  # memory accesses, MPI calls...: program order only
        elif kind is ThreadFork:
            # Clocks are immutable, so the fork snapshot is the clock
            # itself — no defensive copy.
            fork_vc[event.team] = current
            team_members.setdefault(event.team, set()).add(tid)
            team_members[event.team].update(event.children)
        elif kind is ThreadBegin:
            base = fork_vc.get(event.team)
            if base is not None:
                incoming.append(base)
            team_members.setdefault(event.team, set()).add(tid)
        elif kind is ThreadJoin:
            for child in event.children:
                child_vc = vc.get(child)
                if child_vc is not None:
                    incoming.append(child_vc)
        elif kind is BarrierEvent:
            key = (event.team, event.epoch)
            joined = barrier_vc.get(key)
            if joined is None:
                members = team_members.get(event.team, {tid})
                builder = VectorClockBuilder()
                for member in members:
                    member_vc = vc.get(member)
                    if member_vc is not None:
                        builder.join(member_vc)
                builder.join(current)
                joined = builder.into_clock()
                barrier_vc[key] = joined
            incoming.append(joined)
        elif kind is LockAcquire:
            if not _is_ignored(event.lock):
                if lock_edges and event.lock in lock_vc:
                    incoming.append(lock_vc[event.lock])
                held[tid] = held[tid] | {event.lock}
        elif kind is LockRelease:
            if not _is_ignored(event.lock):
                held[tid] = held[tid] - {event.lock}

        # Absorb the synchronization edges and advance program order in
        # one mutating pass — a single dict allocation per event.
        if incoming:
            builder = current.mutable()
            for clock in incoming:
                builder.join(clock)
            current = builder.tick(tid).into_clock()
            incoming.clear()
        else:
            current = current.tick(tid)
        vc[tid] = current
        seq = event.seq
        clocks[seq] = current
        locks_held[seq] = held[tid]
        thread_of[seq] = tid

        # Release edge is sourced *after* the event's own tick so that
        # the release itself happens-before the matching acquire.
        if kind is LockRelease and lock_edges and not _is_ignored(event.lock):
            lock_vc[event.lock] = current

    return result
