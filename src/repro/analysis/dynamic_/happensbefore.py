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

**Epoch/view storage.**  The epoch test of events on different threads
reads only the own-thread component of one event and the *other*
thread's components of the other.  Between two synchronization events a
thread's clock changes in its own component alone, so every event is
stored as its epoch (an int) plus its thread's *view*: the clock
computed at the thread's last synchronization event, shared by
reference with every event up to the next one.  A memory access, MPI
call or any other non-synchronization event therefore costs a few dict
stores and allocates no clock.  Full clocks are built only at fork,
begin, join, barrier and lock events — exactly where edges are joined —
and on demand by :meth:`HBResult.clock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

from ...events import (
    BarrierEvent,
    EventLog,
    LockAcquire,
    LockRelease,
    ThreadBegin,
    ThreadFork,
    ThreadJoin,
)
from .vectorclock import VectorClock, VectorClockBuilder


#: the event kinds that carry synchronization edges or change locksets
_SYNC_EVENTS = frozenset({
    ThreadFork, ThreadBegin, ThreadJoin, BarrierEvent, LockAcquire, LockRelease,
})


@dataclass
class HBResult:
    """Epochs, views and lockset snapshots for one process's events."""

    proc: int
    #: event seq -> the event's own-thread clock component
    epoch: Dict[int, int] = field(default_factory=dict)
    #: event seq -> its thread's clock at the thread's last sync event
    #: (one shared object per sync event; see the module docstring)
    view: Dict[int, VectorClock] = field(default_factory=dict)
    #: event seq -> frozenset of lock names held by the thread at the event
    locks_held: Dict[int, frozenset] = field(default_factory=dict)
    threads: Set[int] = field(default_factory=set)
    #: event seq -> thread that executed it
    thread_of: Dict[int, int] = field(default_factory=dict)

    def clock(self, seq: int) -> VectorClock:
        """The full vector clock at event *seq*, built on demand."""
        components = dict(self.view[seq]._c)
        components[self.thread_of[seq]] = self.epoch[seq]
        return VectorClock._adopt(components)

    def ordered(self, seq_a: int, seq_b: int) -> bool:
        """True iff the two events are happens-before ordered (either way).

        O(1): the epoch test of the module docstring, equal to
        ``clock(a).leq(clock(b)) or clock(b).leq(clock(a))``.  Events of
        one thread are always ordered by program order.
        """
        tid_a, tid_b = self.thread_of[seq_a], self.thread_of[seq_b]
        if tid_a == tid_b:
            return True
        epoch, view = self.epoch, self.view
        # the component dicts directly: this is the race scans' hot path
        return (
            epoch[seq_a] <= view[seq_b]._c.get(tid_a, 0)
            or epoch[seq_b] <= view[seq_a]._c.get(tid_b, 0)
        )

    def concurrent(self, seq_a: int, seq_b: int) -> bool:
        return not self.ordered(seq_a, seq_b)

    def disjoint_locks(self, seq_a: int, seq_b: int) -> bool:
        return not (self.locks_held[seq_a] & self.locks_held[seq_b])


#: the view of a thread that has passed no sync event yet
_NO_EDGES = VectorClock()


def compute_happens_before(
    log: EventLog,
    proc: int,
    lock_edges: bool = True,
    ignored_locks=None,
) -> HBResult:
    """Replay the events of process *proc* into epochs and views.

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
    epoch = result.epoch
    view = result.view
    locks_held = result.locks_held
    thread_of = result.thread_of
    #: per thread: its clock at its last sync event, and its current own
    #: component (the thread's full clock is the view with that epoch)
    views: Dict[int, VectorClock] = {}
    epochs: Dict[int, int] = {}
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

    def join_thread(builder: VectorClockBuilder, tid: int) -> None:
        """Join *tid*'s current full clock into *builder*."""
        builder.join(views[tid])
        if epochs[tid] > builder.get(tid):
            builder._c[tid] = epochs[tid]

    for event in log.for_process(proc):
        tid = event.thread
        own = epochs.get(tid)
        if own is None:
            views[tid] = _NO_EDGES
            held[tid] = frozenset()
            result.threads.add(tid)
            own = 1
        seq = event.seq
        kind = type(event)

        if kind not in _SYNC_EVENTS:
            # memory accesses, MPI calls...: program order only, so
            # the clock moves in its own component alone
            own += 1
            epochs[tid] = own
            epoch[seq] = own
            view[seq] = views[tid]
            locks_held[seq] = held[tid]
            thread_of[seq] = tid
            continue

        # A sync event builds the thread's full clock, absorbs its
        # edges and advances program order in one mutating pass.
        builder = views[tid].mutable()
        builder._c[tid] = own
        if kind is ThreadFork:
            # workers start from the clock before the fork's own tick
            fork_vc[event.team] = builder.freeze()
            team_members.setdefault(event.team, set()).add(tid)
            team_members[event.team].update(event.children)
        elif kind is ThreadBegin:
            base = fork_vc.get(event.team)
            if base is not None:
                builder.join(base)
            team_members.setdefault(event.team, set()).add(tid)
        elif kind is ThreadJoin:
            for child in event.children:
                if child in views:
                    join_thread(builder, child)
        elif kind is BarrierEvent:
            key = (event.team, event.epoch)
            joined = barrier_vc.get(key)
            if joined is None:
                members = team_members.get(event.team, {tid})
                team = VectorClockBuilder()
                for member in members:
                    if member in views and member != tid:
                        join_thread(team, member)
                team.join(builder)
                joined = team.into_clock()
                barrier_vc[key] = joined
            builder.join(joined)
        elif kind is LockAcquire:
            if not _is_ignored(event.lock):
                if lock_edges and event.lock in lock_vc:
                    builder.join(lock_vc[event.lock])
                held[tid] = held[tid] | {event.lock}
        elif kind is LockRelease:
            if not _is_ignored(event.lock):
                held[tid] = held[tid] - {event.lock}

        current = builder.tick(tid).into_clock()
        views[tid] = current
        epochs[tid] = own = current._c[tid]
        epoch[seq] = own
        view[seq] = current
        locks_held[seq] = held[tid]
        thread_of[seq] = tid

        # Release edge is sourced *after* the event's own tick so that
        # the release itself happens-before the matching acquire.
        if kind is LockRelease and lock_edges and not _is_ignored(event.lock):
            lock_vc[event.lock] = current

    return result
