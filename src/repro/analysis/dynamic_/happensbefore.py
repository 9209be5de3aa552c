"""Happens-before computation: one process's threads, or the whole job.

Replays the synchronization events in emission order, maintaining
per-thread vector clocks.  Synchronization edges:

* **program order** within each thread;
* **fork** — team workers start with the forking master's clock;
* **join** — the master absorbs every worker's final clock;
* **barrier** — all team members' clocks join at each barrier epoch;
* **lock edges** (optional) — release of lock L happens-before the next
  acquire of L.  With lock edges on, this is the O'Callahan-Choi hybrid
  ordering the paper builds on; turning them off gives the "pure"
  happens-before used in the ablation study.

:func:`compute_happens_before` replays one process, with threads keyed
by their thread id; HOME's detector, memory-race scan and triage use
it.  :func:`compute_cross_process_happens_before` replays every process
of the job, with threads keyed by ``(proc, thread)`` and locks and
teams by process, and adds two MPI edges (the DAMPI model of
:mod:`.msgrace` uses it):

* **message** — a receive's end (``mpi_recv``, ``mpi_irecv`` completed
  by ``mpi_wait``, ``mpi_sendrecv``) joins the clock at its message's
  send *begin*: the content is fixed when the send is posted;
* **collective** — the end of each process's *k*-th collective on a
  communicator joins the begin of every participant's *k*-th.

The per-process replay never takes MPI edges: a message between two
processes would order threads within one and change HOME's verdicts.

Emission order is a legal linearization: the interpreter only emits an
event when its thread actually executes, and barrier/join events are
emitted strictly after every prerequisite event of other threads (see
the scheduler's wake conditions); a send's begin precedes any receive
of its message, and every collective participant's begin precedes
every participant's end.  So single-pass replay is sound.  Only the
message → send-begin map is read before the replay: a synchronous
send's end, the first event naming its message, follows the receive's
end.

**Seq epochs.**  An event's own-thread clock component is its ``seq``.
Seqs strictly increase in emission order (the trace loader rejects a
trace where they do not), so a thread's component grows strictly along
the thread, which is all the epoch test below needs.  At a sync event
with seq ``S`` every event emitted before it has a seq below ``S``, so
``S - 1`` is the thread's clock component just before the event:

* a fork hands the workers the master's clock with component ``S - 1``
  (the fork itself is not ordered before the workers);
* a join sets each child's component to ``S - 1``, joined with the
  child's last view; a barrier meet does the same for every member;
* every sync event then ticks its thread's own component to ``S``.

**Epoch ordering.**  A component only ever reaches a thread's events
through that thread's own ticks or the ``S - 1`` values above, and
other threads learn it solely by joining whole clocks.  So the clock of
event *a* on thread *t* is dominated by every clock whose *t* component
reaches ``a.seq``, which makes ``C_a <= C_b`` equivalent to
``a.seq <= C_b[t]`` — the FastTrack epoch test (Flanagan & Freund,
PLDI 2009).  :meth:`HBResult.ordered` applies it in both directions and
:meth:`HBResult.happens_before` in one, so neither needs a full clock
walk.  The equivalence also means an event emitted later is never
ordered before an earlier one, which the memory-race scan relies on.

**Sync-only replay and timelines.**  Between two sync events a thread's
clock changes in its own component alone, and that component is the
event's seq, so a memory access or any other non-sync event needs no
replay work at all.  The replay visits only fork, begin, join, barrier
and lock events (plus every MPI call in the cross-process form), taken
from the log index's per-type lists and merged by seq.  It stores, per
thread, one *timeline*: the seqs of the thread's sync events, and the
*view* (the thread's clock after the event) and held-lock set after
each.  Every query about an event — its view, its lockset, its full
clock — is a binary search of its thread's timeline for the last sync
event at or before it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ...events import (
    BarrierEvent,
    EventLog,
    LockAcquire,
    LockRelease,
    MPICall,
    ThreadBegin,
    ThreadFork,
    ThreadJoin,
)
from ...events.event import COLLECTIVE_OPS
from .vectorclock import VectorClock


#: the event kinds that carry synchronization edges or change locksets
_SYNC_EVENTS = (
    ThreadFork, ThreadBegin, ThreadJoin, BarrierEvent, LockAcquire, LockRelease,
)

#: point-to-point operations whose end names the message they sent
SEND_OPS = frozenset({"mpi_send", "mpi_ssend", "mpi_isend"})
#: ...and the one they received (``mpi_sendrecv`` names its received one)
_RECV_OPS = frozenset({"mpi_recv", "mpi_irecv"})

_SEQ = attrgetter("seq")


def completes_receive(call: MPICall) -> bool:
    """True iff the end event *call* completes a receive."""
    op = call.op
    return op in _RECV_OPS or op == "mpi_sendrecv" or (
        op == "mpi_wait" and call.args.get("kind") == "recv"
    )


#: the view of a thread that has passed no sync event yet (views are
#: plain component dicts, never modified once stored)
_NO_EDGES: Dict[Hashable, int] = {}
_NO_LOCKS: frozenset = frozenset()


class Timeline:
    """One thread's sync events: their seqs in ascending order, and the
    thread's view (its clock's components after the event; a thread
    absent from a view is -1: none of its events is covered) and held
    locks after each.  Index 0 is a sentinel (seq -1, no edges, no
    locks) standing for the thread's start."""

    __slots__ = ("seqs", "views", "locks")

    def __init__(self) -> None:
        self.seqs: List[int] = [-1]
        self.views: List[Dict[Hashable, int]] = [_NO_EDGES]
        self.locks: List[frozenset] = [_NO_LOCKS]


#: the timeline of a thread that never synchronized
_UNSYNCED = Timeline()


@dataclass
class HBResult:
    """Per-thread sync timelines of the replayed events.

    Thread keys are thread ids for one process's replay and ``(proc,
    thread)`` pairs for the cross-process one, whose ``proc`` is None.
    Queries name an event by the event itself (any object with
    ``thread`` and ``seq``, plus ``proc`` in the cross-process form) or
    by a ``(thread key, seq)`` pair.
    """

    proc: Optional[int]
    #: thread key -> its timeline
    timelines: Dict[Hashable, Timeline] = field(default_factory=dict)

    def point(self, event) -> Tuple[Hashable, int]:
        """The ``(thread key, seq)`` pair naming *event*."""
        if type(event) is tuple:
            return event
        if self.proc is None:
            return (event.proc, event.thread), event.seq
        return event.thread, event.seq

    def timeline(self, key: Hashable) -> Timeline:
        return self.timelines.get(key, _UNSYNCED)

    def _at(self, event) -> Tuple[Hashable, int, Timeline, int]:
        """The event's thread key and seq, its thread's timeline, and the
        position there of the last sync event at or before it."""
        key, seq = self.point(event)
        timeline = self.timeline(key)
        return key, seq, timeline, bisect_right(timeline.seqs, seq) - 1

    def locks(self, event) -> frozenset:
        """The locks the event's thread holds at the event."""
        _key, _seq, timeline, at = self._at(event)
        return timeline.locks[at]

    def clock(self, event) -> VectorClock:
        """The full vector clock at *event*: its thread's view with the
        event's seq as the thread's own component."""
        key, seq, timeline, at = self._at(event)
        components = dict(timeline.views[at])
        components[key] = seq
        return VectorClock._adopt(components)

    def ordered(self, a, b) -> bool:
        """True iff the two events are happens-before ordered (either way).

        The epoch test of the module docstring, equal to
        ``clock(a).leq(clock(b)) or clock(b).leq(clock(a))``.  Events of
        one thread are always ordered by program order.
        """
        key_a, seq_a, timeline_a, at_a = self._at(a)
        key_b, seq_b, timeline_b, at_b = self._at(b)
        if key_a == key_b:
            return True
        return (
            seq_a <= timeline_b.views[at_b].get(key_a, -1)
            or seq_b <= timeline_a.views[at_a].get(key_b, -1)
        )

    def happens_before(self, a, b) -> bool:
        """True iff event *a* happens strictly before event *b*.

        The epoch test in one direction.  On one thread it is program
        order; across threads ``C_a <= C_b`` suffices, since two events
        of different threads never have equal clocks.
        """
        key_a, seq_a = self.point(a)
        key_b, seq_b, timeline_b, at_b = self._at(b)
        if key_a == key_b:
            return seq_a < seq_b
        return seq_a <= timeline_b.views[at_b].get(key_a, -1)

    def concurrent(self, a, b) -> bool:
        return not self.ordered(a, b)

    def disjoint_locks(self, a, b) -> bool:
        return not (self.locks(a) & self.locks(b))


def _join(clock: Dict[Hashable, int], other: Dict[Hashable, int]) -> None:
    """Pointwise maximum of two clocks' components, into *clock*."""
    for tid, val in other.items():
        if val > clock.get(tid, -1):
            clock[tid] = val


def _never(_name: str) -> bool:
    return False


def _by_seq(lists: Iterable[List]) -> List:
    """The events of several seq-sorted lists, merged by seq."""
    return sorted(chain.from_iterable(lists), key=_SEQ)


def compute_happens_before(
    log: EventLog,
    proc: int,
    lock_edges: bool = True,
    ignored_locks=None,
) -> HBResult:
    """Replay the sync events of process *proc* into thread timelines.

    ``ignored_locks``: a set of lock names, or a predicate
    ``name -> bool``, describing locks the analysis cannot see — used to
    model the Intel Thread Checker's failure to recognize named ``omp
    critical`` sections.  Ignored locks contribute neither
    happens-before edges nor lockset membership.
    """
    if ignored_locks is None:
        is_ignored = _never
    elif callable(ignored_locks):
        is_ignored = ignored_locks
    else:
        is_ignored = frozenset(ignored_locks).__contains__
    events = _by_seq(log.of_process_type(proc, kind) for kind in _SYNC_EVENTS)
    return _replay(events, HBResult(proc), lock_edges, is_ignored)


def compute_cross_process_happens_before(log: EventLog) -> HBResult:
    """Replay every process of the job, with message and collective edges.

    The replay merges every process's sync events and MPI calls by seq:
    the MPI edges need the job's total emission order.
    """
    procs = log.processes()
    calls = [log.of_process_type(proc, MPICall) for proc in procs]
    events = _by_seq(chain(calls, (
        log.of_process_type(proc, kind) for proc in procs for kind in _SYNC_EVENTS
    )))
    return _replay(events, HBResult(None), True, _never, _send_begins(calls))


def _send_begins(calls: Iterable[List[MPICall]]) -> Dict[int, int]:
    """Message id -> seq of the begin event of the send that posted it,
    from each process's MPI calls.

    Read before the replay: a synchronous send's end, the first event
    naming its message, follows its receive's end.
    """
    send_begins: Dict[int, int] = {}
    for process_calls in calls:
        begin_of_call: Dict[int, int] = {}
        for call in process_calls:
            if call.op not in SEND_OPS:
                continue
            if call.phase == "begin":
                begin_of_call[call.call_id] = call.seq
            else:
                msg_id = call.args.get("msg_id")
                begin = begin_of_call.get(call.call_id)
                if msg_id and begin is not None:
                    send_begins[msg_id] = begin
    return send_begins


#: the clock of a replayed event: its thread key, seq and view
_Source = Tuple[Hashable, int, Dict[Hashable, int]]


def _replay(
    events: Iterable,
    result: HBResult,
    lock_edges: bool,
    is_ignored,
    send_begins: Optional[Dict[int, int]] = None,
) -> HBResult:
    """The replay behind both entry points, over sync events in seq
    order: the cross-process one passes *send_begins*, which switches on
    ``(proc, thread)`` keys and the MPI edges."""
    cross = send_begins is not None
    timelines = result.timelines
    #: per thread: its view (the components of its clock at its last
    #: sync event) and its timeline's three ``append`` methods
    views: Dict[Hashable, Dict[Hashable, int]] = {}
    appends: Dict[Hashable, Tuple] = {}
    #: locks each thread holds; one frozenset per acquire/release
    held: Dict[Hashable, frozenset] = {}
    #: last released clock per (proc, lock)
    lock_vc: Dict[Tuple[int, str], Dict[Hashable, int]] = {}
    #: fork clock per (proc, team)
    fork_vc: Dict[Tuple[int, int], Dict[Hashable, int]] = {}
    #: barrier join clock per (proc, team, epoch)
    barrier_vc: Dict[Tuple[int, int, int], Dict[Hashable, int]] = {}
    #: (proc, team) -> member thread keys (learned from fork/begin events)
    team_members: Dict[Tuple[int, int], Set[Hashable]] = {}
    #: collectives begun and ended per (phase, proc, comm), the clocks
    #: of each (comm, k-th collective) slot's begins, and each replayed
    #: send begin's clock by seq
    coll_count: Dict[Tuple[str, int, int], int] = {}
    coll_begins: Dict[Tuple[int, int], List[_Source]] = {}
    sends: Dict[int, _Source] = {}

    def meet_thread(clock: Dict[Hashable, int], key: Hashable, upto: int) -> None:
        """Join thread *key*'s clock just before seq *upto* into *clock*."""
        _join(clock, views.get(key, _NO_EDGES))
        clock[key] = upto - 1

    def mpi_sources(call: MPICall, key: Hashable) -> List[_Source]:
        """The clocks *call* joins: for a receive's end its message's
        send begin, for a collective's end every participant's begin in
        its slot.  Records collective and send begins."""
        begin = call.phase == "begin"
        sources: List[_Source] = []
        if call.op in COLLECTIVE_OPS:
            # the k-th collective of every participant on a comm is one match
            comm = call.args.get("comm", 0)
            count_key = (call.phase, call.proc, comm)
            k = coll_count.get(count_key, 0)
            coll_count[count_key] = k + 1
            slot = coll_begins.setdefault((comm, k), [])
            if begin:
                slot.append((key, call.seq, views.get(key, _NO_EDGES)))
            else:
                sources = slot
        if begin:
            if call.op in SEND_OPS:
                sends[call.seq] = (key, call.seq, views.get(key, _NO_EDGES))
        elif completes_receive(call):
            send = sends.get(send_begins.get(call.args.get("msg_id")))
            if send is not None:
                sources = [*sources, send]
        return sources

    for event in events:
        kind = type(event)
        key = (event.proc, event.thread) if cross else event.thread
        if kind is MPICall and not (sources := mpi_sources(event, key)):
            continue  # an MPI call without edges: program order only
        seq = event.seq
        proc = event.proc
        # A sync event builds the thread's full clock as a dict, absorbs
        # its edges and ticks, in one mutating pass.
        components = dict(views.get(key, _NO_EDGES))
        released = False
        if kind is LockAcquire or kind is LockRelease:
            lock = event.lock
            if not is_ignored(lock):
                if kind is LockRelease:
                    held[key] = held.get(key, _NO_LOCKS) - {lock}
                    released = lock_edges
                else:
                    if lock_edges and (proc, lock) in lock_vc:
                        _join(components, lock_vc[proc, lock])
                    held[key] = held.get(key, _NO_LOCKS) | {lock}
        elif kind is ThreadFork:
            # workers start from the clock before the fork's own tick
            components[key] = seq - 1
            team = (proc, event.team)
            fork_vc[team] = dict(components)
            members = team_members.setdefault(team, set())
            members.add(key)
            members.update(
                [(proc, child) for child in event.children] if cross
                else event.children
            )
        elif kind is ThreadBegin:
            team = (proc, event.team)
            if team in fork_vc:
                _join(components, fork_vc[team])
            team_members.setdefault(team, set()).add(key)
        elif kind is ThreadJoin:
            for child in event.children:
                meet_thread(components, (proc, child) if cross else child, seq)
        elif kind is BarrierEvent:
            barrier = (proc, event.team, event.epoch)
            joined = barrier_vc.get(barrier)
            if joined is None:
                joined = {}
                for member in team_members.get((proc, event.team), ()):
                    meet_thread(joined, member, seq)
                meet_thread(joined, key, seq)
                barrier_vc[barrier] = joined
            _join(components, joined)
        else:  # an MPI call's edges
            for src_key, src_seq, src_view in sources:
                _join(components, src_view)
                if src_seq > components.get(src_key, -1):
                    components[src_key] = src_seq

        # the tick (no edge carries this thread's own component past seq)
        components[key] = seq
        views[key] = components
        append = appends.get(key)
        if append is None:
            timeline = timelines[key] = Timeline()
            append = appends[key] = (
                timeline.seqs.append, timeline.views.append, timeline.locks.append
            )
        append[0](seq)
        append[1](components)
        append[2](held.get(key, _NO_LOCKS))

        # Release edge is sourced *after* the event's own tick so that
        # the release itself happens-before the matching acquire.
        if released:
            lock_vc[proc, lock] = components

    return result
