"""Happens-before computation: one process's threads, or the whole job.

Replays events in emission order, maintaining per-thread vector clocks.
Synchronization edges:

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
of the job in one pass over the log's total order, with threads keyed
by ``(proc, thread)`` and locks and teams by process, and adds two MPI
edges (the DAMPI model of :mod:`.msgrace` uses it):

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
message → send-begin map is read before the replay, from the log's
index: a synchronous send's end, the first event naming its message,
follows the receive's end.

**Epoch ordering.**  Every replayed event ticks its own thread's
component, and a component only ever grows by its own thread's ticks;
other threads learn it solely by joining whole clocks.  So the clock of
event *a* on thread *t* is dominated by every clock whose *t* component
reaches *a*'s own epoch ``C_a[t]``, which makes ``C_a <= C_b`` equivalent
to ``C_a[t] <= C_b[t]`` — the FastTrack epoch test (Flanagan & Freund,
PLDI 2009).  :meth:`HBResult.ordered` applies it in both directions and
:meth:`HBResult.happens_before` in one, so neither needs a full clock
walk nor the replay position of either event (loaded traces may carry
seq values out of replay order).  The equivalence also means an event
replayed later is never ordered before an earlier one, which the
memory-race scan relies on.

**Epoch/view storage.**  The epoch test of events on different threads
reads only the own-thread component of one event and the *other*
thread's components of the other.  Between two synchronization events a
thread's clock changes in its own component alone, so every event is
stored as its epoch (an int) plus its thread's *view*: the clock
computed at the thread's last synchronization event, shared by
reference with every event up to the next one.  A memory access or any
other non-synchronization event therefore costs a few dict stores and
allocates no clock.  Full clocks are built only at fork, begin, join,
barrier and lock events (and, in the cross-process replay, at the ends
of receives and collectives) — exactly where edges are joined — and on
demand by :meth:`HBResult.clock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
_SYNC_EVENTS = frozenset({
    ThreadFork, ThreadBegin, ThreadJoin, BarrierEvent, LockAcquire, LockRelease,
})
#: ...and in the cross-process replay, MPI calls (message and collective
#: edges; a call with neither takes the program-order path)
_JOB_SYNC_EVENTS = _SYNC_EVENTS | {MPICall}

#: point-to-point operations whose end names the message they sent
SEND_OPS = frozenset({"mpi_send", "mpi_ssend", "mpi_isend"})
#: ...and the one they received (``mpi_sendrecv`` names its received one)
_RECV_OPS = frozenset({"mpi_recv", "mpi_irecv"})


def completes_receive(call: MPICall) -> bool:
    """True iff the end event *call* completes a receive."""
    op = call.op
    return op in _RECV_OPS or op == "mpi_sendrecv" or (
        op == "mpi_wait" and call.args.get("kind") == "recv"
    )


@dataclass
class HBResult:
    """Epochs, views and lockset snapshots for the replayed events.

    Thread keys are thread ids for one process's replay and ``(proc,
    thread)`` pairs for the cross-process one, whose ``proc`` is None.
    """

    proc: Optional[int]
    #: event seq -> the event's own-thread clock component
    epoch: Dict[int, int] = field(default_factory=dict)
    #: event seq -> its thread's clock at the thread's last sync event
    #: (one shared object per sync event; see the module docstring)
    view: Dict[int, VectorClock] = field(default_factory=dict)
    #: event seq -> frozenset of lock names held by the thread at the event
    locks_held: Dict[int, frozenset] = field(default_factory=dict)
    threads: Set[Hashable] = field(default_factory=set)
    #: event seq -> key of the thread that executed it
    thread_of: Dict[int, Hashable] = field(default_factory=dict)

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

    def happens_before(self, seq_a: int, seq_b: int) -> bool:
        """True iff event *seq_a* happens strictly before event *seq_b*.

        O(1), the epoch test in one direction.  On one thread it is
        program order; across threads ``C_a <= C_b`` suffices, since two
        events of different threads never have equal clocks.
        """
        tid_a = self.thread_of[seq_a]
        if tid_a == self.thread_of[seq_b]:
            return self.epoch[seq_a] < self.epoch[seq_b]
        return self.epoch[seq_a] <= self.view[seq_b]._c.get(tid_a, 0)

    def concurrent(self, seq_a: int, seq_b: int) -> bool:
        return not self.ordered(seq_a, seq_b)

    def disjoint_locks(self, seq_a: int, seq_b: int) -> bool:
        return not (self.locks_held[seq_a] & self.locks_held[seq_b])


#: the view of a thread that has passed no sync event yet
_NO_EDGES = VectorClock()


def _join(clock: Dict[Hashable, int], other: Dict[Hashable, int]) -> None:
    """Pointwise maximum of two clocks' components, into *clock*."""
    for tid, val in other.items():
        if val > clock.get(tid, 0):
            clock[tid] = val


def _never(_name: str) -> bool:
    return False


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
        is_ignored = _never
    elif callable(ignored_locks):
        is_ignored = ignored_locks
    else:
        is_ignored = frozenset(ignored_locks).__contains__
    return _replay(log.for_process(proc), HBResult(proc), lock_edges, is_ignored)


def compute_cross_process_happens_before(log: EventLog) -> HBResult:
    """Replay every process of the job, with message and collective edges.

    The replay steps through the whole log: the MPI edges need the job's
    total emission order, which no per-process list keeps.
    """
    send_begins = _send_begins(log)
    return _replay(log, HBResult(None), True, _never, send_begins)


def _send_begins(log: EventLog) -> Dict[int, int]:
    """Message id -> seq of the begin event of the send that posted it.

    Read from the index before the replay: a synchronous send's end, the
    first event naming its message, follows its receive's end.
    """
    send_begins: Dict[int, int] = {}
    for proc in log.processes():
        begin_of_call: Dict[int, int] = {}
        for call in log.of_process_type(proc, MPICall):
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


def _replay(
    events: Iterable,
    result: HBResult,
    lock_edges: bool,
    is_ignored,
    send_begins: Optional[Dict[int, int]] = None,
) -> HBResult:
    """The replay behind both entry points: the cross-process one passes
    *send_begins*, which switches on ``(proc, thread)`` keys and the MPI
    edges."""
    cross = send_begins is not None
    sync_events = _JOB_SYNC_EVENTS if cross else _SYNC_EVENTS
    epoch = result.epoch
    view = result.view
    locks_held = result.locks_held
    thread_of = result.thread_of
    #: per thread: its clock at its last sync event, and its current own
    #: component (the thread's full clock is the view with that epoch)
    views: Dict[Hashable, VectorClock] = {}
    epochs: Dict[Hashable, int] = {}
    #: locks each thread holds; one frozenset shared by all the thread's
    #: events until its next acquire/release replaces it
    held: Dict[Hashable, frozenset] = {}
    #: last released clock per (proc, lock)
    lock_vc: Dict[Tuple[int, str], VectorClock] = {}
    #: fork clock per (proc, team)
    fork_vc: Dict[Tuple[int, int], VectorClock] = {}
    #: barrier join clock per (proc, team, epoch)
    barrier_vc: Dict[Tuple[int, int, int], VectorClock] = {}
    #: (proc, team) -> member thread keys (learned from fork/begin events)
    team_members: Dict[Tuple[int, int], Set[Hashable]] = {}
    #: collectives begun and ended per (phase, proc, comm), and the
    #: begin seqs of each (comm, k-th collective) slot
    coll_count: Dict[Tuple[str, int, int], int] = {}
    coll_begins: Dict[Tuple[int, int], List[int]] = {}

    def join_thread(clock: Dict[Hashable, int], tid: Hashable) -> None:
        """Join *tid*'s current full clock into *clock*."""
        _join(clock, views[tid]._c)
        if epochs[tid] > clock.get(tid, 0):
            clock[tid] = epochs[tid]

    def join_event(clock: Dict[Hashable, int], seq: int) -> None:
        """Join the full clock at the replayed event *seq* into *clock*."""
        _join(clock, view[seq]._c)
        tid = thread_of[seq]
        if epoch[seq] > clock.get(tid, 0):
            clock[tid] = epoch[seq]

    def mpi_sources(call: MPICall) -> List[int]:
        """The replayed events whose clocks *call* joins: for a receive's
        end its message's send begin, for a collective's end every
        participant's begin in its slot.  Records collective begins."""
        begin = call.phase == "begin"
        sources: List[int] = []
        if call.op in COLLECTIVE_OPS:
            # the k-th collective of every participant on a comm is one match
            comm = call.args.get("comm", 0)
            key = (call.phase, call.proc, comm)
            k = coll_count.get(key, 0)
            coll_count[key] = k + 1
            slot = coll_begins.setdefault((comm, k), [])
            if begin:
                slot.append(call.seq)
            else:
                sources = slot
        if not begin and completes_receive(call):
            send = send_begins.get(call.args.get("msg_id"))
            if send is not None and send in epoch:
                sources = [*sources, send]
        return sources

    for event in events:
        tid = (event.proc, event.thread) if cross else event.thread
        own = epochs.get(tid)
        if own is None:
            views[tid] = _NO_EDGES
            held[tid] = frozenset()
            result.threads.add(tid)
            own = 1
        seq = event.seq
        kind = type(event)

        if kind not in sync_events or (
            kind is MPICall and not (sources := mpi_sources(event))
        ):
            # memory accesses, MPI calls without edges...: program
            # order only, so the clock moves in its own component alone
            own += 1
            epochs[tid] = own
            epoch[seq] = own
            view[seq] = views[tid]
            locks_held[seq] = held[tid]
            thread_of[seq] = tid
            continue

        # A sync event builds the thread's full clock as a dict, absorbs
        # its edges and advances program order in one mutating pass.
        components = dict(views[tid]._c)
        components[tid] = own
        proc = event.proc
        if kind is ThreadFork:
            # workers start from the clock before the fork's own tick
            team = (proc, event.team)
            fork_vc[team] = VectorClock(components)
            members = team_members.setdefault(team, set())
            members.add(tid)
            members.update(
                [(proc, child) for child in event.children] if cross
                else event.children
            )
        elif kind is ThreadBegin:
            team = (proc, event.team)
            base = fork_vc.get(team)
            if base is not None:
                _join(components, base._c)
            team_members.setdefault(team, set()).add(tid)
        elif kind is ThreadJoin:
            for child in event.children:
                if cross:
                    child = (proc, child)
                if child in views:
                    join_thread(components, child)
        elif kind is BarrierEvent:
            key = (proc, event.team, event.epoch)
            joined = barrier_vc.get(key)
            if joined is None:
                members = team_members.get((proc, event.team), {tid})
                meet: Dict[Hashable, int] = {}
                for member in members:
                    if member in views and member != tid:
                        join_thread(meet, member)
                _join(meet, components)
                joined = VectorClock._adopt(meet)
                barrier_vc[key] = joined
            _join(components, joined._c)
        elif kind is LockAcquire:
            if not is_ignored(event.lock):
                if lock_edges and (proc, event.lock) in lock_vc:
                    _join(components, lock_vc[proc, event.lock]._c)
                held[tid] = held[tid] | {event.lock}
        elif kind is LockRelease:
            if not is_ignored(event.lock):
                held[tid] = held[tid] - {event.lock}
        elif kind is MPICall:
            for source in sources:
                join_event(components, source)

        # the tick (no edge carries this thread's own component past own)
        components[tid] = own = own + 1
        current = VectorClock._adopt(components)
        views[tid] = current
        epochs[tid] = own
        epoch[seq] = own
        view[seq] = current
        locks_held[seq] = held[tid]
        thread_of[seq] = tid

        # Release edge is sourced *after* the event's own tick so that
        # the release itself happens-before the matching acquire.
        if kind is LockRelease and lock_edges and not is_ignored(event.lock):
            lock_vc[proc, event.lock] = current

    return result
