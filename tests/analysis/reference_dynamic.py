"""Reference dynamic analyses: the whole-log scans the per-process
:class:`~repro.events.log.EventLog` index replaced, kept as the oracle
the index-backed analyses are compared against, and the DAMPI model's
own cross-process replay (``CrossProcessHB``), kept as the oracle for
the shared replay's cross-process form.

Each function filters the full log for its process and event types, as
before the index existed; the happens-before replay steps through every
event of its process.  ``EventLog.mpi_calls`` is inlined as the scan it
was.  Clock arithmetic is done here on plain component dicts, so the
product keeps no clock operations for its references.
"""

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dynamic_.happensbefore import HBResult, _NO_EDGES, _SYNC_EVENTS
from repro.analysis.dynamic_.hybrid import ConcurrencyReport, MPICallRecord
from repro.analysis.dynamic_.memraces import MemRace, _first_race
from repro.analysis.dynamic_.vectorclock import VectorClock
from repro.events import (
    BarrierEvent,
    CollectiveArrive,
    ErrorHandlerEvent,
    EventLog,
    LockAcquire,
    LockRelease,
    MemAccess,
    MonitoredWrite,
    MPICall,
    ThreadBegin,
    ThreadEnd,
    ThreadFork,
    ThreadJoin,
)
from repro.events.event import COLLECTIVE_OPS
from repro.violations.matcher import ViolationReport
from repro.violations.spec import ALL_RULES, CollectiveTrace, HandlerSpan, ProcessView, Violation

# The functions below are the whole-log versions as they stood before
# the index; only their names changed (``reference_*``), the log
# queries they called are inlined above, and the replay's clock
# arithmetic works on component dicts (``_join_into``).


def _processes(log):
    return sorted({e.proc for e in log})


def _join_into(clock: Dict, other: Dict) -> None:
    """Pointwise maximum of two clocks' component dicts, into *clock*."""
    for key, val in other.items():
        if val > clock.get(key, 0):
            clock[key] = val


def _mpi_calls(log, proc, phase="begin"):
    return [
        e for e in log
        if type(e) is MPICall and e.phase == phase and e.proc == proc
    ]


def reference_happens_before(
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

    def join_thread(builder: Dict[int, int], tid: int) -> None:
        """Join *tid*'s current full clock into *builder*."""
        _join_into(builder, views[tid]._c)
        if epochs[tid] > builder.get(tid, 0):
            builder[tid] = epochs[tid]

    for event in log:
        if event.proc != proc:
            continue
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
        builder = dict(views[tid]._c)
        builder[tid] = own
        if kind is ThreadFork:
            # workers start from the clock before the fork's own tick
            fork_vc[event.team] = VectorClock(builder)
            team_members.setdefault(event.team, set()).add(tid)
            team_members[event.team].update(event.children)
        elif kind is ThreadBegin:
            base = fork_vc.get(event.team)
            if base is not None:
                _join_into(builder, base._c)
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
                team: Dict[int, int] = {}
                for member in members:
                    if member in views and member != tid:
                        join_thread(team, member)
                _join_into(team, builder)
                joined = VectorClock(team)
                barrier_vc[key] = joined
            _join_into(builder, joined._c)
        elif kind is LockAcquire:
            if not _is_ignored(event.lock):
                if lock_edges and event.lock in lock_vc:
                    _join_into(builder, lock_vc[event.lock]._c)
                held[tid] = held[tid] | {event.lock}
        elif kind is LockRelease:
            if not _is_ignored(event.lock):
                held[tid] = held[tid] - {event.lock}

        builder[tid] = builder.get(tid, 0) + 1
        current = VectorClock(builder)
        views[tid] = current
        epochs[tid] = own = builder[tid]
        epoch[seq] = own
        view[seq] = current
        locks_held[seq] = held[tid]
        thread_of[seq] = tid

        # Release edge is sourced *after* the event's own tick so that
        # the release itself happens-before the matching acquire.
        if kind is LockRelease and lock_edges and not _is_ignored(event.lock):
            lock_vc[event.lock] = current

    return result


def reference_memory_races(
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
    accesses: Dict[tuple, List[MemAccess]] = defaultdict(list)
    for event in log:
        if type(event) is MemAccess and event.proc == proc:
            accesses[event.cell, event.index].append(event)
    if not accesses:
        return []

    if hb is None:
        hb = reference_happens_before(
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


def reference_call_records(log: EventLog, proc: int) -> Dict[int, MPICallRecord]:
    """Group monitored writes (and begin events) into call instances."""
    records: Dict[int, MPICallRecord] = {}
    for event in log:
        if event.proc != proc:
            continue
        if type(event) is MonitoredWrite:
            rec = records.get(event.call_id)
            if rec is None:
                rec = records[event.call_id] = MPICallRecord(
                    call_id=event.call_id,
                    proc=proc,
                    thread=event.thread,
                    op=event.mpi_op,
                    callsite=event.callsite,
                    loc=event.loc,
                    time=event.time,
                )
            rec.writes[event.kind] = event.seq
            rec.values[event.kind] = event.value
        elif type(event) is MPICall and event.phase == "begin":
            rec = records.get(event.call_id)
            if rec is not None:
                rec.is_main_thread = event.is_main_thread
    return records


def extract_thread_level(log: EventLog, proc: int) -> Optional[int]:
    """Provided thread level from the process's init call event."""
    for event in _mpi_calls(log, proc):
        if event.op in ("mpi_init", "mpi_init_thread"):
            provided = event.args.get("provided")
            if isinstance(provided, int):
                return provided
    return None


def extract_handler_spans(log: EventLog, proc: int) -> List[HandlerSpan]:
    """Pair ErrorHandlerEvent enter/exit brackets into spans, per thread.

    A handler that never exits (its rank aborted inside it) yields an
    open span reaching to the end of the trace.
    """
    open_stacks: Dict[int, List[ErrorHandlerEvent]] = {}
    spans: List[HandlerSpan] = []
    for event in log:
        if type(event) is not ErrorHandlerEvent or event.proc != proc:
            continue
        if event.phase == "enter":
            open_stacks.setdefault(event.thread, []).append(event)
        else:
            stack = open_stacks.get(event.thread)
            if not stack:
                continue
            enter = stack.pop()
            spans.append(HandlerSpan(
                thread=enter.thread, comm=enter.comm, handler=enter.handler,
                t0=enter.time, t1=event.time, seq0=enter.seq, seq1=event.seq,
            ))
    for stack in open_stacks.values():
        for enter in stack:
            spans.append(HandlerSpan(
                thread=enter.thread, comm=enter.comm, handler=enter.handler,
                t0=enter.time, t1=float("inf"),
                seq0=enter.seq, seq1=2 ** 63,
            ))
    spans.sort(key=lambda s: s.seq0)
    return spans


def extract_collective_traces(log: EventLog, proc: int) -> List[CollectiveTrace]:
    """Rebuild each team's per-member collective arrival sequences.

    Membership comes from the team's ThreadFork (master tid + children,
    in team-index order).  A worker is *closed* when its ThreadEnd was
    recorded; the master when the team's ThreadJoin was (the master
    only joins after finishing its own region body).  Members still
    blocked or aborted when the trace ends stay open, so the matching
    rule only compares their recorded prefix.  Teams that recorded no
    arrivals (monitoring off, or size-1 teams) yield no trace.
    """
    members_of: Dict[int, Tuple[int, ...]] = {}
    arrivals: Dict[int, Dict[int, List[Tuple[int, Tuple[str, str, str, int]]]]] = {}
    closed_tids: Dict[int, set] = {}
    for event in log:
        if event.proc != proc:
            continue
        etype = type(event)
        if etype is CollectiveArrive:
            arrivals.setdefault(event.team, {}).setdefault(
                event.thread, []
            ).append((event.index, (event.kind, event.loc, event.op, event.callsite)))
        elif etype is ThreadFork:
            members_of[event.team] = (event.thread,) + tuple(event.children)
        elif etype is ThreadEnd:
            closed_tids.setdefault(event.team, set()).add(event.thread)
        elif etype is ThreadJoin:
            closed_tids.setdefault(event.team, set()).add(event.thread)
    traces: List[CollectiveTrace] = []
    for team in sorted(arrivals):
        members = members_of.get(team)
        if members is None:
            continue
        by_thread = arrivals[team]
        team_closed = closed_tids.get(team, set())
        sequences = tuple(
            tuple(entry for _idx, entry in sorted(by_thread.get(tid, [])))
            for tid in members
        )
        traces.append(CollectiveTrace(
            team=team,
            members=members,
            sequences=sequences,
            closed=tuple(tid in team_closed for tid in members),
        ))
    return traces


def build_view(log: EventLog, proc: int, report: ConcurrencyReport) -> ProcessView:
    """Assemble the per-process rule input."""
    calls = _mpi_calls(log, proc)
    had_parallel = any(
        type(e) is ThreadFork and e.proc == proc and len(e.children) > 0
        for e in log
    )
    return ProcessView(
        proc=proc,
        thread_level=extract_thread_level(log, proc),
        main_thread=0,
        had_parallel=had_parallel,
        report=report,
        calls=calls,
        handler_spans=extract_handler_spans(log, proc),
        collective_traces=extract_collective_traces(log, proc),
    )


def reference_match_violations(
    log: EventLog,
    reports: Dict[int, ConcurrencyReport],
    rules: Sequence[Callable[[ProcessView], List[Violation]]] = ALL_RULES,
) -> ViolationReport:
    """Run every rule over every process and deduplicate findings."""
    final = ViolationReport()
    for proc in _processes(log):
        report = reports.get(proc) or ConcurrencyReport(proc)
        view = build_view(log, proc, report)
        for rule in rules:
            for violation in rule(view):
                final.add(violation)
    return final


# -- the DAMPI model's own replay ---------------------------------------------
#
# ``CrossProcessHB`` as it stood in ``msgrace.py`` before the message-race
# model queried the shared epoch/view replay.  Its clocks are plain
# ``{thread key: component}`` dicts (a component absent is 0), so it needs
# no clock operations from the product.  ``_tid_key`` is the original
# single-int encoding: it merges thread 10000 of process 0 with thread 0
# of process 1, which ``test_msgrace.TestThreadKeys`` pins down.


def _tid_key(proc: int, thread: int) -> int:
    return proc * 10_000 + thread


def _tick(clock: Dict[int, int], key: int) -> Dict[int, int]:
    out = dict(clock)
    out[key] = out.get(key, 0) + 1
    return out


def _join(clock: Dict[int, int], other: Dict[int, int]) -> Dict[int, int]:
    out = dict(clock)
    _join_into(out, other)
    return out


def _leq(clock: Dict[int, int], other: Dict[int, int]) -> bool:
    return all(val <= other.get(key, 0) for key, val in clock.items())


_P2P_SEND_OPS = frozenset({"mpi_send", "mpi_ssend", "mpi_isend"})
_P2P_RECV_OPS = frozenset({"mpi_recv", "mpi_irecv"})


class CrossProcessHB:
    """Vector clocks over every (process, thread) in the job.

    Built in two passes: the first pairs message ids with their send
    *begin* events and groups collective calls into match slots (the
    k-th collective a process completes on a communicator); the second
    replays the log computing clocks.  Emission order guarantees that a
    send's begin precedes any receive of its message and that every
    collective participant's begin precedes every participant's end, so
    all joins in pass two reference already-computed clocks.
    """

    def __init__(self, log: EventLog) -> None:
        self.clocks: Dict[int, Dict[int, int]] = {}    # event seq -> VC
        self._build(log)

    def _index_log(self, log: EventLog):
        """Pass 1: message-id -> send-begin seq; collective slot groups."""
        send_begin_of_call: Dict[Tuple[int, int], int] = {}
        msg_send_begin: Dict[int, int] = {}
        coll_group_of_end: Dict[int, Tuple[int, int]] = {}
        coll_begins: Dict[Tuple[int, int], List[int]] = {}
        begin_count: Dict[Tuple[int, int], int] = {}
        end_count: Dict[Tuple[int, int], int] = {}

        for event in log.of_type(MPICall):
            if event.op in _P2P_SEND_OPS or event.op == "mpi_sendrecv":
                if event.phase == "begin":
                    send_begin_of_call[(event.proc, event.call_id)] = event.seq
                else:
                    msg_id = event.args.get("msg_id")
                    begin_seq = send_begin_of_call.get((event.proc, event.call_id))
                    if msg_id and begin_seq is not None and event.op != "mpi_sendrecv":
                        msg_send_begin[msg_id] = begin_seq
            if event.op in COLLECTIVE_OPS:
                comm = event.args.get("comm", 0)
                if event.phase == "begin":
                    idx = begin_count.get((event.proc, comm), 0)
                    begin_count[(event.proc, comm)] = idx + 1
                    coll_begins.setdefault((comm, idx), []).append(event.seq)
                else:
                    idx = end_count.get((event.proc, comm), 0)
                    end_count[(event.proc, comm)] = idx + 1
                    coll_group_of_end[event.seq] = (comm, idx)
        return msg_send_begin, coll_group_of_end, coll_begins

    def _build(self, log: EventLog) -> None:
        msg_send_begin, coll_group_of_end, coll_begins = self._index_log(log)
        vc: Dict[int, Dict[int, int]] = {}
        fork_vc: Dict[Tuple[int, int], Dict[int, int]] = {}
        barrier_vc: Dict[Tuple[int, int, int], Dict[int, int]] = {}
        team_members: Dict[Tuple[int, int], Set[int]] = {}
        lock_vc: Dict[Tuple[int, str], Dict[int, int]] = {}

        def clock_of(proc: int, thread: int) -> Dict[int, int]:
            key = _tid_key(proc, thread)
            if key not in vc:
                vc[key] = {key: 1}
            return vc[key]

        for event in log:
            key = _tid_key(event.proc, event.thread)
            current = clock_of(event.proc, event.thread)

            if isinstance(event, ThreadFork):
                fork_vc[(event.proc, event.team)] = current
                members = team_members.setdefault((event.proc, event.team), set())
                members.add(key)
                members.update(_tid_key(event.proc, c) for c in event.children)
            elif isinstance(event, ThreadBegin):
                base = fork_vc.get((event.proc, event.team))
                if base is not None:
                    current = _join(current, base)
            elif isinstance(event, ThreadJoin):
                for child in event.children:
                    child_vc = vc.get(_tid_key(event.proc, child))
                    if child_vc is not None:
                        current = _join(current, child_vc)
            elif isinstance(event, BarrierEvent):
                bkey = (event.proc, event.team, event.epoch)
                joined = barrier_vc.get(bkey)
                if joined is None:
                    members = team_members.get((event.proc, event.team), {key})
                    joined = {}
                    for m in members:
                        if m in vc:
                            joined = _join(joined, vc[m])
                    joined = _join(joined, current)
                    barrier_vc[bkey] = joined
                current = _join(current, joined)
            elif isinstance(event, LockAcquire):
                held = lock_vc.get((event.proc, event.lock))
                if held is not None:
                    current = _join(current, held)
            elif isinstance(event, MPICall) and event.phase == "end":
                msg_id = event.args.get("msg_id")
                op = event.op
                if msg_id and (op in _P2P_RECV_OPS or op == "mpi_sendrecv"
                               or (op == "mpi_wait"
                                   and event.args.get("kind") == "recv")):
                    begin_seq = msg_send_begin.get(msg_id)
                    if begin_seq is not None and begin_seq in self.clocks:
                        current = _join(current, self.clocks[begin_seq])
                group = coll_group_of_end.get(event.seq)
                if group is not None:
                    for begin_seq in coll_begins.get(group, ()):
                        clock = self.clocks.get(begin_seq)
                        if clock is not None:
                            current = _join(current, clock)

            current = _tick(current, key)
            vc[key] = current
            self.clocks[event.seq] = current

            if isinstance(event, LockRelease):
                lock_vc[(event.proc, event.lock)] = current

    def ordered(self, seq_a: int, seq_b: int) -> bool:
        a, b = self.clocks[seq_a], self.clocks[seq_b]
        return _leq(a, b) or _leq(b, a)

    def happens_before(self, seq_a: int, seq_b: int) -> bool:
        a, b = self.clocks[seq_a], self.clocks[seq_b]
        return _leq(a, b) and not _leq(b, a)
