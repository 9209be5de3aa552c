"""Reference dynamic analyses: the whole-log scans the per-process
:class:`~repro.events.log.EventLog` index replaced, kept unchanged as
the oracle the index-backed analyses are compared against.

Each function filters the full log for its process and event types, as
before the index existed; the happens-before replay steps through every
event of its process.  ``EventLog.mpi_calls`` is inlined as the scan it
was.
"""

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dynamic_.happensbefore import HBResult, _NO_EDGES, _SYNC_EVENTS
from repro.analysis.dynamic_.hybrid import ConcurrencyReport, MPICallRecord
from repro.analysis.dynamic_.memraces import MemRace, _first_race
from repro.analysis.dynamic_.vectorclock import VectorClock, VectorClockBuilder
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
from repro.violations.matcher import ViolationReport
from repro.violations.spec import ALL_RULES, CollectiveTrace, HandlerSpan, ProcessView, Violation

# The functions below are the whole-log versions as they stood before
# the index; only their names changed (``reference_*``) and the log
# queries they called are inlined above.


def _processes(log):
    return sorted({e.proc for e in log})


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

    def join_thread(builder: VectorClockBuilder, tid: int) -> None:
        """Join *tid*'s current full clock into *builder*."""
        builder.join(views[tid])
        if epochs[tid] > builder.get(tid):
            builder._c[tid] = epochs[tid]

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
