"""Cross-process message-race detection (the DAMPI model).

The paper's related work surveys DAMPI, which uses "a scalable
algorithm based on Lamport Clocks (vector clocks focused on call order)
to capture possible non-deterministic matches": a *message race* exists
when a receive could have matched more than one in-flight send — the
classic source of nondeterministic MPI behaviour the paper's
introduction describes (Netzer et al.).

This module implements that analysis over the recorded event log:

1. build a **cross-process** happens-before order with one vector-clock
   component per (process, thread): program order per thread, team
   fork/join/barrier/lock edges within a process, a send→receive edge
   for every matched message, and all-to-all edges at each completed
   collective;
2. for every receive, find *alternative* sends — sends whose envelope
   the receive's posted (source, tag, comm) pattern also accepts,
   destined to the same rank, that are not happens-before-ordered after
   the receive and did not causally depend on it.

A receive with at least one alternative send is racy: a different
network timing could have delivered a different message.  Wildcard
(``MPI_ANY_SOURCE``/``MPI_ANY_TAG``) receives are the usual culprits,
but same-envelope traffic from one sender races too when reordering
across threads is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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
from ...mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from .vectorclock import VectorClock, join_all

#: vector-clock component key: (proc, thread) encoded as a single int
def _tid_key(proc: int, thread: int) -> int:
    return proc * 10_000 + thread


_P2P_SEND_OPS = frozenset({"mpi_send", "mpi_ssend", "mpi_isend"})
_P2P_RECV_OPS = frozenset({"mpi_recv", "mpi_irecv"})


@dataclass(frozen=True)
class SendRecord:
    """One completed send, as seen at its end event."""

    seq: int
    proc: int          # sender world rank
    thread: int
    dst: int           # destination (comm-local == world for COMM_WORLD)
    tag: int
    comm: int
    msg_id: int
    loc: str


@dataclass(frozen=True)
class RecvRecord:
    """One completed receive (or completed irecv via wait)."""

    seq: int
    proc: int
    thread: int
    src: int           # posted source pattern (may be MPI_ANY_SOURCE)
    tag: int           # posted tag pattern (may be MPI_ANY_TAG)
    comm: int
    msg_id: int        # message actually consumed
    loc: str


@dataclass
class MessageRace:
    """A receive that could have consumed a different message."""

    recv: RecvRecord
    matched_send: Optional[SendRecord]
    alternatives: List[SendRecord] = field(default_factory=list)

    @property
    def is_wildcard(self) -> bool:
        return self.recv.src == MPI_ANY_SOURCE or self.recv.tag == MPI_ANY_TAG

    def __str__(self) -> str:
        alts = ", ".join(
            f"rank {s.proc}@{s.loc}" for s in self.alternatives
        )
        return (
            f"[MessageRace] recv at rank {self.recv.proc} ({self.recv.loc}, "
            f"src={self.recv.src}, tag={self.recv.tag}) could also have "
            f"matched send(s) from: {alts}"
        )


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
        self.clocks: Dict[int, VectorClock] = {}       # event seq -> VC
        self._build(log)

    def _index_log(self, log: EventLog):
        """Pass 1: message-id -> send-begin seq; collective slot groups."""
        send_begin_of_call: Dict[Tuple[int, int], int] = {}
        msg_send_begin: Dict[int, int] = {}
        coll_group_of_end: Dict[int, Tuple[int, int]] = {}
        coll_begins: Dict[Tuple[int, int], List[int]] = {}
        begin_count: Dict[Tuple[int, int], int] = {}
        end_count: Dict[Tuple[int, int], int] = {}
        from ...events.event import COLLECTIVE_OPS

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
        # NOTE: a sendrecv's end logs only the msg_id it *received*, so the
        # send half contributes no begin mapping here; causality via the
        # remote side's receive edge still holds (its begin precedes the
        # remote recv end in emission order).
        return msg_send_begin, coll_group_of_end, coll_begins

    def _build(self, log: EventLog) -> None:
        msg_send_begin, coll_group_of_end, coll_begins = self._index_log(log)
        vc: Dict[int, VectorClock] = {}
        fork_vc: Dict[Tuple[int, int], VectorClock] = {}
        barrier_vc: Dict[Tuple[int, int, int], VectorClock] = {}
        team_members: Dict[Tuple[int, int], Set[int]] = {}
        lock_vc: Dict[Tuple[int, str], VectorClock] = {}

        def clock_of(proc: int, thread: int) -> VectorClock:
            key = _tid_key(proc, thread)
            if key not in vc:
                vc[key] = VectorClock({key: 1})
            return vc[key]

        for event in log:
            key = _tid_key(event.proc, event.thread)
            current = clock_of(event.proc, event.thread)

            if isinstance(event, ThreadFork):
                fork_vc[(event.proc, event.team)] = current.copy()
                members = team_members.setdefault((event.proc, event.team), set())
                members.add(key)
                members.update(_tid_key(event.proc, c) for c in event.children)
            elif isinstance(event, ThreadBegin):
                base = fork_vc.get((event.proc, event.team))
                if base is not None:
                    current = current.join(base)
            elif isinstance(event, ThreadJoin):
                for child in event.children:
                    child_vc = vc.get(_tid_key(event.proc, child))
                    if child_vc is not None:
                        current = current.join(child_vc)
            elif isinstance(event, BarrierEvent):
                bkey = (event.proc, event.team, event.epoch)
                joined = barrier_vc.get(bkey)
                if joined is None:
                    members = team_members.get((event.proc, event.team), {key})
                    joined = join_all(
                        vc[m] for m in members if m in vc
                    ).join(current)
                    barrier_vc[bkey] = joined
                current = current.join(joined)
            elif isinstance(event, LockAcquire):
                held = lock_vc.get((event.proc, event.lock))
                if held is not None:
                    current = current.join(held)
            elif isinstance(event, MPICall) and event.phase == "end":
                msg_id = event.args.get("msg_id")
                op = event.op
                if msg_id and (op in _P2P_RECV_OPS or op == "mpi_sendrecv"
                               or (op == "mpi_wait"
                                   and event.args.get("kind") == "recv")):
                    begin_seq = msg_send_begin.get(msg_id)
                    if begin_seq is not None and begin_seq in self.clocks:
                        current = current.join(self.clocks[begin_seq])
                group = coll_group_of_end.get(event.seq)
                if group is not None:
                    for begin_seq in coll_begins.get(group, ()):
                        clock = self.clocks.get(begin_seq)
                        if clock is not None:
                            current = current.join(clock)

            current = current.tick(key)
            vc[key] = current
            self.clocks[event.seq] = current

            if isinstance(event, LockRelease):
                lock_vc[(event.proc, event.lock)] = current.copy()

    def ordered(self, seq_a: int, seq_b: int) -> bool:
        a, b = self.clocks[seq_a], self.clocks[seq_b]
        return a.leq(b) or b.leq(a)

    def happens_before(self, seq_a: int, seq_b: int) -> bool:
        return self.clocks[seq_a].happens_before(self.clocks[seq_b])


def _collect_p2p(log: EventLog) -> Tuple[List[SendRecord], List[RecvRecord]]:
    sends: List[SendRecord] = []
    recvs: List[RecvRecord] = []
    for event in log.mpi_calls(phase="end"):
        args = event.args
        msg_id = args.get("msg_id")
        if not msg_id:
            continue
        if event.op in _P2P_SEND_OPS:
            sends.append(SendRecord(
                seq=event.seq, proc=event.proc, thread=event.thread,
                dst=args.get("peer", -1), tag=args.get("tag", -1),
                comm=args.get("comm", 0), msg_id=msg_id, loc=event.loc,
            ))
        elif event.op in _P2P_RECV_OPS or (
            event.op == "mpi_wait" and args.get("kind") == "recv"
        ):
            recvs.append(RecvRecord(
                seq=event.seq, proc=event.proc, thread=event.thread,
                src=args.get("peer", MPI_ANY_SOURCE),
                tag=args.get("tag", MPI_ANY_TAG),
                comm=args.get("comm", 0), msg_id=msg_id, loc=event.loc,
            ))
        elif event.op == "mpi_sendrecv":
            # the receive half; the send half was posted with dest/sendtag
            recvs.append(RecvRecord(
                seq=event.seq, proc=event.proc, thread=event.thread,
                src=args.get("peer", MPI_ANY_SOURCE),
                tag=args.get("tag", MPI_ANY_TAG),
                comm=args.get("comm", 0), msg_id=msg_id, loc=event.loc,
            ))
    return sends, recvs


def _envelope_accepts(recv: RecvRecord, send: SendRecord) -> bool:
    if send.comm != recv.comm or send.dst != recv.proc:
        return False
    if recv.src != MPI_ANY_SOURCE and send.proc != recv.src:
        return False
    if recv.tag != MPI_ANY_TAG and send.tag != recv.tag:
        return False
    return True


def find_message_races(log: EventLog) -> List[MessageRace]:
    """DAMPI-style nondeterministic-match detection over a whole run.

    For each receive, an *alternative* send is one whose message the
    receive's posted envelope accepts, other than the one it consumed,
    such that neither (a) the receive happened-before the send (the send
    causally followed the receive — it could not have been matched), nor
    (b) the send's message was consumed by a receive that happened
    strictly before this one on the same thread-order (FIFO pairs from
    the same sender are not racy among themselves).
    """
    hb = CrossProcessHB(log)
    sends, recvs = _collect_p2p(log)
    send_by_msg: Dict[int, SendRecord] = {s.msg_id: s for s in sends}
    consumer_of: Dict[int, RecvRecord] = {r.msg_id: r for r in recvs}

    races: List[MessageRace] = []
    for recv in recvs:
        matched = send_by_msg.get(recv.msg_id)
        alternatives: List[SendRecord] = []
        for send in sends:
            if send.msg_id == recv.msg_id:
                continue
            if not _envelope_accepts(recv, send):
                continue
            # a send that causally depends on this receive couldn't race it
            if hb.happens_before(recv.seq, send.seq):
                continue
            # a message already consumed by a receive that happens-before
            # this one was gone in every timing consistent with the order
            consumer = consumer_of.get(send.msg_id)
            if consumer is not None and hb.happens_before(consumer.seq, recv.seq):
                continue
            # same-sender same-tag messages are FIFO: only the racy case
            # of distinct (sender, tag) streams is a true nondeterministic
            # match, matching DAMPI's focus on wildcard matches.
            if matched is not None and (send.proc, send.tag) == (
                matched.proc, matched.tag
            ):
                continue
            alternatives.append(send)
        if alternatives:
            races.append(MessageRace(recv, matched, alternatives))
    return races


def wildcard_races(log: EventLog) -> List[MessageRace]:
    """Only the races on wildcard receives (DAMPI's headline output)."""
    return [race for race in find_message_races(log) if race.is_wildcard]
