"""Cross-process message-race detection (the DAMPI model).

The paper's related work surveys DAMPI, which uses "a scalable
algorithm based on Lamport Clocks (vector clocks focused on call order)
to capture possible non-deterministic matches": a *message race* exists
when a receive could have matched more than one in-flight send — the
classic source of nondeterministic MPI behaviour the paper's
introduction describes (Netzer et al.).

This module implements that analysis over the recorded event log:

1. take the **cross-process** happens-before order from
   :func:`~.happensbefore.compute_cross_process_happens_before` — the
   same replay, edge rules and epoch test HOME uses within a process,
   keyed by (process, thread), plus a send→receive edge for every
   matched message and all-to-all edges at each completed collective;
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
from typing import Dict, List, Optional, Tuple

from ...events import EventLog
from ...mpi.constants import MPI_ANY_SOURCE, MPI_ANY_TAG
from .happensbefore import (
    SEND_OPS,
    completes_receive,
    compute_cross_process_happens_before,
)


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

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable form (``check --format json --msg-races``)."""
        return {
            "rank": self.recv.proc,
            "loc": self.recv.loc,
            "src": self.recv.src,
            "tag": self.recv.tag,
            "alternatives": [
                {"rank": s.proc, "loc": s.loc} for s in self.alternatives
            ],
        }

    def __str__(self) -> str:
        alts = ", ".join(
            f"rank {s.proc}@{s.loc}" for s in self.alternatives
        )
        return (
            f"[MessageRace] recv at rank {self.recv.proc} ({self.recv.loc}, "
            f"src={self.recv.src}, tag={self.recv.tag}) could also have "
            f"matched send(s) from: {alts}"
        )


def _collect_p2p(log: EventLog) -> Tuple[List[SendRecord], List[RecvRecord]]:
    sends: List[SendRecord] = []
    recvs: List[RecvRecord] = []
    for event in log.mpi_calls(phase="end"):
        args = event.args
        msg_id = args.get("msg_id")
        if not msg_id:
            continue
        if event.op in SEND_OPS:
            sends.append(SendRecord(
                seq=event.seq, proc=event.proc, thread=event.thread,
                dst=args.get("peer", -1), tag=args.get("tag", -1),
                comm=args.get("comm", 0), msg_id=msg_id, loc=event.loc,
            ))
        elif completes_receive(event):
            # for mpi_sendrecv, the receive half; its send half was
            # posted with dest/sendtag
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
    hb = compute_cross_process_happens_before(log)
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
            if hb.happens_before(recv, send):
                continue
            # a message already consumed by a receive that happens-before
            # this one was gone in every timing consistent with the order
            consumer = consumer_of.get(send.msg_id)
            if consumer is not None and hb.happens_before(consumer, recv):
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
