"""Job-wide MPI state: processes, mailboxes, collectives, the works.

:class:`MPIWorld` owns everything shared between simulated processes.
The interpreter's MPI builtins operate on it; no state here is aware of
the AST or the scheduler, keeping the MPI model independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import MPIUsageError
from .collectives import CollectiveEngine
from .communicator import CommRegistry, Communicator
from .constants import (
    MPI_THREAD_SINGLE,
    THREAD_LEVEL_NAMES,
)
from .ftmpi import FTState
from .message import Mailbox, Message, Payload
from .requests import Request, RequestTable


@dataclass
class ProcState:
    """Per-process MPI runtime state."""

    rank: int
    initialized: bool = False
    finalized: bool = False
    thread_level: int = MPI_THREAD_SINGLE
    #: process-local thread id considered "the MPI main thread"
    main_thread: int = 0
    requests: RequestTable = None  # type: ignore[assignment]
    #: count of MPI calls currently executing (begin seen, end not yet)
    calls_in_flight: int = 0
    #: per-communicator dup/split instance counters
    dup_counter: Dict[int, int] = field(default_factory=dict)
    split_counter: Dict[int, int] = field(default_factory=dict)
    shrink_counter: Dict[int, int] = field(default_factory=dict)
    #: rank died mid-run (injected MPI_Abort); its threads unwound
    crashed: bool = False

    def __post_init__(self) -> None:
        if self.requests is None:
            self.requests = RequestTable(self.rank)

    @property
    def thread_level_name(self) -> str:
        return THREAD_LEVEL_NAMES.get(self.thread_level, f"level {self.thread_level}")


class MPIWorld:
    """All communication state for one simulated MPI job."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise MPIUsageError(f"world size must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.comms = CommRegistry(nprocs)
        self.collectives = CollectiveEngine()
        self.ft = FTState(self.comms)
        self.procs: List[ProcState] = [ProcState(rank) for rank in range(nprocs)]
        self._mailboxes: Dict[tuple, Mailbox] = {}
        #: virtual time at which the (Marmot-style) central manager frees up
        self.manager_free_at: float = 0.0
        #: messages ever sent; also the id of the latest message, so
        #: message ids are per-world and start at 1
        self.messages_sent: int = 0

    # -- accessors -----------------------------------------------------------

    def proc(self, rank: int) -> ProcState:
        if not 0 <= rank < self.nprocs:
            raise MPIUsageError(f"rank {rank} out of range (world size {self.nprocs})")
        return self.procs[rank]

    def comm(self, cid: int) -> Communicator:
        return self.comms.get(cid)

    def mailbox(self, rank: int, comm: int) -> Mailbox:
        key = (rank, comm)
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes[key] = Mailbox(rank, comm)
        return box

    # -- point to point -----------------------------------------------------

    def post_send(
        self,
        src_world: int,
        dst_local: int,
        tag: int,
        comm_id: int,
        payload: Payload,
        sent_time: float,
        latency: float,
        per_elem: float,
        sync: bool = False,
        sender_thread: int = 0,
    ) -> Message:
        """Deliver a message envelope to the destination mailbox."""
        comm = self.comm(comm_id)
        dst_world = comm.world_rank(dst_local)
        src_local = comm.local_rank(src_world)
        self.messages_sent += 1
        msg = Message(
            src=src_local,
            dst=dst_local,
            tag=tag,
            comm=comm_id,
            payload=payload,
            sent_time=sent_time,
            avail_time=sent_time + latency + per_elem * len(payload),
            msg_id=self.messages_sent,
            sync=sync,
            sender_thread=sender_thread,
        )
        self.mailbox(dst_world, comm_id).deliver(msg)
        return msg

    def perturb_mailbox(self, dst_world: int, comm_id: int, rng) -> bool:
        """Shuffle the destination's unexpected-message queue (queue-reorder
        fault injection).  Returns True when the order changed."""
        return self.mailbox(dst_world, comm_id).reorder(rng)

    def match_recv(
        self, dst_world: int, comm_id: int, src: int, tag: int
    ) -> Optional[Message]:
        """Consume the first matching message for a receive, if present."""
        return self.mailbox(dst_world, comm_id).take(src, tag)

    def peek_recv(
        self, dst_world: int, comm_id: int, src: int, tag: int
    ) -> Optional[Message]:
        """Probe: first matching message without consuming it."""
        return self.mailbox(dst_world, comm_id).find(src, tag)

    # -- diagnostics ------------------------------------------------------------

    def undelivered_messages(self) -> List[Message]:
        out: List[Message] = []
        for box in self._mailboxes.values():
            out.extend(box.queue)
        return out

    def pending_requests(self, rank: int) -> List[Request]:
        return self.proc(rank).requests.pending()

    def all_finalized(self) -> bool:
        return all(p.finalized for p in self.procs if p.initialized)
