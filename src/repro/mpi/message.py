"""Point-to-point message matching.

One :class:`Mailbox` exists per (destination rank, communicator).  The
matching rules implement the MPI standard's semantics:

* a receive with ``(src, tag)`` matches the *earliest* queued message
  whose source and tag agree, where ``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``
  match anything;
* non-overtaking: two messages from the same sender with the same tag
  on the same communicator are matched in send order (guaranteed by the
  earliest-first scan);
* the rank in an envelope identifies a *process*, never a thread — the
  root cause of the Concurrent-Recv violation class the paper checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .constants import MPI_ANY_SOURCE, MPI_ANY_TAG


@dataclass
class Message:
    """An in-flight point-to-point message."""

    src: int
    dst: int
    tag: int
    comm: int
    payload: np.ndarray
    sent_time: float
    avail_time: float
    #: unique within one :class:`~repro.mpi.world.MPIWorld`, from 1 (0
    #: means "no message" to the trace analyses)
    msg_id: int
    sync: bool = False           # sender blocks until consumed (rendezvous)
    consumed: bool = False
    consumed_time: float = 0.0
    sender_thread: int = 0

    @property
    def count(self) -> int:
        return len(self.payload)


def envelope_matches(msg: Message, src: int, tag: int) -> bool:
    """Does *msg* match a receive/probe envelope (src, tag)?"""
    if src != MPI_ANY_SOURCE and msg.src != src:
        return False
    if tag != MPI_ANY_TAG and msg.tag != tag:
        return False
    return True


class Mailbox:
    """Ordered queue of unconsumed messages for one (rank, comm)."""

    def __init__(self, rank: int, comm: int) -> None:
        self.rank = rank
        self.comm = comm
        self.queue: List[Message] = []
        #: Total messages ever delivered here (diagnostics).
        self.delivered = 0

    def deliver(self, msg: Message) -> None:
        self.queue.append(msg)
        self.delivered += 1

    def find(self, src: int, tag: int) -> Optional[Message]:
        """First matching message without consuming it (probe semantics)."""
        for msg in self.queue:
            if envelope_matches(msg, src, tag):
                return msg
        return None

    def take(self, src: int, tag: int) -> Optional[Message]:
        """Consume and return the first matching message, if any."""
        for i, msg in enumerate(self.queue):
            if envelope_matches(msg, src, tag):
                del self.queue[i]
                msg.consumed = True
                return msg
        return None

    def reorder(self, rng) -> bool:
        """Permute the pending queue (fault injection only — this
        deliberately breaks the non-overtaking guarantee to model an
        adversarial unexpected-message queue).  Returns True when the
        order actually changed."""
        if len(self.queue) < 2:
            return False
        before = [m.msg_id for m in self.queue]
        rng.shuffle(self.queue)
        return [m.msg_id for m in self.queue] != before

    def __len__(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mailbox rank={self.rank} comm={self.comm} pending={len(self.queue)}>"
