"""Nonblocking-communication request objects.

``mpi_isend``/``mpi_irecv`` return integer request handles; the handles
index into a *process-wide* table — shared between the process's
threads, which is exactly why two threads concurrently waiting/testing
the same request is a violation class (isConcurrentRequestViolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..errors import MPIUsageError


@dataclass
class Request:
    """One nonblocking operation in flight.

    Handles are allocated by the owning process's :class:`RequestTable`
    (MPI request handles are process-scoped), which keeps the values a
    program observes deterministic run-to-run.
    """

    kind: str                      # 'send' or 'recv'
    comm: int
    src: int = -1                  # envelope source (recv) / own rank (send)
    tag: int = -1
    dst: int = -1                  # destination (send only)
    buf: Any = None                # ArrayValue destination for recv
    count: int = 0
    done: bool = False
    complete_time: float = 0.0
    #: message id satisfied by (recv) or produced (send); 0 if pending.
    msg_id: int = 0
    handle: int = 0                # assigned by RequestTable.allocate()
    #: thread that created the request (diagnostics)
    owner_thread: int = 0
    #: set once a wait/test retired the request
    freed: bool = False


class RequestTable:
    """Per-process table of live requests (shared across threads)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.requests: Dict[int, Request] = {}
        self._next_handle = 1

    def allocate(self, req: Request) -> int:
        """Assign the next process-local handle to *req*."""
        req.handle = self._next_handle
        self._next_handle += 1
        return req.handle

    def register(self, req: Request) -> int:
        if req.handle == 0:
            self.allocate(req)
        self.requests[req.handle] = req
        return req.handle

    def get(self, handle: int) -> Request:
        req = self.requests.get(handle)
        if req is None:
            raise MPIUsageError(
                f"rank {self.rank}: invalid or already-freed request handle {handle}"
            )
        return req

    def free(self, handle: int) -> None:
        req = self.requests.pop(handle, None)
        if req is not None:
            req.freed = True

    def pending(self) -> list:
        return [r for r in self.requests.values() if not r.done]

    def __len__(self) -> int:
        return len(self.requests)
