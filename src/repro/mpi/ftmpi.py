"""ULFM-style fault tolerance state for the simulated MPI job.

:class:`FTState` hangs off :class:`~repro.mpi.world.MPIWorld` and owns
everything the error-handling layer needs:

* per-communicator **error handlers** — ``MPI_ERRORS_ARE_FATAL``
  (default: a surfaced error aborts the rank exactly like the legacy
  behavior), ``MPI_ERRORS_RETURN`` (the builtin returns a negative
  error class), or the name of a mini-language function called as
  ``handler(comm, code)``;
* the set of **failed ranks** (rank-crash faults mark their victim
  here) and per-rank failure acknowledgement (``comm_failure_ack``);
* **revocation** state (``comm_revoke``) — once revoked, every pending
  and future operation on the communicator surfaces
  ``MPI_ERR_REVOKED``;
* per-communicator **retry policies** (timeout + bounded retry with
  deterministic exponential backoff) and the timeout *waiters* the
  scheduler escapes when the whole job stalls;
* **shrink** coordination — ``comm_shrink`` is collective among the
  *surviving* members of the parent communicator and produces a fresh
  communicator excluding every failed rank.

Nothing here touches the scheduler or interpreter directly; the MPI
builtins drive it, and the scheduler only sees the opaque
:meth:`FTState.escape_earliest` stall hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Union

from .communicator import Communicator
from .errors import MPI_ERRORS_ARE_FATAL, MPI_ERRORS_RETURN


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded-retry configuration for one communicator."""

    timeout: float
    max_retries: int = 3
    backoff_base: float = 120.0
    backoff_factor: float = 2.0


class TimeoutWaiter:
    """One blocked operation that has armed a timeout.

    The scheduler cannot know which blocked task should time out first;
    waiters record their virtual-time deadline and an arm order so the
    stall hook can escape exactly one — the earliest — deterministically.
    """

    __slots__ = ("deadline", "order", "escaped")

    def __init__(self, deadline: float, order: int) -> None:
        self.deadline = deadline
        self.order = order
        self.escaped = False


class FTState:
    """Fault-tolerance bookkeeping shared by all ranks of one job."""

    def __init__(self, comms) -> None:
        self.comms = comms
        #: cid -> handler (int constant or mini-language function name)
        self.handlers: Dict[int, Union[int, str]] = {}
        #: world ranks that have crashed
        self.failed: Set[int] = set()
        #: revoked communicator ids
        self.revoked: Set[int] = set()
        #: cid -> retry policy
        self.policies: Dict[int, RetryPolicy] = {}
        #: world rank -> failed ranks it has acknowledged
        self.acked: Dict[int, Set[int]] = {}
        self._waiters: List[TimeoutWaiter] = []
        self._arm_order = 0
        # Shrink coordination, modeled on CommRegistry dup slots:
        # (parent_cid, instance) -> arrived world ranks / result cid.
        self._shrink_slots: Dict[tuple, Set[int]] = {}
        self._shrink_results: Dict[tuple, int] = {}

    # -- error handlers ------------------------------------------------------

    def handler(self, cid: int) -> Union[int, str]:
        return self.handlers.get(cid, MPI_ERRORS_ARE_FATAL)

    def set_handler(self, cid: int, handler: Union[int, str]) -> None:
        self.handlers[cid] = handler

    def active(self, cid: int) -> bool:
        """Whether fault-tolerant semantics apply on this communicator.

        With the default FATAL handler, no revocation and no retry
        policy the FT layer is inert and every operation behaves
        byte-identically to the pre-FT simulator.
        """
        return (
            self.handler(cid) != MPI_ERRORS_ARE_FATAL
            or cid in self.revoked
            or cid in self.policies
        )

    # -- failure notification -----------------------------------------------

    def mark_failed(self, world_rank: int) -> None:
        self.failed.add(world_rank)

    def ack_failures(self, world_rank: int) -> int:
        """``comm_failure_ack``: acknowledge all currently known failures;
        returns how many failed ranks are now acknowledged."""
        acked = self.acked.setdefault(world_rank, set())
        acked.update(self.failed)
        return len(acked)

    def peer_failed(self, comm: Communicator, src_local: int) -> bool:
        """Has the peer a receive-ish op waits on failed?

        ``src_local < 0`` is a wildcard (``MPI_ANY_SOURCE``): the peer
        set is every *other* member, and the op can only fail over to
        ``MPI_ERR_PROC_FAILED`` once no live peer could ever send.
        """
        if src_local >= 0:
            return comm.world_rank(src_local) in self.failed
        return all(w in self.failed for w in comm.members) or (
            len([w for w in comm.members if w not in self.failed]) <= 1
        )

    # -- revocation ----------------------------------------------------------

    def revoke(self, cid: int) -> None:
        self.revoked.add(cid)

    def is_revoked(self, cid: int) -> bool:
        return cid in self.revoked

    # -- retry policies ------------------------------------------------------

    def policy(self, cid: int) -> Optional[RetryPolicy]:
        return self.policies.get(cid)

    def set_policy(self, cid: int, policy: RetryPolicy) -> None:
        self.policies[cid] = policy

    # -- timeout waiters -----------------------------------------------------

    def arm(self, deadline: float) -> TimeoutWaiter:
        waiter = TimeoutWaiter(deadline, self._arm_order)
        self._arm_order += 1
        self._waiters.append(waiter)
        return waiter

    def disarm(self, waiter: TimeoutWaiter) -> None:
        try:
            self._waiters.remove(waiter)
        except ValueError:  # pragma: no cover - double disarm is harmless
            pass

    def escape_earliest(self) -> bool:
        """Scheduler stall hook: when no task is runnable, time out the
        armed waiter with the earliest ``(deadline, order)``.

        Deterministic by construction — virtual deadlines and arm order
        depend only on the simulated schedule, never on wall time.
        Returns True when a waiter was escaped (the scheduler then
        re-evaluates runnability instead of declaring deadlock).
        """
        if not self._waiters:
            return False
        waiter = min(self._waiters, key=lambda w: (w.deadline, w.order))
        self._waiters.remove(waiter)
        waiter.escaped = True
        return True

    # -- shrink ---------------------------------------------------------------
    #
    # Collective among *survivors*: each rank's n-th shrink of C joins
    # slot (C, n); the slot completes when every live member arrived.

    def shrink_arrive(self, cid: int, instance: int, world_rank: int) -> None:
        self._shrink_slots.setdefault((cid, instance), set()).add(world_rank)

    def shrink_complete(self, cid: int, instance: int) -> bool:
        parent = self.comms.get(cid)
        slot = self._shrink_slots.get((cid, instance), set())
        return all(w in slot or w in self.failed for w in parent.members)

    def shrink_result(self, cid: int, instance: int) -> int:
        key = (cid, instance)
        if key not in self._shrink_results:
            parent = self.comms.get(cid)
            members = [w for w in parent.members if w not in self.failed]
            self._shrink_results[key] = self.comms.derive(
                f"shrink{instance}({parent.name})", members
            )
        return self._shrink_results[key]
