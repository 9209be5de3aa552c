"""Collective operation engine.

MPI matches collectives by *call order per process per communicator*:
the k-th collective a process issues on communicator C pairs with every
other member's k-th collective on C.  The engine models exactly that —
which is also what makes the Collective-Call violation observable: when
two threads of one process race on the same communicator, the order in
which they grab slot indices is nondeterministic, so the process's
contributions can pair with the wrong remote calls (and the op check
can fail across ranks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import MPIUsageError, PayloadShapeError
from .constants import MPI_MAX, MPI_MIN, MPI_PROD, MPI_SUM
from .communicator import Communicator


def _add(a: float, b: float) -> float:
    return a if a != a else a + b


def _mul(a: float, b: float) -> float:
    return a if a != a else a * b


def _max(a: float, b: float) -> float:
    if a != a:
        return a
    return a if a > b else b


def _min(a: float, b: float) -> float:
    if a != a:
        return a
    return a if a < b else b


_NAN = float("nan")

#: float64 element combiners.  MAX and MIN propagate the first NaN, and
#: a tie (``-0.0`` against ``0.0``) keeps the later rank's operand, as
#: the vectorised ``maximum``/``minimum`` loops of an ndarray reduction do.
_ELEMENTWISE = {MPI_SUM: _add, MPI_PROD: _mul, MPI_MAX: _max, MPI_MIN: _min}


def _shape(value: Any) -> Optional[int]:
    """An array payload's length; None for a scalar."""
    return len(value) if isinstance(value, tuple) else None


def _describe(shape: Optional[int]) -> str:
    return "a scalar" if shape is None else f"an array of {shape} element(s)"


def apply_reduce(op: int, values: List[Any]) -> Any:
    """Combine *values* (one contribution per rank, in rank order) with
    the given reduction op.

    Array payloads (tuples of floats) combine element by element, rank
    by rank, which is how ``np.stack(values)`` reduced along axis 0
    combines them; contributions of different shapes raise
    :class:`~repro.errors.PayloadShapeError`.
    """
    if not values:
        raise MPIUsageError("reduction over empty contribution set")
    first = values[0]
    shape = _shape(first)
    for rank, value in enumerate(values):
        if _shape(value) != shape:
            raise PayloadShapeError(
                f"reduction contributions differ in shape: rank 0 sent "
                f"{_describe(shape)}, rank {rank} sent {_describe(_shape(value))}"
            )
    if shape is not None:
        combine = _ELEMENTWISE.get(op)
        if combine is None:
            raise MPIUsageError(f"unknown reduction op handle {op}")
        if op == MPI_SUM:
            out, rest = (0.0,) * shape, values
        elif shape == 1 and len(values) > 1 and op != MPI_PROD and first[0] != first[0]:
            # a one-element MAX/MIN over several ranks reduces in one
            # vector, which yields the plain NaN for a NaN on rank 0
            return (_NAN,)
        else:
            out, rest = first, values[1:]
        for value in rest:
            out = tuple(map(combine, out, value))
        return out
    if op == MPI_SUM:
        return sum(values)
    if op == MPI_MAX:
        return max(values)
    if op == MPI_MIN:
        return min(values)
    if op == MPI_PROD:
        out = first
        for v in values[1:]:
            out = out * v
        return out
    raise MPIUsageError(f"unknown reduction op handle {op}")


@dataclass
class CollectiveSlot:
    """State of one in-progress collective instance on a communicator."""

    comm_id: int
    index: int
    op_name: Optional[str] = None
    root: Optional[int] = None
    reduce_op: Optional[int] = None
    #: world rank -> contributed value (payload snapshot or scalar)
    contributions: Dict[int, Any] = field(default_factory=dict)
    #: world rank -> arrival virtual time
    arrivals: Dict[int, float] = field(default_factory=dict)
    #: ranks that have completed (picked up results)
    completed: set = field(default_factory=set)
    mismatch: Optional[str] = None

    def arrived(self, rank: int) -> bool:
        return rank in self.arrivals


class CollectiveEngine:
    """Tracks collective slots for every communicator."""

    def __init__(self) -> None:
        # (comm_id, slot_index) -> CollectiveSlot
        self.slots: Dict[tuple, CollectiveSlot] = {}
        # (comm_id, world_rank) -> next slot index for that process
        self.counters: Dict[tuple, int] = {}
        #: Recorded op-mismatch diagnostics (comm, index, detail).
        self.mismatches: List[str] = []

    def next_index(self, comm_id: int, world_rank: int) -> int:
        """Allocate this process's next collective slot index on *comm*.

        NOTE: this counter is per *process*, not per thread — two threads
        of the same process calling collectives concurrently will race
        for indices, faithfully modelling the violation.
        """
        key = (comm_id, world_rank)
        idx = self.counters.get(key, 0)
        self.counters[key] = idx + 1
        return idx

    def arrive(
        self,
        comm: Communicator,
        index: int,
        world_rank: int,
        op_name: str,
        time: float,
        value: Any = None,
        root: Optional[int] = None,
        reduce_op: Optional[int] = None,
    ) -> CollectiveSlot:
        slot = self.slots.setdefault(
            (comm.cid, index), CollectiveSlot(comm.cid, index)
        )
        if slot.op_name is None:
            slot.op_name = op_name
            slot.root = root
            slot.reduce_op = reduce_op
        elif slot.op_name != op_name or slot.root != root:
            detail = (
                f"collective mismatch on {comm.name} slot {index}: "
                f"rank {world_rank} called {op_name}(root={root}) but slot is "
                f"{slot.op_name}(root={slot.root})"
            )
            slot.mismatch = detail
            self.mismatches.append(detail)
        if world_rank in slot.arrivals:
            raise MPIUsageError(
                f"rank {world_rank} arrived twice at collective slot {index} "
                f"on {comm.name} — concurrent collective calls from threads"
            )
        slot.arrivals[world_rank] = time
        slot.contributions[world_rank] = value
        return slot

    def complete(self, comm: Communicator, index: int) -> bool:
        slot = self.slots.get((comm.cid, index))
        if slot is None:
            return False
        return all(rank in slot.arrivals for rank in comm.members)

    def completion_time(self, comm: Communicator, index: int) -> float:
        slot = self.slots[(comm.cid, index)]
        return max(slot.arrivals[rank] for rank in comm.members)

    def slot(self, comm_id: int, index: int) -> CollectiveSlot:
        return self.slots[(comm_id, index)]
