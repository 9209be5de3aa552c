"""Communicators.

A communicator is a communication context: point-to-point matching and
collective synchronization are both scoped by communicator id.  The
standard fix for the Concurrent-Recv and Probe violations is "use a
distinct communicator (or tag) per thread", so the simulator supports
``mpi_comm_dup`` and ``mpi_comm_split`` in addition to
``MPI_COMM_WORLD``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List

from ..errors import MPIUsageError
from .constants import MPI_COMM_WORLD


@dataclass
class Communicator:
    """A communicator shared by a group of ranks.

    ``members`` maps a rank *in this communicator* to the world rank.
    For MPI_COMM_WORLD and duplicates this is the identity.
    """

    cid: int
    name: str
    members: List[int]

    @property
    def size(self) -> int:
        return len(self.members)

    def world_rank(self, rank: int) -> int:
        if not 0 <= rank < self.size:
            raise MPIUsageError(
                f"rank {rank} out of range for communicator {self.name} (size {self.size})"
            )
        return self.members[rank]

    def local_rank(self, world_rank: int) -> int:
        try:
            return self.members.index(world_rank)
        except ValueError:
            raise MPIUsageError(
                f"world rank {world_rank} is not a member of communicator {self.name}"
            ) from None


class CommRegistry:
    """All communicators of one simulated job."""

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        world = Communicator(MPI_COMM_WORLD, "MPI_COMM_WORLD", list(range(world_size)))
        self.comms: Dict[int, Communicator] = {MPI_COMM_WORLD: world}
        #: ids of derived communicators (0 is MPI_COMM_WORLD)
        self._cids = itertools.count(1)
        # Pending split/dup coordination: (parent_cid, instance) -> per-rank info.
        self._dup_slots: Dict[tuple, Dict[int, bool]] = {}
        self._dup_results: Dict[tuple, int] = {}
        self._split_slots: Dict[tuple, Dict[int, tuple]] = {}
        self._split_results: Dict[tuple, Dict[int, int]] = {}

    def get(self, cid: int) -> Communicator:
        comm = self.comms.get(cid)
        if comm is None:
            raise MPIUsageError(f"invalid communicator handle {cid}")
        return comm

    @property
    def world(self) -> Communicator:
        return self.comms[MPI_COMM_WORLD]

    def derive(self, name: str, members: List[int]) -> int:
        """Allocate and register a fresh communicator (dup/split/shrink
        results all funnel through the same id counter)."""
        new_cid = next(self._cids)
        self.comms[new_cid] = Communicator(new_cid, name, list(members))
        return new_cid

    # -- dup ------------------------------------------------------------------
    #
    # Comm creation is collective.  Each rank's n-th dup of communicator C
    # joins slot (C, n); the slot completes when every member has arrived,
    # producing one fresh communicator id shared by all members.

    def dup_arrive(self, cid: int, instance: int, world_rank: int) -> None:
        key = (cid, instance)
        slot = self._dup_slots.setdefault(key, {})
        slot[world_rank] = True

    def dup_complete(self, cid: int, instance: int) -> bool:
        key = (cid, instance)
        parent = self.get(cid)
        slot = self._dup_slots.get(key, {})
        return all(rank in slot for rank in parent.members)

    def dup_result(self, cid: int, instance: int) -> int:
        key = (cid, instance)
        if key not in self._dup_results:
            parent = self.get(cid)
            new_cid = next(self._cids)
            self.comms[new_cid] = Communicator(
                new_cid, f"dup{instance}({parent.name})", list(parent.members)
            )
            self._dup_results[key] = new_cid
        return self._dup_results[key]

    # -- split ------------------------------------------------------------------

    def split_arrive(
        self, cid: int, instance: int, world_rank: int, color: int, key: int
    ) -> None:
        skey = (cid, instance)
        slot = self._split_slots.setdefault(skey, {})
        slot[world_rank] = (color, key)

    def split_complete(self, cid: int, instance: int) -> bool:
        parent = self.get(cid)
        slot = self._split_slots.get((cid, instance), {})
        return all(rank in slot for rank in parent.members)

    def split_result(self, cid: int, instance: int, world_rank: int) -> int:
        skey = (cid, instance)
        if skey not in self._split_results:
            parent = self.get(cid)
            slot = self._split_slots[skey]
            by_color: Dict[int, List[tuple]] = {}
            for wrank, (color, key) in slot.items():
                by_color.setdefault(color, []).append((key, wrank))
            results: Dict[int, int] = {}
            for color, entries in sorted(by_color.items()):
                entries.sort()
                members = [wrank for _key, wrank in entries]
                new_cid = next(self._cids)
                self.comms[new_cid] = Communicator(
                    new_cid, f"split{instance}({parent.name}, color={color})", members
                )
                for wrank in members:
                    results[wrank] = new_cid
            self._split_results[skey] = results
        return self._split_results[skey][world_rank]
