"""Process-level locks backing ``omp critical``, ``omp atomic`` and the
``omp_*_lock`` runtime routines.

Each simulated process owns one :class:`LockTable`.  Named criticals map
to ``critical:<name>`` locks (anonymous criticals share
``critical:<anonymous>``, as in OpenMP); user locks map to
``omplock:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import SimAbort

ANON_CRITICAL = "<anonymous>"
ATOMIC_LOCK = "atomic:<global>"


@dataclass
class SimLock:
    """A simple owner-tracked mutex with a release timestamp."""

    name: str
    owner: Optional[int] = None  # process-local thread id
    free_at: float = 0.0
    acquisitions: int = 0

    @property
    def held(self) -> bool:
        return self.owner is not None

    def acquire(self, tid: int, now: float) -> float:
        """Take the lock; returns the clock value after the acquire."""
        if self.owner is not None:
            raise SimAbort(
                f"lock {self.name!r} acquired by thread {tid} while held by {self.owner}"
            )
        self.owner = tid
        self.acquisitions += 1
        return max(now, self.free_at)

    def release(self, tid: int, now: float) -> None:
        if self.owner != tid:
            raise SimAbort(
                f"thread {tid} released lock {self.name!r} held by {self.owner}"
            )
        self.owner = None
        self.free_at = now


class LockTable:
    """All locks of one simulated process."""

    def __init__(self, proc: int) -> None:
        self.proc = proc
        self.locks: Dict[str, SimLock] = {}

    def get(self, name: str) -> SimLock:
        lock = self.locks.get(name)
        if lock is None:
            lock = self.locks[name] = SimLock(name)
        return lock

    def critical(self, name: str = "") -> SimLock:
        return self.get(f"critical:{name or ANON_CRITICAL}")

    def user_lock(self, name: str) -> SimLock:
        return self.get(f"omplock:{name}")

    def atomic(self) -> SimLock:
        return self.get(ATOMIC_LOCK)
