"""Wait-for graph diagnostics for deadlocks.

The scheduler already *detects* deadlock (no runnable task); this module
turns the blocked-task snapshot into a structured explanation — which
rank/thread waits for what — in the spirit of the graph-based deadlock
detectors (Umpire's dependency graphs) the paper surveys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..runtime.scheduler import BlockedInfo


class DeadlockDiagnosis:
    """Structured view of a deadlock built from scheduler block reasons."""

    def __init__(self, blocked: List["BlockedInfo"]) -> None:
        self.blocked = list(blocked)
        #: wait-for graph: waiter -> resource edges, and each node's kind
        self.edges: List[Tuple[str, str]] = []
        self.kinds: Dict[str, str] = {}
        for info in self.blocked:
            waiter = f"rank{info.proc}.t{info.thread}"
            self.kinds[waiter] = "thread"
            self.kinds[info.reason] = "resource"
            self.edges.append((waiter, info.reason))

    @property
    def nblocked(self) -> int:
        return len(self.blocked)

    def ranks(self) -> List[int]:
        return sorted({info.proc for info in self.blocked})

    def summary(self) -> str:
        lines = [f"DEADLOCK involving {self.nblocked} blocked thread(s):"]
        for info in self.blocked:
            lines.append(f"  {info}")
        return "\n".join(lines)


def diagnose(blocked: List["BlockedInfo"]) -> DeadlockDiagnosis:
    """Build a :class:`DeadlockDiagnosis` from scheduler blocked info."""
    return DeadlockDiagnosis(blocked)
