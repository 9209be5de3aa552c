"""Monitored-variable checklist generation.

The static phase produces, for each instrumented MPI site, the list of
monitored variables its wrapper will write and the violation classes
those variables feed — the paper's "thread-safety specification
argument list" that the final report-matching stage consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...events.event import MONITORED_KINDS_BY_OP, MonitoredKind
from .mpi_sites import MPISite

#: violation classes associated with each monitored variable
VIOLATIONS_BY_KIND: Dict[MonitoredKind, Tuple[str, ...]] = {
    MonitoredKind.SRC: ("ConcurrentRecvViolation", "ProbeViolation"),
    MonitoredKind.TAG: ("ConcurrentRecvViolation", "ProbeViolation"),
    MonitoredKind.COMM: (
        "ConcurrentRecvViolation",
        "ProbeViolation",
        "CollectiveCallViolation",
    ),
    MonitoredKind.REQUEST: ("ConcurrentRequestViolation",),
    MonitoredKind.COLLECTIVE: ("CollectiveCallViolation",),
    MonitoredKind.FINALIZE: ("MPIFinalizationViolation",),
}


@dataclass
class ChecklistEntry:
    """Monitored variables and candidate violations for one site."""

    site: MPISite
    kinds: Tuple[MonitoredKind, ...]
    candidate_violations: Tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(str(k) for k in self.kinds)
        return f"{self.site}: watches [{kinds}]"


@dataclass
class Checklist:
    """The full static checklist for one instrumented program."""

    entries: List[ChecklistEntry] = field(default_factory=list)

    def candidate_violations(self) -> set:
        out: set = set()
        for entry in self.entries:
            out.update(entry.candidate_violations)
        return out

    def __len__(self) -> int:
        return len(self.entries)


def build_checklist(sites: List[MPISite]) -> Checklist:
    """Checklist entries for every instrumentable hybrid site."""
    checklist = Checklist()
    for site in sites:
        kinds = MONITORED_KINDS_BY_OP.get(site.op, ())
        if not kinds:
            continue
        violations: List[str] = []
        for kind in kinds:
            for v in VIOLATIONS_BY_KIND[kind]:
                if v not in violations:
                    violations.append(v)
        checklist.entries.append(
            ChecklistEntry(site, tuple(kinds), tuple(violations))
        )
    return checklist
